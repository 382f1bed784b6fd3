#include "dag/runner.hpp"

#include "common/strings.hpp"

namespace pmemflow::dag {

Expected<DagRunResult> run(const workflow::Runner& runner, const DagSpec& dag,
                           const DagRunOptions& options) {
  if (auto status = validate(dag); !status) {
    return Unexpected{status.error()};
  }
  if (options.component_sockets.size() != dag.components.size()) {
    return make_error(
        format("placement pins %zu components but the dag has %zu",
               options.component_sockets.size(), dag.components.size()));
  }
  if (options.edge_sockets.size() != dag.edges.size()) {
    return make_error(format("placement pins %zu edges but the dag has %zu",
                             options.edge_sockets.size(), dag.edges.size()));
  }

  workflow::Job job;
  job.iterations = dag.iterations;
  job.verify_reads = dag.verify_reads;
  job.staging = options.staging;
  job.tracer = options.tracer;
  for (std::size_t i = 0; i < dag.components.size(); ++i) {
    job.components.push_back(
        to_component(dag.components[i], options.component_sockets[i]));
  }
  DagRunResult result;
  for (std::size_t i = 0; i < dag.edges.size(); ++i) {
    const DagEdge& edge = dag.edges[i];
    const std::size_t producer = *component_index(dag, edge.producer);
    const std::size_t consumer = *component_index(dag, edge.consumer);
    // A single-edge DAG names its channel after the job, as a pair run
    // does; multi-edge DAGs qualify per edge.
    const std::string channel =
        dag.edges.size() == 1
            ? dag.label
            : format("%s.%s-%s", dag.label.c_str(), edge.producer.c_str(),
                     edge.consumer.c_str());
    job.edges.push_back({producer, consumer, options.edge_sockets[i],
                         edge.stack, std::nullopt, edge.capacity, {}, channel,
                         channel});
    if (options.component_sockets[producer] ==
        options.component_sockets[consumer]) {
      result.ephemeral_edges += 1;
    }
  }

  auto run = runner.run_jobs({&job, 1});
  if (!run.has_value()) return Unexpected{run.error()};
  static_cast<workflow::JobResult&>(result) = std::move(run->jobs.front());
  result.devices.assign(run->devices.begin(), run->devices.end());
  for (const auto& [socket, stats] : run->staging) {
    result.staging.writes += stats.writes;
    result.staging.hits += stats.hits;
    result.staging.bytes_staged += stats.bytes_staged;
    result.staging.bytes_throttled += stats.bytes_throttled;
  }
  result.engine_events = run->engine_events;
  return result;
}

}  // namespace pmemflow::dag
