// DAG-subsystem acceptance gate (service-subsystem extension).
//
// Enforces the two contracts the general-DAG work is built on:
//
//   1. Fusion wins — on a fan-out-heavy mix, kDagFusion co-locates
//      producer→consumer stages (ephemeral edges > 0) and beats plain
//      least-loaded placement on makespan, because fused edges stream
//      socket-locally instead of paying the interconnect.
//   2. Pair ≡ 2-node DAG — a writer+reader pair submitted as a
//      two-component chain DAG schedules identically to the same class
//      submitted through the classic pair path (same nodes, same
//      starts, same finishes), under kLeastLoaded.
//
// Appends a "service_dag" section to BENCH_service.json (shared with
// the other service benches) for the CI artifact.
//
//   service_dag [--smoke] [--csv out.csv] [--json f]
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench_json.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "dag/spec.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace {

using namespace pmemflow;

struct Gate {
  const char* name;
  bool pass;
  std::string detail;
};

/// One simulation stage feeding two analytics consumers: the fan-out
/// shape where co-placement pays (transfer-dominated edges).
dag::DagSpec make_fanout_dag(std::uint32_t iterations) {
  dag::DagSpec spec;
  spec.label = "fanout-analytics";
  spec.iterations = iterations;
  dag::DagComponent sim;
  sim.name = "sim";
  sim.ranks = 8;
  sim.object_size = 16 * kMiB;
  sim.objects_per_rank = 16;
  sim.compute_ns = 20e6;
  dag::DagComponent stats;
  stats.name = "stats";
  stats.ranks = 8;
  stats.object_size = 1 * kMiB;
  stats.objects_per_rank = 4;
  stats.analytics_ns_per_object = 30000.0;
  dag::DagComponent viz = stats;
  viz.name = "viz";
  viz.analytics_ns_per_object = 20000.0;
  spec.components = {sim, stats, viz};
  spec.edges = {dag::DagEdge{"sim", "stats", {}, 4},
                dag::DagEdge{"sim", "viz", {}, 4}};
  return spec;
}

/// A two-component chain: exactly a writer+reader pair.
dag::DagSpec make_chain_dag(std::uint32_t iterations) {
  dag::DagSpec spec;
  spec.label = "pair-as-dag";
  spec.iterations = iterations;
  dag::DagComponent writer;
  writer.name = "writer";
  writer.ranks = 8;
  writer.object_size = 8 * kMiB;
  writer.objects_per_rank = 8;
  writer.compute_ns = 50e6;
  dag::DagComponent reader;
  reader.name = "reader";
  reader.ranks = 8;
  reader.analytics_ns_per_object = 25000.0;
  spec.components = {writer, reader};
  spec.edges = {dag::DagEdge{"writer", "reader", {}, 0}};
  return spec;
}

/// A pair-class stream where every other submission is replaced by a
/// fan-out DAG, deterministically.
std::vector<service::Submission> make_mixed_stream(
    std::uint64_t count, std::shared_ptr<const dag::DagSpec> dag_class) {
  service::ArrivalParams arrivals;
  arrivals.count = count;
  arrivals.classes = 6;
  arrivals.mean_interarrival_ns = 120.0e6;
  auto stream = *service::make_submission_stream(arrivals);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i % 2 != 0) continue;
    stream[i].dag = dag_class;
    stream[i].spec = workflow::WorkflowSpec{};
  }
  return stream;
}

bool identical_schedules(const std::vector<service::CompletionRecord>& a,
                         const std::vector<service::CompletionRecord>& b,
                         std::string* detail) {
  if (a.size() != b.size()) {
    *detail = format("%zu vs %zu completions", a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.id != y.id || x.node != y.node || x.slot != y.slot ||
        x.arrival_ns != y.arrival_ns || x.start_ns != y.start_ns ||
        x.finish_ns != y.finish_ns) {
      *detail = format(
          "completion %zu differs: id %llu node %u [%llu, %llu] vs id "
          "%llu node %u [%llu, %llu]",
          i, static_cast<unsigned long long>(x.id), x.node,
          static_cast<unsigned long long>(x.start_ns),
          static_cast<unsigned long long>(x.finish_ns),
          static_cast<unsigned long long>(y.id), y.node,
          static_cast<unsigned long long>(y.start_ns),
          static_cast<unsigned long long>(y.finish_ns));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string csv_path;
  std::string json_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const std::uint64_t count = smoke ? 60 : 400;
  const auto fanout = std::make_shared<const dag::DagSpec>(
      make_fanout_dag(smoke ? 6 : 10));
  const auto mixed = make_mixed_stream(count, fanout);

  std::cout << format("=== DAG gate: %zu submissions (every 2nd a "
                      "fan-out DAG)%s ===\n\n",
                      mixed.size(), smoke ? " (smoke)" : "");

  std::vector<Gate> gates;
  double fusion_makespan_s = 0.0, baseline_makespan_s = 0.0;
  std::uint64_t ephemeral_edges = 0, dag_completed = 0;

  // Gate 1: kDagFusion beats least-loaded on the fan-out mix, with
  // fused (ephemeral) edges in the metrics.
  {
    bool pass = true;
    std::string detail;
    service::ServiceConfig config;
    config.nodes = 4;
    config.queue_capacity = mixed.size();
    config.defer_watermark = 1.0;

    service::ServiceMetrics by_policy[2];
    const service::PlacementPolicy policies[2] = {
        service::PlacementPolicy::kLeastLoaded,
        service::PlacementPolicy::kDagFusion};
    for (int p = 0; pass && p < 2; ++p) {
      config.policy = policies[p];
      service::OnlineScheduler scheduler(config);
      auto result = scheduler.run(mixed);
      if (!result.has_value()) {
        pass = false;
        detail = result.error().message;
        break;
      }
      by_policy[p] = result->metrics;
    }
    if (pass) {
      const auto& base = by_policy[0];
      const auto& fused = by_policy[1];
      baseline_makespan_s = static_cast<double>(base.makespan_ns) / 1e9;
      fusion_makespan_s = static_cast<double>(fused.makespan_ns) / 1e9;
      ephemeral_edges = fused.ephemeral_edges;
      dag_completed = fused.dag_completed;
      if (fused.dag_completed == 0) {
        pass = false;
        detail = "no DAG submissions completed";
      } else if (fused.ephemeral_edges == 0) {
        pass = false;
        detail = "kDagFusion fused no edges";
      } else if (base.ephemeral_edges != 0) {
        pass = false;
        detail = "least-loaded spread placement fused edges";
      } else if (fused.makespan_ns >= base.makespan_ns) {
        pass = false;
        detail = format("fusion makespan %.3f s !< least-loaded %.3f s",
                        fusion_makespan_s, baseline_makespan_s);
      } else {
        detail = format(
            "%llu DAGs, %llu fused edges, makespan %.3f s vs %.3f s "
            "(%.1f%% faster)",
            static_cast<unsigned long long>(fused.dag_completed),
            static_cast<unsigned long long>(fused.ephemeral_edges),
            fusion_makespan_s, baseline_makespan_s,
            100.0 * (1.0 - fusion_makespan_s / baseline_makespan_s));
      }
    }
    gates.push_back({"fusion-beats-least-loaded", pass, detail});
  }

  // Gate 2: a pair class submitted as a two-component chain DAG
  // schedules identically to the classic pair path.
  bool pair_identical = false;
  {
    bool pass = true;
    std::string detail;
    const auto chain = std::make_shared<const dag::DagSpec>(
        make_chain_dag(smoke ? 4 : 8));
    auto pair = dag::to_pair_workflow(*chain);
    if (!pair.has_value()) {
      pass = false;
      detail = pair.error().message;
    } else {
      const std::uint64_t n = smoke ? 12 : 48;
      std::vector<service::Submission> as_pairs, as_dags;
      for (std::uint64_t i = 0; i < n; ++i) {
        service::Submission s;
        s.id = i;
        s.arrival_ns = i * 150 * kMillisecond;
        s.spec = *pair;
        as_pairs.push_back(s);
        s.spec = workflow::WorkflowSpec{};
        s.dag = chain;
        as_dags.push_back(std::move(s));
      }

      service::ServiceConfig config;
      config.nodes = 3;
      config.queue_capacity = n;
      config.defer_watermark = 1.0;
      config.policy = service::PlacementPolicy::kLeastLoaded;

      service::OnlineScheduler pair_scheduler(config);
      auto pair_run = pair_scheduler.run(as_pairs);
      service::OnlineScheduler dag_scheduler(config);
      auto dag_run = dag_scheduler.run(as_dags);
      if (!pair_run.has_value()) {
        pass = false;
        detail = pair_run.error().message;
      } else if (!dag_run.has_value()) {
        pass = false;
        detail = dag_run.error().message;
      } else {
        pass = identical_schedules(pair_run->completions,
                                   dag_run->completions, &detail);
        if (pass) {
          detail = format(
              "%zu completions, runtime %.3f s each, identical nodes "
              "and times",
              pair_run->completions.size(),
              static_cast<double>(
                  pair_run->completions.front().runtime_ns()) /
                  1e9);
        }
      }
    }
    pair_identical = pass;
    gates.push_back({"pair-equals-2-node-dag", pass, detail});
  }

  bool all_pass = true;
  for (const auto& gate : gates) {
    std::cout << format("%-26s %s  %s\n", gate.name,
                        gate.pass ? "PASS" : "FAIL", gate.detail.c_str());
    all_pass = all_pass && gate.pass;
  }
  std::cout << "\nresult: "
            << (all_pass ? "DAG subsystem gates hold" : "DAG gate FAILED")
            << "\n";

  bench::BenchJson json(json_path);
  json.set_section(
      "service_dag",
      {{"submissions", static_cast<double>(mixed.size())},
       {"dag_completed", static_cast<double>(dag_completed)},
       {"ephemeral_edges", static_cast<double>(ephemeral_edges)},
       {"fusion_makespan_s", fusion_makespan_s},
       {"least_loaded_makespan_s", baseline_makespan_s},
       {"fusion_speedup",
        fusion_makespan_s > 0.0 ? baseline_makespan_s / fusion_makespan_s
                                : 0.0},
       {"pair_dag_identical", pair_identical ? 1.0 : 0.0}});
  if (!json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }

  if (!csv_path.empty()) {
    CsvWriter csv({"gate", "pass", "detail"});
    for (const auto& gate : gates) {
      csv.add_row({gate.name, gate.pass ? "1" : "0", gate.detail});
    }
    if (!csv.write_file(csv_path)) {
      std::cerr << "error: could not write " << csv_path << "\n";
      return 1;
    }
  }
  return all_pass ? 0 : 1;
}
