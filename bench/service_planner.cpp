// Planner acceptance gate (service-subsystem extension).
//
// Enforces the contract the lookahead planner is built on: on a bursty
// heterogeneous storm (bursts of queued work landing on a drained
// mixed-backend fleet), planning k >= 4 submissions jointly by
// min-estimated-finish beats the greedy window-1 least-loaded baseline
// on makespan — the joint plan routes each class to the backend where
// it finishes earliest instead of filling nodes in blind load order.
//
// Appends a "service_planner" section to BENCH_service.json for the CI
// artifact.
//
//   service_planner [--smoke] [--csv out.csv] [--json f]
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/csv.hpp"
#include "common/strings.hpp"
#include "devices/registry.hpp"
#include "service/arrivals.hpp"
#include "workloads/synthetic.hpp"
#include "service/scheduler.hpp"

namespace {

using namespace pmemflow;

struct Gate {
  const char* name;
  bool pass;
  std::string detail;
};

/// Mixed-backend fleet: half dram-like, half cxl-like — the regime
/// where joint planning pays, because a class's runtime differs
/// across nodes.
std::vector<service::NodeSpec> storm_fleet_specs(std::uint32_t nodes) {
  const char* presets[] = {"dram-like", "cxl-like"};
  std::vector<service::NodeSpec> specs;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    service::NodeSpec spec;
    spec.backend_name = presets[i % 2];
    spec.devices = *devices::parse_backend(spec.backend_name);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Bursty storm of two heterogeneous classes whose per-backend
/// preference is *inverted*: a compute-bound class that runs the same
/// everywhere, and a bandwidth-bound class that is fast on dram-like
/// and slow on cxl-like. When a node frees under backlog, the
/// lookahead planner picks the window entry that finishes earliest on
/// that node's backend (compute work to cxl, streaming work to dram);
/// greedy window-1 must take the queue head and mismatches half the
/// time.
std::vector<service::Submission> make_storm_stream(std::uint64_t bursts,
                                                   std::uint64_t burst_size,
                                                   SimDuration gap_ns) {
  workloads::SyntheticSimulation::Params compute_sim;
  compute_sim.object_size = 64 * kKiB;
  compute_sim.objects_per_rank = 8;
  compute_sim.compute_ns = 2.0e9;
  compute_sim.name = "storm-compute-sim";
  workloads::SyntheticAnalytics::Params compute_ana;
  compute_ana.compute_ns_per_object = 0.0;
  compute_ana.name = "storm-compute-ana";
  auto compute =
      workloads::make_synthetic_workflow(compute_sim, compute_ana, 8, 2);
  compute.label = "storm-compute";

  workloads::SyntheticSimulation::Params io_sim;
  io_sim.object_size = 64 * kMiB;
  io_sim.objects_per_rank = 8;
  io_sim.compute_ns = 0.0;
  io_sim.name = "storm-io-sim";
  workloads::SyntheticAnalytics::Params io_ana;
  io_ana.compute_ns_per_object = 0.0;
  io_ana.name = "storm-io-ana";
  auto io = workloads::make_synthetic_workflow(io_sim, io_ana, 8, 2);
  io.label = "storm-io";

  std::vector<service::Submission> stream;
  for (std::uint64_t i = 0; i < bursts * burst_size; ++i) {
    service::Submission submission;
    submission.id = i;
    submission.spec = (i % 2 == 0) ? compute : io;
    submission.arrival_ns =
        (i / burst_size) * gap_ns + (i % burst_size) * kMillisecond;
    stream.push_back(std::move(submission));
  }
  return stream;
}

Expected<service::ServiceResult> run_storm(
    const std::vector<service::Submission>& stream, std::uint32_t nodes,
    std::uint32_t window) {
  service::ServiceConfig config;
  config.nodes = nodes;
  config.queue_capacity = stream.size();
  config.defer_watermark = 1.0;
  config.policy = service::PlacementPolicy::kLeastLoaded;
  config.node_specs = storm_fleet_specs(nodes);
  config.planner.window = window;
  service::OnlineScheduler scheduler(config);
  return scheduler.run(stream);
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

  const std::uint32_t nodes = 6;
  const std::uint64_t bursts = smoke ? 6 : 20;
  const std::uint64_t burst_size = 12;
  const auto storm =
      make_storm_stream(bursts, burst_size, 20 * kSecond);

  std::cout << format(
      "=== planner gate: %zu submissions in %llu bursts of %llu, "
      "%u mixed-backend nodes%s ===\n\n",
      storm.size(), static_cast<unsigned long long>(bursts),
      static_cast<unsigned long long>(burst_size), nodes,
      smoke ? " (smoke)" : "");

  std::vector<Gate> gates;
  double greedy_makespan_s = 0.0, lookahead_makespan_s = 0.0;
  std::uint64_t lookahead_plans = 0;

  // Window-8 joint planning beats the greedy window-1 least-loaded
  // baseline on makespan.
  {
    bool pass = true;
    std::string detail;
    auto greedy = run_storm(storm, nodes, /*window=*/1);
    auto lookahead = run_storm(storm, nodes, /*window=*/8);
    if (!greedy.has_value()) {
      pass = false;
      detail = greedy.error().message;
    } else if (!lookahead.has_value()) {
      pass = false;
      detail = lookahead.error().message;
    } else {
      greedy_makespan_s =
          static_cast<double>(greedy->metrics.makespan_ns) / 1e9;
      lookahead_makespan_s =
          static_cast<double>(lookahead->metrics.makespan_ns) / 1e9;
      lookahead_plans = lookahead->metrics.plans;
      if (greedy->metrics.completed != storm.size() ||
          lookahead->metrics.completed != storm.size()) {
        pass = false;
        detail = "not every submission completed";
      } else if (lookahead->metrics.makespan_ns >=
                 greedy->metrics.makespan_ns) {
        pass = false;
        detail = format("window-8 makespan %.3f s !< window-1 %.3f s",
                        lookahead_makespan_s, greedy_makespan_s);
      } else {
        detail = format("makespan %.3f s vs %.3f s (%.1f%% faster)",
                        lookahead_makespan_s, greedy_makespan_s,
                        100.0 * (1.0 - lookahead_makespan_s /
                                           greedy_makespan_s));
      }
    }
    gates.push_back({"lookahead-beats-greedy", pass, detail});
  }

  bool all_pass = true;
  for (const auto& gate : gates) {
    std::cout << format("%-26s %s  %s\n", gate.name,
                        gate.pass ? "PASS" : "FAIL", gate.detail.c_str());
    all_pass = all_pass && gate.pass;
  }
  std::cout << "\nresult: "
            << (all_pass ? "planner gates hold" : "planner gate FAILED")
            << "\n";

  bench::BenchJson json(json_path);
  json.set_section(
      "service_planner",
      {{"submissions", static_cast<double>(storm.size())},
       {"greedy_makespan_s", greedy_makespan_s},
       {"lookahead_makespan_s", lookahead_makespan_s},
       {"lookahead_speedup",
        lookahead_makespan_s > 0.0 ? greedy_makespan_s / lookahead_makespan_s
                                   : 0.0},
       {"lookahead_plans", static_cast<double>(lookahead_plans)}});
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
