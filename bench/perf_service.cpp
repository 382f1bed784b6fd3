// Service perf gate: allocator memoization on a large replay.
//
// Replays one large Poisson submission stream through the online
// scheduler, best-of-3, and checks two properties:
//   1. determinism: every repeat produces the byte-identical completion
//      schedule (same fingerprint over
//      id/node/slot/config/start/finish for every record, in order);
//   2. the cache works: the run replays memoized fixed-point solves
//      (cache_hits > 0) and so solves fewer than it allocates
//      (solves < allocate_calls).
//
// Results land in the "perf_service" section of BENCH_perf.json via
// bench::BenchJson, which CI uploads as an artifact, so the events/sec
// trend is visible across commits.
//
//   perf_service [--submissions N] [--nodes N] [--classes N]
//                [--json f] [--smoke]
//
// --smoke shrinks the stream for the CI tier-1 smoke job.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "pmemsim/allocator.hpp"
#include "service/arrivals.hpp"
#include "service/scheduler.hpp"

namespace {

using namespace pmemflow;

/// FNV-1a over the schedule-defining fields of every completion, in
/// order. Two runs that place, start, or finish anything differently —
/// even by one nanosecond — disagree here.
std::uint64_t fingerprint(
    const std::vector<service::CompletionRecord>& records) {
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  for (const auto& record : records) {
    mix(record.id);
    mix(record.node);
    mix(record.slot);
    mix(static_cast<std::uint64_t>(record.config.mode));
    mix(static_cast<std::uint64_t>(record.config.placement));
    mix(record.start_ns);
    mix(record.finish_ns);
    mix(record.preemptions);
    mix(record.checkpoint_ns);
  }
  return hash;
}

struct RunOutcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t completed = 0;
  std::uint64_t des_events = 0;
  double wall_seconds = 0.0;
  pmemsim::AllocatorCounters counters;

  [[nodiscard]] double events_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(des_events) / wall_seconds
               : 0.0;
  }
  [[nodiscard]] double submissions_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(completed) / wall_seconds
               : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pmemflow;

  std::uint64_t submissions = 50000;
  std::uint32_t nodes = 8;
  std::uint32_t classes = 24;
  bool smoke = false;
  std::string json_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--submissions") == 0 && i + 1 < argc) {
      submissions = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--classes") == 0 && i + 1 < argc) {
      classes =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) submissions = std::min<std::uint64_t>(submissions, 4000);
  constexpr int kRepeats = 3;  // best-of-3 absorbs scheduler jitter

  service::ArrivalParams arrivals;
  arrivals.count = submissions;
  arrivals.classes = classes;
  arrivals.mean_interarrival_ns = 150.0e6;
  const auto stream = *service::make_submission_stream(arrivals);

  service::ServiceConfig config;
  config.nodes = nodes;
  config.policy = service::PlacementPolicy::kRecommenderAware;
  // Admit everything: all runs must complete the identical set of
  // submissions for the fingerprint comparison to be meaningful.
  config.queue_capacity = static_cast<std::size_t>(submissions);
  config.defer_watermark = 1.0;

  std::cout << format(
      "=== perf_service: %llu submissions, %u classes, %u nodes ===\n\n",
      static_cast<unsigned long long>(submissions), classes, nodes);

  // A fresh scheduler per run keeps the profile cache cold every time.
  // Counters come from the run's own metrics (per-allocator state — no
  // process globals).
  auto run_once = [&]() -> RunOutcome {
    service::OnlineScheduler scheduler(config);
    const auto wall_start = std::chrono::steady_clock::now();
    auto result = scheduler.run(stream);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (!result.has_value()) {
      std::cerr << "error: " << result.error().message << "\n";
      std::exit(1);
    }
    RunOutcome outcome;
    outcome.fingerprint = fingerprint(result->completions);
    outcome.completed = result->metrics.completed;
    outcome.des_events = result->metrics.des_events;
    outcome.wall_seconds = wall_seconds;
    outcome.counters = result->metrics.allocator;
    return outcome;
  };

  // Best wall clock of kRepeats, with every repeat's fingerprint
  // checked against the first: repeats are free determinism trials.
  bool repeats_identical = true;
  RunOutcome best = run_once();
  for (int r = 1; r < kRepeats; ++r) {
    RunOutcome repeat = run_once();
    if (repeat.fingerprint != best.fingerprint ||
        repeat.des_events != best.des_events) {
      repeats_identical = false;
    }
    if (repeat.wall_seconds < best.wall_seconds) best = repeat;
  }

  TextTable table({"Completed", "DES events", "Wall", "Events/s",
                   "Allocations", "Solves", "Cache hits", "Hit rate"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  table.add_row(
      {format("%llu", static_cast<unsigned long long>(best.completed)),
       format("%llu", static_cast<unsigned long long>(best.des_events)),
       format("%.3f s", best.wall_seconds),
       format("%.0f", best.events_per_sec()),
       format("%llu",
              static_cast<unsigned long long>(best.counters.allocate_calls)),
       format("%llu", static_cast<unsigned long long>(best.counters.solves)),
       format("%llu",
              static_cast<unsigned long long>(best.counters.cache_hits)),
       format("%.1f %%", 100.0 * best.counters.hit_rate())});
  table.write(std::cout);

  // Gate 1 is repeats_identical (checked by every repeat above).
  // Gate 2: the cache replayed solves instead of re-running them.
  const bool cache_effective =
      best.counters.cache_hits > 0 &&
      best.counters.solves < best.counters.allocate_calls;

  std::cout << format(
      "\nfingerprint        %016llx across %d repeats  %s\n",
      static_cast<unsigned long long>(best.fingerprint), kRepeats,
      repeats_identical ? "IDENTICAL" : "DIVERGED");
  std::cout << format(
      "allocator cache    %llu solves for %llu allocations "
      "(%.1f %% hit rate)  %s\n",
      static_cast<unsigned long long>(best.counters.solves),
      static_cast<unsigned long long>(best.counters.allocate_calls),
      100.0 * best.counters.hit_rate(),
      cache_effective ? "OK" : "INEFFECTIVE");

  const bool pass = repeats_identical && cache_effective;
  std::cout << "\nresult: " << (pass ? "PASS" : "FAIL") << "\n";

  bench::BenchJson json(json_path);
  json.set_section(
      "perf_service",
      {{"submissions", static_cast<double>(submissions)},
       {"nodes", static_cast<double>(nodes)},
       {"classes", static_cast<double>(classes)},
       {"des_events", static_cast<double>(best.des_events)},
       {"wall_seconds_memoized", best.wall_seconds},
       {"events_per_sec_memoized", best.events_per_sec()},
       {"submissions_per_sec", best.submissions_per_sec()},
       {"solves_memoized", static_cast<double>(best.counters.solves)},
       {"allocator_hit_rate", best.counters.hit_rate()},
       {"pass", pass ? 1.0 : 0.0}});
  if (!json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  return pass ? 0 : 1;
}
