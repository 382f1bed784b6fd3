// Service perf gate: allocator memoization + sharded replay.
//
// Replays one large Poisson submission stream through the online
// scheduler and checks two independent properties:
//
// Memoization (unsharded), best-of-3:
//   1. determinism: every repeat produces the byte-identical completion
//      schedule (same fingerprint over
//      id/node/slot/config/start/finish for every record, in order);
//   2. the cache works: the run replays memoized fixed-point solves
//      (cache_hits > 0) and so solves fewer than it allocates
//      (solves < allocate_calls).
//
// Sharded replay (regions pinned to min(4, nodes) — the *semantic*
// knob), sweeping worker threads 1/2/4 (the pure performance knob):
//   3. determinism: every thread count produces the byte-identical
//      schedule — `--shards N` must never change results;
//   4. speedup: best-of-3 events/sec at 4 workers is >= 2x the
//      1-worker baseline. Only enforced when the host actually has
//      >= 4 hardware threads (always recorded in the JSON).
//
// Results land in the "perf_service" section of BENCH_perf.json via
// bench::BenchJson, which CI uploads as an artifact, so the events/sec
// trend is visible across commits.
//
//   perf_service [--submissions N] [--nodes N] [--classes N]
//                [--shards N] [--json f] [--smoke]
//
// --smoke shrinks the stream for the CI tier-1 smoke job; --shards
// caps the worker-thread sweep (default 4).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
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
  std::uint64_t shard_migrations = 0;
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
  std::uint32_t max_shards = 4;
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
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      max_shards =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  if (smoke) submissions = std::min<std::uint64_t>(submissions, 4000);
  max_shards = std::max<std::uint32_t>(1, max_shards);
  constexpr int kRepeats = 3;  // best-of-3 absorbs scheduler jitter

  service::ArrivalParams arrivals;
  arrivals.count = submissions;
  arrivals.classes = classes;
  arrivals.mean_interarrival_ns = 150.0e6;
  const auto stream = *service::make_submission_stream(arrivals);

  service::ServiceConfig base_config;
  base_config.nodes = nodes;
  base_config.policy = service::PlacementPolicy::kRecommenderAware;
  // Admit everything: all runs must complete the identical set of
  // submissions for the fingerprint comparison to be meaningful.
  base_config.queue_capacity = static_cast<std::size_t>(submissions);
  base_config.defer_watermark = 1.0;

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::cout << format(
      "=== perf_service: %llu submissions, %u classes, %u nodes, "
      "%u hw threads ===\n\n",
      static_cast<unsigned long long>(submissions), classes, nodes,
      hardware_threads);

  // A fresh scheduler per run keeps the profile cache cold every time;
  // the runs differ only in the sharding knobs. Counters come from the
  // run's own metrics (per-allocator state — no process globals).
  auto run_once = [&](std::uint32_t regions,
                      std::uint32_t threads) -> RunOutcome {
    service::ServiceConfig config = base_config;
    config.sharding.regions = regions;
    config.sharding.threads = threads;
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
    outcome.shard_migrations = result->metrics.shard_migrations;
    outcome.wall_seconds = wall_seconds;
    outcome.counters = result->metrics.allocator;
    return outcome;
  };

  // Best wall clock of kRepeats, with every repeat's fingerprint
  // checked against the first: repeats are free determinism trials.
  bool repeats_identical = true;
  auto best_of = [&](std::uint32_t regions,
                     std::uint32_t threads) -> RunOutcome {
    RunOutcome best = run_once(regions, threads);
    for (int r = 1; r < kRepeats; ++r) {
      RunOutcome repeat = run_once(regions, threads);
      if (repeat.fingerprint != best.fingerprint ||
          repeat.des_events != best.des_events) {
        repeats_identical = false;
      }
      if (repeat.wall_seconds < best.wall_seconds) best = repeat;
    }
    return best;
  };

  // ---- Memoization gate (unsharded) ----
  const RunOutcome unsharded = best_of(1, 0);

  TextTable table({"Completed", "DES events", "Wall", "Events/s",
                   "Allocations", "Solves", "Cache hits", "Hit rate"},
                  {Align::kRight, Align::kRight, Align::kRight, Align::kRight,
                   Align::kRight, Align::kRight, Align::kRight, Align::kRight});
  table.add_row(
      {format("%llu", static_cast<unsigned long long>(unsharded.completed)),
       format("%llu", static_cast<unsigned long long>(unsharded.des_events)),
       format("%.3f s", unsharded.wall_seconds),
       format("%.0f", unsharded.events_per_sec()),
       format("%llu",
              static_cast<unsigned long long>(unsharded.counters.allocate_calls)),
       format("%llu", static_cast<unsigned long long>(unsharded.counters.solves)),
       format("%llu",
              static_cast<unsigned long long>(unsharded.counters.cache_hits)),
       format("%.1f %%", 100.0 * unsharded.counters.hit_rate())});
  table.write(std::cout);

  // Gate 1 is repeats_identical (checked by every best_of call).
  // Gate 2: the cache replayed solves instead of re-running them.
  const bool cache_effective =
      unsharded.counters.cache_hits > 0 &&
      unsharded.counters.solves < unsharded.counters.allocate_calls;

  std::cout << format(
      "\nfingerprint        %016llx across %d repeats  %s\n",
      static_cast<unsigned long long>(unsharded.fingerprint), kRepeats,
      repeats_identical ? "IDENTICAL" : "DIVERGED");
  std::cout << format(
      "allocator cache    %llu solves for %llu allocations "
      "(%.1f %% hit rate)  %s\n",
      static_cast<unsigned long long>(unsharded.counters.solves),
      static_cast<unsigned long long>(unsharded.counters.allocate_calls),
      100.0 * unsharded.counters.hit_rate(),
      cache_effective ? "OK" : "INEFFECTIVE");

  // ---- Sharded-replay gate ----
  // Regions are pinned (semantic knob: a 4-region schedule legitimately
  // differs from the 1-region one above); only the worker-thread count
  // varies, and it must not move a single byte.
  const std::uint32_t regions = std::min<std::uint32_t>(4, nodes);
  std::vector<std::uint32_t> thread_counts;
  for (std::uint32_t t : {1u, 2u, 4u}) {
    if (t <= max_shards) thread_counts.push_back(t);
  }
  std::vector<RunOutcome> sharded;
  sharded.reserve(thread_counts.size());
  for (std::uint32_t t : thread_counts) {
    sharded.push_back(best_of(regions, t));
  }

  TextTable shard_table({"Workers", "Completed", "DES events", "Migrations",
                         "Wall", "Events/s", "Fingerprint"},
                        {Align::kRight, Align::kRight, Align::kRight,
                         Align::kRight, Align::kRight, Align::kRight,
                         Align::kLeft});
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const RunOutcome& run = sharded[i];
    shard_table.add_row(
        {format("%u", thread_counts[i]),
         format("%llu", static_cast<unsigned long long>(run.completed)),
         format("%llu", static_cast<unsigned long long>(run.des_events)),
         format("%llu",
                static_cast<unsigned long long>(run.shard_migrations)),
         format("%.3f s", run.wall_seconds),
         format("%.0f", run.events_per_sec()),
         format("%016llx", static_cast<unsigned long long>(run.fingerprint))});
  }
  std::cout << format("\n--- sharded replay: %u regions ---\n", regions);
  shard_table.write(std::cout);

  // Gate 3: the worker-thread count is a pure performance knob.
  bool identical_sharded = repeats_identical;
  for (const RunOutcome& run : sharded) {
    identical_sharded =
        identical_sharded && run.fingerprint == sharded.front().fingerprint &&
        run.completed == sharded.front().completed &&
        run.des_events == sharded.front().des_events &&
        run.shard_migrations == sharded.front().shard_migrations;
  }
  // Gate 4: >= 2x events/sec at 4 workers vs 1 — only meaningful (and
  // only enforced) when the host has >= 4 hardware threads and the
  // sweep actually reached 4 workers.
  double speedup = 1.0;
  if (sharded.size() > 1 && sharded.front().events_per_sec() > 0.0) {
    speedup = sharded.back().events_per_sec() /
              sharded.front().events_per_sec();
  }
  const bool speedup_enforced =
      hardware_threads >= 4 && !thread_counts.empty() &&
      thread_counts.back() >= 4;
  const bool fast_enough = !speedup_enforced || speedup >= 2.0;

  std::cout << format(
      "sharded identity   %s across %zu worker counts\n",
      identical_sharded ? "IDENTICAL" : "DIVERGED", sharded.size());
  std::cout << format(
      "sharded speedup    %.2fx (workers %u -> %u)  %s\n", speedup,
      thread_counts.front(), thread_counts.back(),
      speedup_enforced ? (fast_enough ? "OK" : "TOO SLOW")
                       : "not enforced (needs >= 4 hw threads)");

  const bool pass = repeats_identical && cache_effective &&
                    identical_sharded && fast_enough;
  std::cout << "\nresult: " << (pass ? "PASS" : "FAIL") << "\n";

  bench::BenchJson json(json_path);
  std::vector<std::pair<std::string, double>> section{
      {"submissions", static_cast<double>(submissions)},
      {"nodes", static_cast<double>(nodes)},
      {"classes", static_cast<double>(classes)},
      {"des_events", static_cast<double>(unsharded.des_events)},
      {"wall_seconds_memoized", unsharded.wall_seconds},
      {"events_per_sec_memoized", unsharded.events_per_sec()},
      {"submissions_per_sec", unsharded.submissions_per_sec()},
      {"solves_memoized", static_cast<double>(unsharded.counters.solves)},
      {"allocator_hit_rate", unsharded.counters.hit_rate()},
      {"regions", static_cast<double>(regions)},
      {"hardware_threads", static_cast<double>(hardware_threads)},
      {"identical_sharded", identical_sharded ? 1.0 : 0.0},
      {"speedup_shards", speedup},
      {"shard_migrations",
       sharded.empty() ? 0.0
                       : static_cast<double>(sharded.front().shard_migrations)},
      {"pass", pass ? 1.0 : 0.0}};
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    section.emplace_back(format("events_per_sec_shards%u", thread_counts[i]),
                         sharded[i].events_per_sec());
  }
  json.set_section("perf_service", section);
  if (!json.write()) {
    std::cerr << "error: could not write " << json_path << "\n";
    return 1;
  }
  return pass ? 0 : 1;
}
