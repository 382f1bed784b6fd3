// pmemflow repository benchmark.
//
// Replays seeded synthetic submission streams through
// service::OnlineScheduler::run, unsharded on one thread, and prints
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1). The
// last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
//   perfbench --workload steady|storm|hetero_cold [--seed N]
//             [--seconds S] [--trace 0|1] [--spans-out FILE]
//   perfbench --selftest
//
// Every replay runs on a fresh scheduler (cold profile cache, as in a
// new pmemflowd process). The benchmark checks that every submission is
// either completed or dropped, that every replay of a stream yields the
// same schedule fingerprint, that a second (warm) run() on the same
// scheduler and the traced replays yield it too, and that the model
// still reproduces the paper's configuration winners on 15 of 18
// panels. Any failed check prints "correct": false and exits 1.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "layers.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace pmemflow;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Replays per run: the p25 of replay throughput then has at least ten
/// replays below it.
constexpr std::size_t kMinReplays = 40;
/// Set-ups before the replays. The untraced replays add one more per
/// kSetupIntervalSeconds, so the set-up times sample the whole run.
constexpr std::size_t kSetups = 5;
constexpr double kSetupIntervalSeconds = 1.0;
/// One reference second: about the CPU seconds reference_cpu_s() takes
/// on an unloaded 4-vCPU Intel Xeon virtual machine (12 to 14 ms).
constexpr double kReferenceSeconds = 0.013;
/// Traced (cold run + warm run) replays per traced run, at least, each
/// beside an untraced one.
constexpr std::size_t kMinTraced = 5;
/// Stop measuring after this long whatever the replay count, so a run
/// always ends well inside its time limit.
constexpr double kMeasureCapSeconds = 90.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string spans_out;
  bool selftest = false;
};

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds this process has run, all threads. The kernel leaves out
/// the time a virtual CPU waits for the host.
double process_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Accumulates correctness verdicts and the operation counts.
struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
};

/// Written with the reference computation's result, so that the
/// compiler keeps the computation.
volatile double reference_sink = 0.0;

/// Next value of a splitmix64 sequence.
std::uint64_t next_random(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// A fixed computation, independent of pmemflow, in three parts of
/// about equal time, each like one kind of work the program does: hash
/// map updates and heap pushes and pops (profile cache, event queue),
/// churn in an ordered set (the fleet's indexes) and a chain of
/// floating-point math (the model). Returns its CPU seconds, a reading
/// of the host's current speed (README.md, "Why throughput is counted
/// in reference units").
double reference_cpu_s() {
  const double start = process_cpu_s();
  std::uint64_t x = 1;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::priority_queue<std::uint64_t> heap;
  for (int i = 0; i < 35000; ++i) {
    const std::uint64_t value = next_random(x);
    map[value & 0x7fff] += value;
    heap.push(value);
    if (heap.size() > 8192) heap.pop();
  }
  std::set<std::uint64_t> nodes;
  for (int i = 0; i < 25000; ++i) {
    nodes.insert(next_random(x));
    if (nodes.size() > 16384) nodes.erase(nodes.begin());
  }
  double a = 1.0;
  double b = 0.5;
  for (int i = 0; i < 120000; ++i) {
    a = std::log(a + b) + std::exp(-a) / (1.0 + b);
    b = b * 0.999 + 0.001 * std::sqrt(a + 1.0);
  }
  reference_sink =
      a + b + static_cast<double>(map.size() + heap.top() + *nodes.begin());
  return process_cpu_s() - start;
}

/// One set-up: stream generation, backend resolution, scheduler
/// construction. Appends its time to `setups` in reference seconds: its
/// CPU seconds times kReferenceSeconds over the CPU seconds of the
/// reference computation, run right before and right after it.
Expected<Setup> set_up(const Workload& workload, std::uint64_t seed,
                       std::vector<double>& setups, SpanRecorder* recorder) {
  const double ref_before = reference_cpu_s();
  double setup_cpu_s = 0.0;
  auto made = [&] {
    ScopedSpan span(recorder, "setup");
    const double start = process_cpu_s();
    auto setup = make_setup(workload, seed);
    if (setup.has_value()) {
      auto scheduler = make_scheduler(*setup);
    }
    setup_cpu_s = process_cpu_s() - start;
    return setup;
  }();
  const double ref_s = 0.5 * (ref_before + reference_cpu_s());
  if (made.has_value()) {
    setups.push_back(setup_cpu_s * kReferenceSeconds / ref_s);
  }
  return made;
}

struct Replay {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  service::ServiceResult result;
  std::uint64_t fingerprint = 0;
};

/// One run() of a whole stream, timed; checks conservation. A run()
/// error counts every submission of the stream as failed.
std::optional<Replay> replay(service::OnlineScheduler& scheduler,
                             const std::vector<service::Submission>& stream,
                             Verdict& verdict, SpanRecorder* recorder,
                             const char* span_name) {
  verdict.attempted += stream.size();
  Replay out;
  Expected<service::ServiceResult> result = [&] {
    ScopedSpan span(recorder, span_name);
    const auto start = Clock::now();
    const double cpu_start = process_cpu_s();
    auto ran = scheduler.run(stream);
    out.cpu_s = process_cpu_s() - cpu_start;
    out.wall_s = since(start);
    return ran;
  }();
  if (!result.has_value()) {
    verdict.failed += stream.size();
    verdict.fail("run() failed: " + result.error().message);
    return std::nullopt;
  }
  out.result = std::move(*result);
  const service::ServiceMetrics& metrics = out.result.metrics;
  if (metrics.completed + metrics.dropped != stream.size()) {
    verdict.fail("completed + dropped != submissions");
  }
  out.fingerprint = schedule_fingerprint(out.result.completions);
  return out;
}

void expect_fingerprint(Verdict& verdict, std::uint64_t expected,
                        std::uint64_t actual, const char* what) {
  if (expected != actual) verdict.fail(std::string(what) + ": schedule differs");
}

/// Paper winner per panel (Figs 4-9, a-c), in workloads::full_suite()
/// order, and the panels where the model is known to pick another
/// configuration (EXPERIMENTS.md).
constexpr const char* kPanels[18] = {"4a", "4b", "4c", "5a", "5b", "5c",
                                     "6a", "6b", "6c", "7a", "7b", "7c",
                                     "8a", "8b", "8c", "9a", "9b", "9c"};
constexpr const char* kPaperWinners[18] = {
    "S-LocW", "S-LocW", "S-LocW", "P-LocR", "P-LocR", "S-LocR",
    "P-LocR", "S-LocR", "S-LocW", "P-LocR", "P-LocR", "S-LocW",
    "P-LocR", "S-LocR", "S-LocW", "P-LocW", "S-LocW", "S-LocW"};
const std::set<std::string> kKnownDeviations = {"6b", "7b", "9a"};

/// Sweeps the paper's 18-workflow suite and checks the winners.
void check_model(Verdict& verdict) {
  const core::Executor executor;
  const auto suite = workloads::full_suite();
  std::set<std::string> deviations;
  for (std::size_t i = 0; i < suite.size() && i < 18; ++i) {
    auto sweep = executor.sweep(suite[i]);
    if (!sweep.has_value()) {
      verdict.fail("model sweep failed: " + sweep.error().message);
      return;
    }
    if (sweep->best().config.label() != kPaperWinners[i]) {
      deviations.insert(kPanels[i]);
    }
  }
  std::cout << "model: " << 18 - deviations.size()
            << "/18 panels reproduce the paper's winner; deviations:";
  for (const std::string& panel : deviations) std::cout << " Fig " << panel;
  std::cout << "\n";
  if (suite.size() != 18 || deviations != kKnownDeviations) {
    verdict.fail("model winners differ from the recorded 15/18");
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(const Verdict& verdict, const Metrics& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("%-40s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              verdict.correct ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Scheduling quality of the first replay of each stream. A seed's
/// figure is the median over its streams, so one bursty stream does not
/// move it.
struct Quality {
  std::vector<double> makespan_s;
  std::vector<double> queue_delay_mean_s;
  std::vector<double> queue_delay_p99_s;
  std::vector<double> slowdown_mean;
  std::vector<double> completed_frac;

  void add(const std::vector<service::Submission>& stream,
           const service::ServiceMetrics& metrics) {
    makespan_s.push_back(static_cast<double>(metrics.makespan_ns) * 1e-9);
    queue_delay_mean_s.push_back(metrics.queue_delay_ns.mean * 1e-9);
    queue_delay_p99_s.push_back(metrics.queue_delay_ns.p99 * 1e-9);
    slowdown_mean.push_back(metrics.slowdown.mean);
    completed_frac.push_back(static_cast<double>(metrics.completed) /
                             static_cast<double>(stream.size()));
  }
};

/// Per-replay throughputs: submissions per reference unit (the CPU time
/// of reference_cpu_s() beside the replay), per CPU second and per host
/// second of run().
struct Throughputs {
  std::vector<double> per_ref;
  std::vector<double> per_cpu_s;
  std::vector<double> per_s;
};

/// Untraced replays, each on a fresh scheduler, cycling over the
/// streams. Stops once every stream has run, at least `min_replays`
/// replays have run and `seconds` have passed. Every replay of a
/// stream must match its first. Between replays the workload is set up
/// again once per kSetupIntervalSeconds, its times appended to `setups`.
Throughputs measure(const Workload& workload, std::uint64_t seed,
                    const Setup& setup, double seconds,
                    std::size_t min_replays, Verdict& verdict,
                    Quality& quality, std::vector<double>& setups) {
  Throughputs throughputs;
  std::vector<std::uint64_t> fingerprints;
  const std::size_t streams = setup.streams.size();
  const auto start = Clock::now();
  auto last_setup = start;
  double ref_before = reference_cpu_s();
  for (std::size_t i = 0; verdict.failed == 0; ++i) {
    const std::size_t k = i % streams;
    const auto& stream = setup.streams[k];
    auto scheduler = make_scheduler(setup);
    auto run = replay(*scheduler, stream, verdict, nullptr, "");
    if (!run.has_value()) return throughputs;
    // The reference runs right before and right after the replay.
    const double ref_after = reference_cpu_s();
    const double ref_s = 0.5 * (ref_before + ref_after);
    ref_before = ref_after;
    const auto submissions = static_cast<double>(stream.size());
    throughputs.per_ref.push_back(submissions * ref_s / run->cpu_s);
    throughputs.per_cpu_s.push_back(submissions / run->cpu_s);
    throughputs.per_s.push_back(submissions / run->wall_s);
    if (i < streams) {
      fingerprints.push_back(run->fingerprint);
      quality.add(stream, run->result.metrics);
    } else {
      expect_fingerprint(verdict, fingerprints[k], run->fingerprint,
                         "repeat replay");
    }
    if (since(last_setup) >= kSetupIntervalSeconds) {
      if (!set_up(workload, seed, setups, nullptr).has_value()) {
        verdict.fail("repeat set-up failed");
        return throughputs;
      }
      last_setup = Clock::now();
      ref_before = reference_cpu_s();
    }
    const double elapsed = since(start);
    if (i + 1 >= streams &&
        ((i + 1 >= min_replays && elapsed >= seconds) ||
         elapsed >= kMeasureCapSeconds)) {
      break;
    }
  }
  // Untimed: stream 0 again on a fresh scheduler (a repeat even when
  // one round was enough), then a second, warm run() on that scheduler.
  auto scheduler = make_scheduler(setup);
  for (const char* what : {"repeat replay", "warm run()"}) {
    auto again =
        replay(*scheduler, setup.streams.front(), verdict, nullptr, "");
    if (!again.has_value()) break;
    expect_fingerprint(verdict, fingerprints.front(), again->fingerprint, what);
  }
  return throughputs;
}

Metrics end_to_end(const std::vector<double>& setups,
                   const Throughputs& throughputs, const Quality& quality) {
  return {
      {"submissions_per_ref", median(throughputs.per_ref), "1/ref"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_makespan_s", median(quality.makespan_s), "s"},
      {"sim_queue_delay_mean_s", median(quality.queue_delay_mean_s), "s"},
      {"sim_queue_delay_p99_s", median(quality.queue_delay_p99_s), "s"},
      {"sim_slowdown_mean", median(quality.slowdown_mean), "ratio"},
      {"completed_frac", median(quality.completed_frac), "ratio"},
  };
}

Metrics per_layer(const std::vector<service::Submission>& stream,
                  const SpanRecorder& recorder,
                  const service::ServiceMetrics& cold, double baseline_s,
                  Metrics probes) {
  const auto submissions = static_cast<double>(stream.size());
  const double cold_s = median(recorder.durations("service.run_cold"));
  const double warm_s = median(recorder.durations("service.run_warm"));
  // The cold run's characterizations, at the probes' mean cost.
  const std::vector<double> characterize =
      recorder.durations("core.characterize");
  double characterize_sum_s = 0.0;
  for (const double seconds : characterize) characterize_sum_s += seconds;
  const double characterize_s =
      characterize.empty() ? 0.0
                           : static_cast<double>(cold.cache.misses) *
                                 characterize_sum_s /
                                 static_cast<double>(characterize.size());
  const auto attempts = static_cast<double>(
      cold.admission.admitted + cold.admission.deferred +
      cold.admission.rejected);
  Metrics out = {
      {"service.run_cold_s", cold_s, "s"},
      {"service.run_warm_s", warm_s, "s"},
      {"service.loop_ns_per_event",
       warm_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                          cold.des_events, 1)),
       "ns"},
      {"sim.des_events", static_cast<double>(cold.des_events), "count"},
      {"service.plans_per_submission",
       static_cast<double>(cold.plans) / submissions, "ratio"},
      {"service.admit_ratio",
       attempts == 0 ? 0.0
                     : static_cast<double>(cold.admission.admitted) / attempts,
       "ratio"},
      {"service.retries", static_cast<double>(cold.retries), "count"},
      {"core.characterize_calls", static_cast<double>(cold.cache.misses),
       "count"},
      {"core.characterize_s", characterize_s, "s"},
      {"pmemsim.rate_solves", static_cast<double>(cold.allocator.solves),
       "count"},
      {"pmemsim.memo_hit_rate", cold.allocator.hit_rate(), "ratio"},
      {"service.profile_lookups_per_submission",
       static_cast<double>(cold.cache.hits + cold.cache.misses) / submissions,
       "ratio"},
      {"service.profile_hit_rate", cold.cache.hit_rate(), "ratio"},
      {"service.unattributed_s", cold_s - warm_s - characterize_s, "s"},
      {"trace_overhead_frac", cold_s / baseline_s - 1.0, "ratio"},
  };
  out.insert(out.end(), probes.begin(), probes.end());
  return out;
}

/// The traced run: per-layer metrics of the first stream. Untraced
/// replays give the baseline; traced ones (a cold and then a warm run()
/// on one scheduler) must reproduce its schedule.
Metrics measure_layers(const Setup& setup, double seconds, Verdict& verdict,
                       SpanRecorder& recorder) {
  const auto& stream = setup.streams.front();
  std::vector<double> baseline;
  std::uint64_t fingerprint = 0;
  std::optional<service::ServiceMetrics> cold_metrics;
  const auto start = Clock::now();
  // Untraced and traced replays alternate, so both see the same host.
  for (std::size_t i = 0; verdict.failed == 0; ++i) {
    const double elapsed = since(start);
    if ((i >= kMinTraced && elapsed >= seconds) ||
        elapsed >= kMeasureCapSeconds) {
      break;
    }
    // Untraced, then traced: each side replays cold and then warm on one
    // scheduler, so both cold replays follow the same allocation history.
    SpanRecorder* const sides[] = {nullptr, &recorder};
    for (SpanRecorder* spans : sides) {
      ScopedSpan span(spans, "service.replay");
      auto scheduler = make_scheduler(setup);
      auto cold = replay(*scheduler, stream, verdict, spans, "service.run_cold");
      if (!cold.has_value()) return {};
      auto warm = replay(*scheduler, stream, verdict, spans, "service.run_warm");
      if (!warm.has_value()) return {};
      if (i == 0 && spans == nullptr) fingerprint = cold->fingerprint;
      expect_fingerprint(verdict, fingerprint, cold->fingerprint,
                         spans == nullptr ? "repeat replay" : "traced replay");
      expect_fingerprint(verdict, fingerprint, warm->fingerprint, "warm run()");
      if (spans == nullptr) {
        baseline.push_back(cold->wall_s);
      } else if (!cold_metrics.has_value()) {
        cold_metrics = cold->result.metrics;
      }
    }
  }
  if (!cold_metrics.has_value()) return {};

  auto probes = probe_layers(setup, recorder);
  if (!probes.has_value()) {
    verdict.fail("layer probe failed: " + probes.error().message);
    return {};
  }
  return per_layer(stream, recorder, *cold_metrics, median(baseline),
                   std::move(*probes));
}

int run_benchmark(const Options& options) {
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  Verdict verdict;
  std::optional<SpanRecorder> recorder;
  if (options.trace) recorder.emplace();
  SpanRecorder* spans = recorder.has_value() ? &*recorder : nullptr;

  std::vector<double> setups;
  std::optional<Setup> setup;
  for (std::size_t i = 0; i < kSetups; ++i) {
    auto made = set_up(*workload, options.seed, setups, spans);
    if (!made.has_value()) {
      std::cerr << "perfbench: setup failed: " << made.error().message << "\n";
      return 1;
    }
    setup = std::move(*made);
  }

  Metrics metrics;
  if (options.trace) {
    metrics = measure_layers(*setup, options.seconds, verdict, *recorder);
    if (!options.spans_out.empty()) {
      std::ofstream out(options.spans_out);
      recorder->write_json(out);
      if (!out) verdict.fail("cannot write " + options.spans_out);
    }
  } else {
    Quality quality;
    const Throughputs throughputs =
        measure(*workload, options.seed, *setup, options.seconds,
                kMinReplays, verdict, quality, setups);
    if (verdict.failed == 0) {
      // Printed, not gated: the tail, and throughput per second, move
      // with the neighbours' load on a shared host.
      const std::size_t replays = throughputs.per_ref.size();
      std::printf("replays %zu; submissions_per_ref p25 %.6g 1/ref "
                  "(%zu below); per CPU second median %.6g p25 %.6g 1/s; "
                  "per host second median %.6g p25 %.6g 1/s\n",
                  replays, percentile(throughputs.per_ref, 25.0), replays / 4,
                  median(throughputs.per_cpu_s),
                  percentile(throughputs.per_cpu_s, 25.0),
                  median(throughputs.per_s), percentile(throughputs.per_s, 25.0));
      metrics = end_to_end(setups, throughputs, quality);
    }
  }

  check_model(verdict);
  if (metrics.empty()) verdict.fail("no metrics measured");
  print_result(verdict, metrics);
  return verdict.correct ? 0 : 1;
}

/// The benchmark's own test: a seed fixes the streams and the schedule,
/// and another seed gives other streams.
int selftest() {
  bool ok = true;
  for (const Workload& workload : all_workloads()) {
    auto a = make_setup(workload, 1);
    auto b = make_setup(workload, 1);
    auto c = make_setup(workload, 2);
    if (!a.has_value() || !b.has_value() || !c.has_value()) {
      std::cerr << workload.name << ": setup failed\n";
      return 1;
    }
    Verdict verdict;
    auto run_a = replay(*make_scheduler(*a), a->streams[0], verdict, nullptr,
                        "");
    auto run_b = replay(*make_scheduler(*b), b->streams[0], verdict, nullptr,
                        "");
    bool same_seed = run_a.has_value() && run_b.has_value() &&
                     verdict.correct && run_a->fingerprint == run_b->fingerprint;
    bool other_seed = true;
    for (std::size_t k = 0; k < a->streams.size(); ++k) {
      const std::uint64_t stream_a = stream_fingerprint(a->streams[k]);
      same_seed = same_seed && stream_a == stream_fingerprint(b->streams[k]);
      other_seed = other_seed && stream_a != stream_fingerprint(c->streams[k]);
    }
    std::cout << workload.name << ": same seed, same schedule: "
              << (same_seed ? "ok" : "FAIL")
              << "; other seed, other stream: "
              << (other_seed ? "ok" : "FAIL") << "\n";
    ok = ok && same_seed && other_seed;
  }
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      options.selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (!(options.seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (arg == "--spans-out") {
      options.spans_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return options.selftest || !options.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload steady|storm|hetero_cold "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans-out FILE]\n"
                 "       perfbench --selftest\n";
    return 2;
  }
  return options.selftest ? selftest() : run_benchmark(options);
}
