#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "core/config.hpp"
#include "service/fleet.hpp"
#include "service/profile_cache.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

using namespace pmemflow;

namespace {

/// Host time each batched probe spends per layer call site.
constexpr double kBatchSeconds = 0.1;

/// Keeps probed results observable so no call is optimised away.
volatile std::uint64_t g_sink = 0;

/// One (class, backend) profile: the unit the profile cache keys on.
struct Pair {
  const workflow::WorkflowSpec* spec;
  const devices::NodeDevices* backend;
};

/// Repeats `batch` (which makes `calls` layer calls) inside one span
/// named `name` until kBatchSeconds have passed; returns host seconds
/// per call.
template <typename Batch>
double seconds_per_call(SpanRecorder& recorder, const std::string& name,
                        std::size_t calls, Batch&& batch) {
  std::size_t total_calls = 0;
  const std::size_t index = recorder.begin(name);
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    batch();
    total_calls += calls;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < kBatchSeconds);
  recorder.end(index);
  return recorder.spans()[index].seconds() / static_cast<double>(total_calls);
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

Expected<Metrics> probe_layers(const Setup& setup, SpanRecorder& recorder) {
  Metrics out;
  const bool heterogeneous = !setup.config.node_specs.empty();
  const std::vector<service::Submission>& stream = setup.streams.front();
  const std::vector<workflow::WorkflowSpec> classes = distinct_classes(stream);
  std::vector<Pair> pairs;
  for (const devices::NodeDevices& backend : setup.backends) {
    for (const workflow::WorkflowSpec& spec : classes) {
      pairs.push_back(Pair{&spec, &backend});
    }
  }

  // core -> workflow -> sim -> pmemsim -> devices/stack: one fresh
  // characterization per (class, backend) the run profiles.
  service::ProfileCache cache(setup.config.cache_capacity, setup.executor);
  {
    ScopedSpan layer(&recorder, "layer.core");
    for (const Pair& pair : pairs) {
      ScopedSpan span(&recorder, "core.characterize");
      auto profile = heterogeneous
                         ? cache.characterize(*pair.spec, *pair.backend)
                         : cache.characterize(*pair.spec);
      if (!profile.has_value()) return Unexpected{profile.error()};
    }
  }
  const std::vector<double> characterize =
      recorder.durations("core.characterize");
  out.push_back({"core.characterize_ms_p50",
                 percentile(characterize, 50.0) * 1e3, "ms"});
  out.push_back({"core.characterize_ms_p90",
                 percentile(characterize, 90.0) * 1e3, "ms"});

  // workflow: one Executor::execute per Table I configuration.
  {
    ScopedSpan layer(&recorder, "layer.workflow");
    for (const devices::NodeDevices& backend : setup.backends) {
      const core::Executor executor{
          workflow::Runner(topo::PlatformSpec{}, backend)};
      for (const workflow::WorkflowSpec& spec : classes) {
        for (const core::DeploymentConfig& config : core::all_configs()) {
          ScopedSpan span(&recorder, "workflow.execute." + config.label());
          auto result = executor.execute(spec, config);
          if (!result.has_value()) return Unexpected{result.error()};
        }
      }
    }
  }
  for (const core::DeploymentConfig& config : core::all_configs()) {
    out.push_back(
        {"workflow.run_ms_p50." + config.label(),
         percentile(recorder.durations("workflow.execute." + config.label()),
                    50.0) *
             1e3,
         "ms"});
  }

  // Profile-cache hit path, as the service's region calls it: keyed by
  // class only on a homogeneous fleet, by (class, backend) otherwise.
  auto lookup = [&](const Pair& pair) {
    return heterogeneous ? cache.lookup(*pair.spec, *pair.backend)
                         : cache.lookup(*pair.spec);
  };
  for (const Pair& pair : pairs) {
    auto profile = lookup(pair);
    if (!profile.has_value()) return Unexpected{profile.error()};
  }
  const double hit_s = seconds_per_call(
      recorder, "service.profile_hit", pairs.size(), [&] {
        for (const Pair& pair : pairs) {
          g_sink = g_sink + (*lookup(pair))->fingerprint;
        }
      });
  out.push_back({"service.profile_hit_us", hit_s * 1e6, "us"});

  const double device_fp_s = seconds_per_call(
      recorder, "devices.fingerprint", setup.backends.size(), [&] {
        for (const devices::NodeDevices& backend : setup.backends) {
          g_sink = g_sink + backend.fingerprint();
        }
      });
  out.push_back({"devices.fingerprint_us", device_fp_s * 1e6, "us"});

  const double class_fp_s = seconds_per_call(
      recorder, "workflow.class_fingerprint", classes.size(), [&] {
        for (const workflow::WorkflowSpec& spec : classes) {
          g_sink = g_sink + workflow::class_fingerprint(spec);
        }
      });
  out.push_back({"workflow.class_fingerprint_us", class_fp_s * 1e6, "us"});

  // sim: schedule + pop at the replay's mean live depth. Every arrival
  // is seeded up front, so the queue drains from the stream size to 0.
  {
    sim::EventQueue queue;
    Xoshiro256 rng(derive_seed(stream.size(), 0x6576656e74ULL));
    const SimTime horizon = stream.empty() ? 1 : stream.back().arrival_ns + 1;
    const std::array<std::uint64_t, 8> payload{};
    auto callback = [payload] { g_sink = g_sink + payload[0]; };
    for (std::size_t i = 0; i < stream.size() / 2; ++i) {
      queue.schedule(rng.below(horizon), callback);
    }
    constexpr std::size_t kOps = 4096;
    const double op_s =
        seconds_per_call(recorder, "sim.event_queue", kOps, [&] {
          for (std::size_t i = 0; i < kOps; ++i) {
            auto [when, fired] = queue.pop();
            queue.schedule(when + rng.below(horizon), callback);
          }
        });
    out.push_back({"sim.event_queue_ns_per_op", op_s * 1e9, "ns"});
  }

  // service admission: the retry-after hint on a fully busy fleet.
  {
    service::Fleet fleet(setup.config.nodes);
    for (std::uint32_t node = 0; node < fleet.size(); ++node) {
      fleet.start(service::SlotRef{node, 0}, 0, 1000 + node,
                  service::RunningTask{});
    }
    constexpr std::size_t kCalls = 4096;
    const double free_s =
        seconds_per_call(recorder, "service.earliest_free", kCalls, [&] {
          for (std::size_t i = 0; i < kCalls; ++i) {
            g_sink = g_sink + fleet.earliest_free_ns();
          }
        });
    out.push_back({"service.earliest_free_us", free_s * 1e6, "us"});
  }
  return out;
}

}  // namespace perfbench
