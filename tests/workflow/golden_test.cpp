// Absolute replay pins for the workflow engine.
//
// Every other runner test checks relations (staging shortens the writer
// span, co-location interferes, a chain DAG equals its pair). These
// pin the exact numbers: end-to-end and writer/producer span, DES event
// counts, channel, device and staging stats, GC and resident bytes, over
// pair runs (serial/parallel x nvstream/nova x plain/staging/retention/
// bounded capacity), a two-tenant co-located run on a shared staged
// socket, and the fan-out DAG under both planners. Three FNV digests
// pin the Chrome-trace JSON of a traced pair, co-located and DAG run,
// so span names, track names and event order are pinned too.
//
// The constants were recorded once and are never edited: a change to
// the engine that moves any of them changed the schedule.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "dag/plan.hpp"
#include "dag/runner.hpp"
#include "workflow/runner.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::workflow {
namespace {

using Stack = WorkflowSpec::Stack;

unsigned long long ull(std::uint64_t value) {
  return static_cast<unsigned long long>(value);
}

WorkflowSpec pair_spec(Stack stack, std::uint64_t seed = 7) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 2 * kMiB;
  sim.objects_per_rank = 8;
  sim.compute_ns = 4e6;
  sim.seed = seed;
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = 3000.0;
  auto spec = workloads::make_synthetic_workflow(sim, analytics, 4, 6, stack);
  spec.label = "golden";
  return spec;
}

capacity::StagingParams staging() {
  capacity::StagingParams params;
  params.stage_bytes = 24 * kMiB;  // about 1.5 parts: hits and throttles
  return params;
}

std::string describe(const stack::ChannelStats& ch) {
  return format("ch=%llu/%llu/%llu/%llu/%llu/%llu/%llu/%llu",
                ull(ch.objects_written), ull(ch.objects_read),
                ull(ch.payload_bytes_written), ull(ch.payload_bytes_read),
                ull(ch.versions_committed), ull(ch.versions_recycled),
                ull(ch.checksum_failures), ull(ch.bytes_reclaimed));
}

std::string describe(const sim::FlowResourceStats& dev) {
  return format("dev=%llu/%.17g/%.17g/%.17g/%llu/%.17g/%.17g",
                ull(dev.flows_completed), dev.bytes_read, dev.bytes_written,
                dev.bytes_remote, ull(dev.peak_concurrency),
                dev.concurrency_time_integral, dev.busy_time);
}

std::string describe(const capacity::StagingStats& stg) {
  return format("stg=%llu/%llu/%llu/%llu", ull(stg.writes), ull(stg.hits),
                ull(stg.bytes_staged), ull(stg.bytes_throttled));
}

std::string describe(const RunResult& run) {
  return format("total=%llu span=%llu events=%llu verified=%llu/%llu ",
                ull(run.total_ns), ull(run.writer_span_ns),
                ull(run.engine_events), ull(run.objects_verified),
                ull(run.verification_failures)) +
         describe(run.channel) + " " + describe(run.device) + " " +
         describe(run.staging) +
         format(" gc=%llu res=%llu", ull(run.gc_bytes),
                ull(run.resident_bytes));
}

std::string describe(const dag::DagRunResult& run) {
  std::string out = format(
      "total=%llu span=%llu events=%llu verified=%llu/%llu ephemeral=%llu",
      ull(run.total_ns), ull(run.producer_span_ns), ull(run.engine_events),
      ull(run.objects_verified), ull(run.verification_failures),
      ull(run.ephemeral_edges));
  for (const auto& edge : run.edges) {
    out += ' ';
    out += describe(edge);
  }
  for (const auto& [socket, device] : run.devices) {
    out += format(" s%u:", socket) + describe(device);
  }
  return out + " " + describe(run.staging);
}

std::uint64_t trace_digest(const trace::Tracer& tracer) {
  std::ostringstream json;
  tracer.write_chrome_trace(json);
  Hasher64 hasher;
  hasher.update_string(json.str());
  return hasher.digest();
}

enum class Variant { kPlain, kStaging, kRetention, kBounded };

struct PairCase {
  bool serial;
  Stack stack;
  Variant variant;
  const char* expected;
};

Expected<RunResult> run_pair(const PairCase& c, trace::Tracer* tracer) {
  WorkflowSpec spec = pair_spec(c.stack);
  RunOptions options;
  options.serial = c.serial;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = c.serial ? 0 : 1;
  options.tracer = tracer;
  switch (c.variant) {
    case Variant::kPlain: break;
    case Variant::kStaging: options.staging = staging(); break;
    case Variant::kRetention:
      options.retention.retain_versions = 2;
      options.retention.gc = true;
      break;
    case Variant::kBounded:
      // Serial mode keeps every version live, so its bound is the
      // iteration count; parallel mode throttles the writers to two.
      spec.channel_capacity = c.serial ? spec.iterations : 2;
      break;
  }
  return Runner().run(spec, options);
}

const PairCase kPairCases[] = {
    {true, Stack::kNvStream, Variant::kPlain,
     "total=99597828 span=53670276 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/402655488"
     " dev=48/402653184/402653184/402653184/4/398391312/99597828"
     " stg=0/0/0/0 gc=0 res=0"},
    {true, Stack::kNvStream, Variant::kStaging,
     "total=82114563 span=36187011 events=196 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/402655488"
     " dev=48/402653184/402653183.99999994/402653184/5/302913016/77904847"
     " stg=24/6/125829120/276824064 gc=0 res=0"},
    {true, Stack::kNvStream, Variant::kRetention,
     "total=123951011 span=53670276 events=120 verified=192/0"
     " ch=192/192/402653184/402653184/6/4/0/268436992"
     " dev=52/402653184/671090176/402653184/7/623168865/143286082"
     " stg=0/0/0/0 gc=268436992 res=134216192"},
    {true, Stack::kNvStream, Variant::kBounded,
     "total=99597828 span=53670276 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/402655488"
     " dev=48/402653184/402653184/402653184/4/398391312/99597828"
     " stg=0/0/0/0 gc=0 res=0"},
    {true, Stack::kNova, Variant::kPlain,
     "total=100894926 span=54684144 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/0"
     " dev=48/402653184/402653184/402653184/4/403579704/100894926"
     " stg=0/0/0/0 gc=0 res=402653184"},
    {true, Stack::kNova, Variant::kStaging,
     "total=82579403 span=36368621 events=193 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/0"
     " dev=48/402653184/402653183.99999988/402653184/8/312137689/78276717"
     " stg=24/3/75497472/327155712 gc=0 res=402653184"},
    {true, Stack::kNova, Variant::kRetention,
     "total=100894926 span=54684144 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/4/0/0"
     " dev=48/402653184/402653184/402653184/4/403579704/100894926"
     " stg=0/0/0/0 gc=0 res=402653184"},
    {true, Stack::kNova, Variant::kBounded,
     "total=100894926 span=54684144 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/0"
     " dev=48/402653184/402653184/402653184/4/403579704/100894926"
     " stg=0/0/0/0 gc=0 res=402653184"},
    {false, Stack::kNvStream, Variant::kPlain,
     "total=92654087 span=85249200 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/402655488"
     " dev=48/402653184/402653184/402653184/8/675830828/92654087"
     " stg=0/0/0/0 gc=0 res=0"},
    {false, Stack::kNvStream, Variant::kStaging,
     "total=88239120 span=64678025 events=200 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/402655488"
     " dev=48/402653184.00000012/402653183.99999976/0/20/962308921/84029404"
     " stg=24/3/67108864/335544320 gc=0 res=0"},
    {false, Stack::kNvStream, Variant::kRetention,
     "total=102788752 span=87027321 events=124 verified=192/0"
     " ch=192/192/402653184/402653184/6/4/0/268436992"
     " dev=52/402653184/671090176.00000012/402653184/10/852420649/122123824"
     " stg=0/0/0/0 gc=268436992 res=134216192"},
    {false, Stack::kNvStream, Variant::kBounded,
     "total=92654090 span=85270932 events=125 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/402655488"
     " dev=48/402653184/402653184/402653184/8/675830840/92654090"
     " stg=0/0/0/0 gc=0 res=0"},
    {false, Stack::kNova, Variant::kPlain,
     "total=93464781 span=85909388 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/0"
     " dev=48/402653184/402653184/402653184/8/681038444/93464781"
     " stg=0/0/0/0 gc=0 res=402653184"},
    {false, Stack::kNova, Variant::kStaging,
     "total=89062607 span=65312714 events=199 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/0"
     " dev=48/402653184/402653183.99999923/0/20/981923323/84852891"
     " stg=24/2/50331648/352321536 gc=0 res=402653184"},
    {false, Stack::kNova, Variant::kRetention,
     "total=93464781 span=85909388 events=108 verified=192/0"
     " ch=192/192/402653184/402653184/6/4/0/0"
     " dev=48/402653184/402653184/402653184/8/681038444/93464781"
     " stg=0/0/0/0 gc=0 res=402653184"},
    {false, Stack::kNova, Variant::kBounded,
     "total=93464782 span=86011848 events=125 verified=192/0"
     " ch=192/192/402653184/402653184/6/6/0/0"
     " dev=48/402653184/402653184/402653184/8/681038448/93464782"
     " stg=0/0/0/0 gc=0 res=402653184"},
};

TEST(EngineGolden, PairRunsReplayPinnedNumbers) {
  for (std::size_t i = 0; i < std::size(kPairCases); ++i) {
    const PairCase& c = kPairCases[i];
    auto run = run_pair(c, nullptr);
    ASSERT_TRUE(run.has_value()) << run.error().message;
    EXPECT_EQ(describe(*run), c.expected) << "pair case " << i;
  }
}

// Tenant 0 runs parallel nvstream with a two-version bound; tenant 1
// runs serial nova with retain-2 GC. Both channels share socket 0 and
// its staging tier.
std::vector<Deployment> colocated_tenants(trace::Tracer* tracer) {
  Deployment first{pair_spec(Stack::kNvStream, 11), {}};
  first.spec.channel_capacity = 2;
  first.options.staging = staging();
  first.options.tracer = tracer;
  Deployment second{pair_spec(Stack::kNova, 12), {}};
  second.spec.ranks = 3;
  second.options.serial = true;
  second.options.staging = staging();
  second.options.retention.retain_versions = 2;
  second.options.tracer = tracer;
  return {first, second};
}

TEST(EngineGolden, ColocatedRunReplaysPinnedNumbers) {
  const auto tenants = colocated_tenants(nullptr);
  auto run = Runner().run_colocated(tenants);
  ASSERT_TRUE(run.has_value()) << run.error().message;
  ASSERT_EQ(run->workflows.size(), 2u);
  EXPECT_EQ(run->makespan_ns, 134771028u);
  EXPECT_EQ(describe(run->workflows[0]),
            "total=123087618 span=113155313 events=368 verified=192/0"
            " ch=192/192/402653184/402653184/6/6/0/402655488"
            " dev=84/704643071.99999952/704643071.99999976/704643071.99999952/23/1631143142/130561312"
            " stg=42/5/125829120/578813952 gc=0 res=0");
  EXPECT_EQ(describe(run->workflows[1]),
            "total=134771028 span=68895428 events=368 verified=144/0"
            " ch=144/144/301989888/301989888/6/4/0/0"
            " dev=84/704643071.99999952/704643071.99999976/704643071.99999952/23/1631143142/130561312"
            " stg=42/5/125829120/578813952 gc=0 res=301989888");
}

dag::DagSpec fanout() {
  dag::DagSpec spec;
  spec.label = "fanout";
  spec.iterations = 3;
  dag::DagComponent sim;
  sim.name = "sim";
  sim.ranks = 4;
  sim.object_size = 4 * kMiB;
  sim.objects_per_rank = 4;
  sim.compute_ns = 2e7;
  dag::DagComponent stats;
  stats.name = "stats";
  stats.ranks = 4;
  stats.analytics_ns_per_object = 1500.0;
  dag::DagComponent viz = stats;
  viz.name = "viz";
  viz.analytics_ns_per_object = 4000.0;
  spec.components = {sim, stats, viz};
  spec.edges = {dag::DagEdge{"sim", "stats", Stack::kNvStream, 2},
                dag::DagEdge{"sim", "viz", Stack::kNova, 0}};
  return spec;
}

Expected<dag::DagRunResult> run_fanout(bool fusion, bool staged,
                                       trace::Tracer* tracer) {
  const auto spec = fanout();
  const topo::PlatformSpec platform;
  auto plan = fusion ? dag::plan_fusion(spec, platform)
                     : dag::plan_spread(spec, platform);
  if (!plan.has_value()) return Unexpected{plan.error()};
  dag::DagRunOptions options = plan->run_options();
  if (staged) options.staging = staging();
  options.tracer = tracer;
  return dag::run(Runner(platform), spec, options);
}

TEST(EngineGolden, FanoutDagReplaysPinnedNumbers) {
  auto spread = run_fanout(false, true, nullptr);
  ASSERT_TRUE(spread.has_value()) << spread.error().message;
  EXPECT_EQ(describe(*spread),
            "total=84286584 span=76899140 events=210 verified=96/0"
            " ephemeral=0 ch=48/48/201326592/201326592/3/3/0/201327744"
            " ch=48/48/201326592/201326592/3/3/0/0"
            " s1:dev=48/402653184/402653183.99999982/0/8/405121794/57746676"
            " stg=24/3/75497472/327155712");
  auto fused = run_fanout(true, true, nullptr);
  ASSERT_TRUE(fused.has_value()) << fused.error().message;
  EXPECT_EQ(describe(*fused),
            "total=84286584 span=76899140 events=210 verified=96/0"
            " ephemeral=2 ch=48/48/201326592/201326592/3/3/0/201327744"
            " ch=48/48/201326592/201326592/3/3/0/0"
            " s0:dev=48/402653184/402653183.99999982/0/8/405121794/57746676"
            " stg=24/3/75497472/327155712");
  // Staging drains from the channel socket, which hides the cut edges'
  // remote writes; the unstaged spread run pins that path.
  auto cut = run_fanout(false, false, nullptr);
  ASSERT_TRUE(cut.has_value()) << cut.error().message;
  EXPECT_EQ(describe(*cut),
            "total=130494717 span=123107275 events=136 verified=96/0"
            " ephemeral=0 ch=48/48/201326592/201326592/3/3/0/201327744"
            " ch=48/48/201326592/201326592/3/3/0/0"
            " s1:dev=48/402653184/402653184/402653184/8/794897192/130494717"
            " stg=0/0/0/0");
}

TEST(EngineGolden, ChromeTracesArePinned) {
  trace::Tracer pair;
  ASSERT_TRUE(
      run_pair({false, Stack::kNova, Variant::kStaging, ""}, &pair).has_value());
  EXPECT_EQ(trace_digest(pair), 11559514868584561602ull);

  trace::Tracer colocated;
  ASSERT_TRUE(Runner().run_colocated(colocated_tenants(&colocated)).has_value());
  EXPECT_EQ(trace_digest(colocated), 15998431563344445123ull);

  trace::Tracer fused;
  ASSERT_TRUE(run_fanout(true, true, &fused).has_value());
  EXPECT_EQ(trace_digest(fused), 8830748769749832974ull);
}

}  // namespace
}  // namespace pmemflow::workflow
