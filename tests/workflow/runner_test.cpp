#include "workflow/runner.hpp"

#include <gtest/gtest.h>

#include "workloads/analytics.hpp"
#include "workloads/microbench.hpp"

namespace pmemflow::workflow {
namespace {

WorkflowSpec small_spec(std::uint32_t ranks = 4,
                        std::uint32_t iterations = 3) {
  workloads::MicroSimulation::Params params;
  params.object_size = 64 * kKB;
  params.snapshot_bytes_per_rank = 1 * kMB;
  WorkflowSpec spec;
  spec.label = "test";
  spec.simulation =
      std::make_shared<const workloads::MicroSimulation>(params);
  spec.analytics = workloads::readonly_analytics();
  spec.ranks = ranks;
  spec.iterations = iterations;
  return spec;
}

RunOptions options_for(bool serial, bool local_write) {
  RunOptions options;
  options.serial = serial;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = local_write ? 0u : 1u;
  return options;
}

TEST(Runner, CompletesAndMovesAllData) {
  Runner runner;
  const auto spec = small_spec();
  auto result = runner.run(spec, options_for(true, true));
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->total_ns, 0u);
  // Snapshots truncate to whole objects: 15 x 64 kB = 960 kB per rank
  // per iteration, times 4 ranks x 3 iterations.
  const Bytes expected_bytes = 15ull * 64 * kKB * 4 * 3;
  EXPECT_EQ(result->channel.payload_bytes_written, expected_bytes);
  EXPECT_EQ(result->channel.payload_bytes_read, expected_bytes);
  EXPECT_EQ(result->channel.versions_committed, 3u);
  EXPECT_EQ(result->channel.versions_recycled, 3u);
  EXPECT_EQ(result->channel.checksum_failures, 0u);
}

TEST(Runner, VerifiesEveryObject) {
  Runner runner;
  const auto spec = small_spec();
  auto result = runner.run(spec, options_for(false, false));
  ASSERT_TRUE(result.has_value());
  // 1 MB / 64 KB = 15 objects per rank-iteration (integer division).
  const std::uint64_t expected = 15ull * 4 * 3;
  EXPECT_EQ(result->objects_verified, expected);
  EXPECT_EQ(result->verification_failures, 0u);
}

TEST(Runner, SerialWriterSpanPrecedesReaders) {
  Runner runner;
  const auto spec = small_spec();
  auto result = runner.run(spec, options_for(true, true));
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->writer_span_ns, 0u);
  EXPECT_GT(result->total_ns, result->writer_span_ns);
  EXPECT_GT(result->reader_span_ns(), 0u);
}

TEST(Runner, ParallelOverlapsAndIsFasterForThisWorkload) {
  // A pure-I/O workload at trivially low concurrency: parallel must
  // overlap reader time under writer time.
  Runner runner;
  auto spec = small_spec(/*ranks=*/2, /*iterations=*/5);
  auto serial = runner.run(spec, options_for(true, true));
  auto parallel = runner.run(spec, options_for(false, true));
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_LT(parallel->total_ns, serial->total_ns);
}

TEST(Runner, DeterministicAcrossRuns) {
  Runner runner;
  const auto spec = small_spec();
  auto a = runner.run(spec, options_for(false, true));
  auto b = runner.run(spec, options_for(false, true));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->total_ns, b->total_ns);
  EXPECT_EQ(a->engine_events, b->engine_events);
}

TEST(Runner, PlacementChangesRuntime) {
  Runner runner;
  auto spec = small_spec(8, 5);
  auto local_write = runner.run(spec, options_for(true, true));
  auto local_read = runner.run(spec, options_for(true, false));
  ASSERT_TRUE(local_write.has_value());
  ASSERT_TRUE(local_read.has_value());
  EXPECT_NE(local_write->total_ns, local_read->total_ns);
}

TEST(Runner, NovaStackWorksEndToEnd) {
  Runner runner;
  auto spec = small_spec();
  spec.stack = WorkflowSpec::Stack::kNova;
  auto result = runner.run(spec, options_for(false, false));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->verification_failures, 0u);
  EXPECT_EQ(result->channel.versions_recycled, 3u);
}

TEST(Runner, NovaSlowerThanNvstreamSameWorkload) {
  Runner runner;
  auto spec = small_spec(4, 3);
  auto nvstream = runner.run(spec, options_for(true, true));
  spec.stack = WorkflowSpec::Stack::kNova;
  auto nova = runner.run(spec, options_for(true, true));
  ASSERT_TRUE(nvstream.has_value());
  ASSERT_TRUE(nova.has_value());
  EXPECT_GT(nova->total_ns, nvstream->total_ns);
}

TEST(Runner, CostOverrideChangesRuntime) {
  Runner runner;
  auto spec = small_spec();
  auto baseline = runner.run(spec, options_for(true, true));
  stack::SoftwareCostModel expensive;
  expensive.write_ns_per_op = 100000.0;
  expensive.read_ns_per_op = 100000.0;
  spec.cost_override = expensive;
  auto slowed = runner.run(spec, options_for(true, true));
  ASSERT_TRUE(baseline.has_value());
  ASSERT_TRUE(slowed.has_value());
  EXPECT_GT(slowed->total_ns, baseline->total_ns);
}

TEST(Runner, RejectsSameSocketDeployment) {
  Runner runner;
  RunOptions options;
  options.writer_socket = 0;
  options.reader_socket = 0;
  auto result = runner.run(small_spec(), options);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("distinct sockets"),
            std::string::npos);
}

TEST(Runner, RejectsChannelOnThirdSocket) {
  topo::PlatformSpec platform;
  platform.sockets = 4;
  Runner runner(platform);
  RunOptions options;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = 2;
  auto result = runner.run(small_spec(), options);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("local to one"), std::string::npos);
}

TEST(Runner, RejectsTooManyRanks) {
  Runner runner;
  auto result = runner.run(small_spec(/*ranks=*/29),
                           options_for(true, true));
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("exceed"), std::string::npos);
}

TEST(Runner, RejectsMissingModels) {
  Runner runner;
  WorkflowSpec spec;
  spec.ranks = 2;
  spec.iterations = 1;
  auto result = runner.run(spec, options_for(true, true));
  ASSERT_FALSE(result.has_value());
}

TEST(Runner, RejectsZeroRanksOrIterations) {
  Runner runner;
  auto spec = small_spec();
  spec.ranks = 0;
  EXPECT_FALSE(runner.run(spec, options_for(true, true)).has_value());
  spec = small_spec();
  spec.iterations = 0;
  EXPECT_FALSE(runner.run(spec, options_for(true, true)).has_value());
}

TEST(Runner, BoundedCapacityThrottlesParallelPipeline) {
  // With capacity 1 the writer cannot run ahead of the reader, so a
  // parallel run degrades toward lockstep; unbounded overlap is faster.
  Runner runner;
  auto spec = small_spec(/*ranks=*/4, /*iterations=*/6);
  auto unbounded = runner.run(spec, options_for(false, true));
  spec.channel_capacity = 1;
  auto bounded = runner.run(spec, options_for(false, true));
  ASSERT_TRUE(unbounded.has_value());
  ASSERT_TRUE(bounded.has_value());
  EXPECT_GT(bounded->total_ns, unbounded->total_ns);
  // Data still flows completely and verifies.
  EXPECT_EQ(bounded->verification_failures, 0u);
  EXPECT_EQ(bounded->channel.versions_recycled, 6u);
}

TEST(Runner, LargeCapacityMatchesUnbounded) {
  Runner runner;
  auto spec = small_spec(4, 3);
  auto unbounded = runner.run(spec, options_for(false, true));
  spec.channel_capacity = 16;  // more than iterations: never binds
  auto bounded = runner.run(spec, options_for(false, true));
  ASSERT_TRUE(unbounded.has_value());
  ASSERT_TRUE(bounded.has_value());
  EXPECT_EQ(bounded->total_ns, unbounded->total_ns);
}

TEST(Runner, SerialRejectsTooSmallCapacity) {
  Runner runner;
  auto spec = small_spec(4, 3);
  spec.channel_capacity = 2;  // < iterations
  auto result = runner.run(spec, options_for(true, true));
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("deadlock"), std::string::npos);
}

TEST(Runner, SerialAcceptsCapacityCoveringAllIterations) {
  Runner runner;
  auto spec = small_spec(4, 3);
  spec.channel_capacity = 3;
  auto result = runner.run(spec, options_for(true, true));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->channel.versions_recycled, 3u);
}

// A three-stage chain job straight on the engine: the middle stage
// consumes each version, then produces it for the sink.
Job chain_job(bool serial) {
  const auto spec = small_spec(4, 3);
  Job job;
  job.iterations = spec.iterations;
  job.serial = serial;
  job.components = {{4, 0, spec.simulation, nullptr, "source"},
                    {4, 1, spec.simulation, spec.analytics, "filter"},
                    {4, 0, nullptr, spec.analytics, "sink"}};
  job.edges = {{0, 1, 1, {}, {}, 0, {}, "source-filter", "c0"},
               {1, 2, 0, {}, {}, 0, {}, "filter-sink", "c1"}};
  return job;
}

TEST(Runner, RunJobsChainsThroughAMiddleStage) {
  Runner runner;
  const Job jobs[] = {chain_job(false), chain_job(true)};
  auto parallel = runner.run_jobs({&jobs[0], 1});
  auto serial = runner.run_jobs({&jobs[1], 1});
  ASSERT_TRUE(parallel.has_value()) << parallel.error().message;
  ASSERT_TRUE(serial.has_value()) << serial.error().message;
  for (const auto* run : {&*parallel, &*serial}) {
    const JobResult& job = run->jobs.front();
    // 15 objects per rank-iteration, 4 ranks, 3 iterations, 2 edges.
    EXPECT_EQ(job.objects_verified, 15u * 4 * 3 * 2);
    EXPECT_EQ(job.verification_failures, 0u);
    ASSERT_EQ(job.edges.size(), 2u);
    EXPECT_EQ(job.edges[1].versions_recycled, 3u);
    EXPECT_EQ(run->devices.size(), 2u);
  }
  // Serial stages run one after another; parallel ones overlap.
  EXPECT_GT(serial->jobs.front().total_ns, parallel->jobs.front().total_ns);

  // Two independent jobs on one engine contend for the same devices.
  auto both = runner.run_jobs(jobs);
  ASSERT_TRUE(both.has_value());
  ASSERT_EQ(both->jobs.size(), 2u);
  EXPECT_GT(both->jobs[0].total_ns, parallel->jobs.front().total_ns);
}

TEST(Runner, RunJobsRejectsMalformedJobs) {
  Runner runner;
  const auto reject = [&](const Job& job, const char* why) {
    auto result = runner.run_jobs({&job, 1});
    ASSERT_FALSE(result.has_value()) << why;
    EXPECT_NE(result.error().message.find(why), std::string::npos)
        << result.error().message;
  };
  Job job = chain_job(false);
  job.edges[1].consumer = 7;
  reject(job, "unknown component");
  job = chain_job(false);
  job.components[2].ranks = 2;
  reject(job, "pairs 4 ranks with 2");
  job = chain_job(false);
  job.components[0].simulation = nullptr;
  reject(job, "missing a component model");
  job = chain_job(false);
  job.edges[0].socket = 5;
  reject(job, "local to one");
  job = chain_job(false);
  job.iterations = 0;
  reject(job, "at least one iteration");
}

// Concurrency sweep: every mode/placement combination completes and
// conserves data for several rank counts.
class RunnerSweep
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(RunnerSweep, CompletesWithFullVerification) {
  const auto [ranks, serial, local_write] = GetParam();
  Runner runner;
  const auto spec = small_spec(static_cast<std::uint32_t>(ranks), 2);
  auto result = runner.run(spec, options_for(serial, local_write));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->verification_failures, 0u);
  EXPECT_EQ(result->channel.versions_recycled, 2u);
  EXPECT_EQ(result->channel.payload_bytes_written,
            result->channel.payload_bytes_read);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndPlacements, RunnerSweep,
    ::testing::Combine(::testing::Values(1, 2, 8, 16, 24),
                       ::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace pmemflow::workflow
