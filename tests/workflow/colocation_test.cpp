// Co-located (multi-tenant) deployments: several workflows sharing the
// node's sockets and PMEM devices at once (paper §II-A's multi-tenancy
// setting).
#include <gtest/gtest.h>

#include "workflow/runner.hpp"
#include "workloads/analytics.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::workflow {
namespace {

WorkflowSpec io_heavy_spec(std::uint32_t ranks, std::uint64_t seed) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = 32 * kMiB;
  sim.objects_per_rank = 4;
  sim.seed = seed;
  workloads::SyntheticAnalytics::Params analytics;
  return workloads::make_synthetic_workflow(sim, analytics, ranks, 4);
}

RunOptions deploy(bool serial, topo::SocketId channel) {
  RunOptions options;
  options.serial = serial;
  options.writer_socket = 0;
  options.reader_socket = 1;
  options.channel_socket = channel;
  return options;
}

TEST(Colocation, SingleDeploymentMatchesPlainRun) {
  Runner runner;
  const auto spec = io_heavy_spec(4, 1);
  const auto options = deploy(false, 0);
  auto plain = runner.run(spec, options);
  const Deployment deployment{spec, options};
  auto colocated = runner.run_colocated({&deployment, 1});
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(colocated.has_value());
  ASSERT_EQ(colocated->workflows.size(), 1u);
  EXPECT_EQ(colocated->workflows[0].total_ns, plain->total_ns);
  EXPECT_EQ(colocated->makespan_ns, plain->total_ns);
}

TEST(Colocation, SharedDeviceCausesInterference) {
  Runner runner;
  const auto spec_a = io_heavy_spec(8, 1);
  const auto spec_b = io_heavy_spec(8, 2);
  const auto options = deploy(false, 0);

  auto alone = runner.run(spec_a, options);
  ASSERT_TRUE(alone.has_value());

  const Deployment deployments[] = {{spec_a, options}, {spec_b, options}};
  auto together = runner.run_colocated(deployments);
  ASSERT_TRUE(together.has_value());
  ASSERT_EQ(together->workflows.size(), 2u);

  // Both tenants hammer the same socket-0 device: each must run
  // slower than the workflow did alone.
  EXPECT_GT(together->workflows[0].total_ns, alone->total_ns);
  EXPECT_GT(together->workflows[1].total_ns, alone->total_ns);
  EXPECT_EQ(together->makespan_ns,
            std::max(together->workflows[0].total_ns,
                     together->workflows[1].total_ns));
}

TEST(Colocation, DisjointChannelsInterfereLess) {
  Runner runner;
  const auto spec_a = io_heavy_spec(8, 1);
  const auto spec_b = io_heavy_spec(8, 2);

  const Deployment same_socket[] = {{spec_a, deploy(false, 0)},
                                    {spec_b, deploy(false, 0)}};
  const Deployment split_sockets[] = {{spec_a, deploy(false, 0)},
                                      {spec_b, deploy(false, 1)}};
  auto same = runner.run_colocated(same_socket);
  auto split = runner.run_colocated(split_sockets);
  ASSERT_TRUE(same.has_value());
  ASSERT_TRUE(split.has_value());
  // Splitting the channels across sockets spreads device pressure.
  EXPECT_LT(split->makespan_ns, same->makespan_ns);
}

TEST(Colocation, BothWorkflowsVerifyCleanly) {
  Runner runner;
  const auto spec_a = io_heavy_spec(4, 1);
  const auto spec_b = io_heavy_spec(6, 2);
  const Deployment deployments[] = {{spec_a, deploy(false, 0)},
                                    {spec_b, deploy(true, 1)}};
  auto result = runner.run_colocated(deployments);
  ASSERT_TRUE(result.has_value());
  for (const auto& run : result->workflows) {
    EXPECT_EQ(run.verification_failures, 0u);
    EXPECT_GT(run.objects_verified, 0u);
    EXPECT_EQ(run.channel.versions_recycled, 4u);
  }
}

TEST(Colocation, RejectsOverCommittedCores) {
  Runner runner;  // 28 cores per socket
  const auto spec_a = io_heavy_spec(16, 1);
  const auto spec_b = io_heavy_spec(16, 2);  // 32 writer ranks > 28
  const Deployment deployments[] = {{spec_a, deploy(false, 0)},
                                    {spec_b, deploy(false, 0)}};
  auto result = runner.run_colocated(deployments);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().message.find("free cores"), std::string::npos);
}

TEST(Colocation, RejectedBatchLeavesNoSideEffects) {
  // Each tenant fits alone (16 <= 28 cores) but the joint demand on
  // socket 0 exceeds it; the validation must fail before any allocation
  // sticks. A feasible run on the same Runner afterwards matches a
  // fresh Runner exactly.
  Runner runner;
  const auto spec_a = io_heavy_spec(16, 1);
  const auto spec_b = io_heavy_spec(16, 2);
  ASSERT_TRUE(runner.run(spec_a, deploy(false, 0)).has_value());
  const Deployment over_committed[] = {{spec_a, deploy(false, 0)},
                                       {spec_b, deploy(false, 0)}};
  ASSERT_FALSE(runner.run_colocated(over_committed).has_value());

  const auto spec_c = io_heavy_spec(8, 3);
  const auto spec_d = io_heavy_spec(8, 4);
  const Deployment feasible[] = {{spec_c, deploy(false, 0)},
                                 {spec_d, deploy(false, 1)}};
  auto after = runner.run_colocated(feasible);
  auto fresh = Runner().run_colocated(feasible);
  ASSERT_TRUE(after.has_value());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(after->workflows[0].total_ns, fresh->workflows[0].total_ns);
  EXPECT_EQ(after->workflows[1].total_ns, fresh->workflows[1].total_ns);
  EXPECT_EQ(after->makespan_ns, fresh->makespan_ns);
}

TEST(Colocation, ResultsPreserveInputOrder) {
  // ColocatedResult::workflows[i] must correspond to deployments[i]:
  // swapping the deployment order describes the identical physical
  // scenario, so the per-tenant results must swap with it.
  Runner runner;
  const auto small = io_heavy_spec(4, 1);
  const auto big = io_heavy_spec(12, 2);
  const Deployment forward[] = {{small, deploy(false, 0)},
                                {big, deploy(false, 1)}};
  const Deployment reversed[] = {{big, deploy(false, 1)},
                                 {small, deploy(false, 0)}};
  auto fwd = runner.run_colocated(forward);
  auto rev = runner.run_colocated(reversed);
  ASSERT_TRUE(fwd.has_value());
  ASSERT_TRUE(rev.has_value());
  ASSERT_NE(fwd->workflows[0].total_ns, fwd->workflows[1].total_ns);
  EXPECT_EQ(fwd->workflows[0].total_ns, rev->workflows[1].total_ns);
  EXPECT_EQ(fwd->workflows[1].total_ns, rev->workflows[0].total_ns);
  EXPECT_EQ(fwd->makespan_ns, rev->makespan_ns);
}

TEST(Colocation, RejectsConflictingStagingOnASharedSocket) {
  // Tenants whose channels share a socket share its DRAM stage, so
  // they must ask for the same one; the second tenant's parameters are
  // never silently dropped.
  Runner runner;
  const auto spec_a = io_heavy_spec(4, 1);
  const auto spec_b = io_heavy_spec(4, 2);
  RunOptions small = deploy(false, 0);
  small.staging.stage_bytes = 16 * kMiB;
  RunOptions large = small;
  large.staging.stage_bytes = 64 * kMiB;
  const Deployment conflicting[] = {{spec_a, small}, {spec_b, large}};
  auto rejected = runner.run_colocated(conflicting);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_NE(rejected.error().message.find("socket 0"), std::string::npos);

  // Equal tiers share the stage; a tenant without staging writes
  // straight through beside a staged one; distinct sockets never
  // conflict.
  const Deployment shared[] = {{spec_a, small}, {spec_b, small}};
  const Deployment mixed[] = {{spec_a, small}, {spec_b, deploy(false, 0)}};
  RunOptions other_socket = large;
  other_socket.channel_socket = 1;
  const Deployment split[] = {{spec_a, small}, {spec_b, other_socket}};
  EXPECT_TRUE(runner.run_colocated(shared).has_value());
  EXPECT_TRUE(runner.run_colocated(mixed).has_value());
  EXPECT_TRUE(runner.run_colocated(split).has_value());
}

TEST(Colocation, RejectsEmptyBatch) {
  Runner runner;
  auto result = runner.run_colocated({});
  ASSERT_FALSE(result.has_value());
}

TEST(Colocation, Deterministic) {
  Runner runner;
  const auto spec_a = io_heavy_spec(4, 1);
  const auto spec_b = io_heavy_spec(4, 2);
  const Deployment deployments[] = {{spec_a, deploy(false, 0)},
                                    {spec_b, deploy(false, 1)}};
  auto first = runner.run_colocated(deployments);
  auto second = runner.run_colocated(deployments);
  ASSERT_TRUE(first.has_value() && second.has_value());
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(first->workflows[i].total_ns,
              second->workflows[i].total_ns);
  }
}

}  // namespace
}  // namespace pmemflow::workflow
