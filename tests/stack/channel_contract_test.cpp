// Contract tests: every StreamChannel implementation must satisfy the
// same behavioural contract. Runs the full suite against both NVStream
// and NOVA via typed tests.
#include <gtest/gtest.h>

#include <stdexcept>

#include "devices/memory_device.hpp"
#include "sim/task.hpp"
#include "stack/nova_channel.hpp"
#include "stack/nvstream.hpp"

namespace pmemflow::stack {
namespace {

template <typename ChannelT>
class ChannelContractTest : public ::testing::Test {
 protected:
  sim::Engine engine_;
  devices::MemoryDevice device_{engine_, 0, 8ULL * kGiB};
  ChannelT channel_{device_, "contract", /*num_ranks=*/2};

  void write(std::uint64_t version, std::uint32_t rank, SnapshotPart part) {
    auto writer = [&]() -> sim::Task {
      co_await channel_.write_part(0, version, rank, std::move(part), 0.0);
    };
    engine_.spawn(writer());
    engine_.run_to_completion();
  }

  SnapshotPart read(std::uint64_t version, std::uint32_t rank,
                    topo::SocketId from = 1) {
    SnapshotPart out;
    auto reader = [&]() -> sim::Task {
      co_await channel_.read_part(from, version, rank, out, 0.0);
    };
    engine_.spawn(reader());
    engine_.run_to_completion();
    return out;
  }

  bool read_throws(std::uint64_t version, std::uint32_t rank) {
    bool threw = false;
    auto reader = [&]() -> sim::Task {
      SnapshotPart out;
      try {
        co_await channel_.read_part(0, version, rank, out, 0.0);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    };
    engine_.spawn(reader());
    engine_.run_to_completion();
    return threw;
  }

  static std::vector<ObjectData> real_objects(int count, Bytes size,
                                              std::uint64_t seed) {
    std::vector<ObjectData> objects;
    for (int i = 0; i < count; ++i) {
      objects.push_back(
          {static_cast<std::uint64_t>(i),
           Payload::real(Payload::generate_bytes(
               derive_seed(seed, static_cast<std::uint64_t>(i)), size))});
    }
    return objects;
  }
};

using ChannelTypes = ::testing::Types<NvStreamChannel, NovaChannel>;
TYPED_TEST_SUITE(ChannelContractTest, ChannelTypes);

TYPED_TEST(ChannelContractTest, RealObjectsRoundTripBitExact) {
  auto objects = this->real_objects(3, 8192, 42);
  const auto originals = objects;
  this->write(1, 0, SnapshotPart(std::move(objects)));
  this->channel_.commit_version(1);

  const SnapshotPart result = this->read(1, 0);
  const auto& loaded = std::get<std::vector<ObjectData>>(result);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded[i].payload.materialize(),
              originals[i].payload.materialize());
  }
}

TYPED_TEST(ChannelContractTest, RunOfOneRoundTrips) {
  // Regression: a SyntheticRun with count == 1 must come back as a run
  // and verify against the *run* checksum (found by fuzz seed 16: the
  // read path used to rebuild it as a single object and compare the
  // per-object checksum against the stored run checksum).
  SyntheticRun run{.first_index = 0, .count = 1, .object_size = 8 * kMiB,
                   .base_seed = 1234};
  this->write(1, 0, SnapshotPart(run));
  this->channel_.commit_version(1);
  EXPECT_EQ(std::get<SyntheticRun>(this->read(1, 0)), run);
}

TYPED_TEST(ChannelContractTest, SyntheticRunRoundTrip) {
  SyntheticRun run{.first_index = 5, .count = 1000, .object_size = 4608,
                   .base_seed = 77};
  this->write(1, 0, SnapshotPart(run));
  this->channel_.commit_version(1);
  EXPECT_EQ(std::get<SyntheticRun>(this->read(1, 0)), run);
}

TYPED_TEST(ChannelContractTest, RanksIsolated) {
  this->write(1, 0, SnapshotPart(this->real_objects(2, 128, 1)));
  this->write(1, 1, SnapshotPart(this->real_objects(5, 128, 2)));
  this->channel_.commit_version(1);
  EXPECT_EQ(std::get<std::vector<ObjectData>>(this->read(1, 0)).size(), 2u);
  EXPECT_EQ(std::get<std::vector<ObjectData>>(this->read(1, 1)).size(), 5u);
}

TYPED_TEST(ChannelContractTest, UncommittedVersionUnreadable) {
  this->write(1, 0, SnapshotPart(this->real_objects(1, 64, 1)));
  EXPECT_TRUE(this->read_throws(1, 0));
}

TYPED_TEST(ChannelContractTest, RecycledVersionUnreadable) {
  this->write(1, 0, SnapshotPart(this->real_objects(1, 64, 1)));
  this->write(1, 1, SnapshotPart(this->real_objects(1, 64, 2)));
  this->channel_.commit_version(1);
  this->channel_.recycle_version(1);
  EXPECT_TRUE(this->read_throws(1, 0));
  EXPECT_EQ(this->channel_.stats().versions_recycled, 1u);
}

TYPED_TEST(ChannelContractTest, CommitsAreOrdered) {
  this->write(1, 0, SnapshotPart(this->real_objects(1, 64, 1)));
  EXPECT_DEATH(this->channel_.commit_version(2), "order");
}

TYPED_TEST(ChannelContractTest, WritesChargeSimulatedTime) {
  const SimTime before = this->engine_.now();
  this->write(1, 0,
              SnapshotPart(SyntheticRun{.first_index = 0, .count = 4,
                                        .object_size = 64 * kMB,
                                        .base_seed = 9}));
  EXPECT_GT(this->engine_.now(), before);
}

TYPED_TEST(ChannelContractTest, RemoteReadsAreSlower) {
  SyntheticRun run{.first_index = 0, .count = 64, .object_size = 1 * kMiB,
                   .base_seed = 3};
  this->write(1, 0, SnapshotPart(run));
  this->write(1, 1, SnapshotPart(run));
  this->channel_.commit_version(1);

  const SimTime t0 = this->engine_.now();
  (void)this->read(1, 0, /*from=*/0);  // local (device is socket 0)
  const SimTime local = this->engine_.now() - t0;
  const SimTime t1 = this->engine_.now();
  (void)this->read(1, 1, /*from=*/1);  // remote
  const SimTime remote = this->engine_.now() - t1;
  EXPECT_GT(remote, local);
}

TYPED_TEST(ChannelContractTest, StatsCountObjectsAndBytes) {
  this->write(1, 0, SnapshotPart(this->real_objects(4, 256, 5)));
  this->channel_.commit_version(1);
  (void)this->read(1, 0);
  EXPECT_EQ(this->channel_.stats().objects_written, 4u);
  EXPECT_EQ(this->channel_.stats().objects_read, 4u);
  EXPECT_EQ(this->channel_.stats().payload_bytes_written, 1024u);
  EXPECT_EQ(this->channel_.stats().payload_bytes_read, 1024u);
}

}  // namespace
}  // namespace pmemflow::stack
