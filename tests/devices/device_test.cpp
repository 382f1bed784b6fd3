#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "common/strings.hpp"
#include "devices/memory_device.hpp"
#include "devices/registry.hpp"
#include "sim/task.hpp"

namespace pmemflow::devices {
namespace {

sim::FlowSpec write_spec(Bytes total, Bytes op) {
  sim::FlowSpec spec;
  spec.kind = sim::IoKind::kWrite;
  spec.total_bytes = total;
  spec.op_size = op;
  return spec;
}

sim::FlowSpec read_spec(Bytes total, Bytes op) {
  sim::FlowSpec spec;
  spec.kind = sim::IoKind::kRead;
  spec.total_bytes = total;
  spec.op_size = op;
  return spec;
}

/// The default parameters of one backend kind.
DeviceSpec spec_of(DeviceKind kind) {
  DeviceSpec spec;
  spec.kind = kind;
  return spec;
}

/// Runs one flow against `device` from `from_socket` and returns the
/// simulated finish time.
SimTime time_one(MemoryDevice& device, sim::Engine& engine,
                 topo::SocketId from_socket, sim::FlowSpec spec) {
  SimTime finished = 0;
  auto worker = [&]() -> sim::Task {
    co_await device.io(from_socket, spec);
    finished = engine.now();
  };
  engine.spawn(worker());
  engine.run_to_completion();
  return finished;
}

TEST(OptaneDevice, LocalityFollowsSocket) {
  sim::Engine engine;
  MemoryDevice device(engine, /*socket=*/0, 1 * kGiB);
  EXPECT_EQ(device.locality_of(0), sim::Locality::kLocal);
  EXPECT_EQ(device.locality_of(1), sim::Locality::kRemote);
  EXPECT_EQ(device.socket(), 0u);
}

TEST(OptaneDevice, SingleWriterTimingMatchesModel) {
  sim::Engine engine;
  MemoryDevice device(engine, 0, 1 * kGiB);
  const SimTime finished =
      time_one(device, engine, 0, write_spec(64 * kMB, 64 * kMB));

  // One local writer: device rate = min(write curve at n=1, per-thread
  // write cap) = min(13.9/4, 3.5) = 3.475 GB/s; latency negligible.
  const double expected_ns = 64e6 / 3.475;
  EXPECT_NEAR(static_cast<double>(finished), expected_ns, expected_ns * 0.01);
}

TEST(OptaneDevice, RemoteWriterSlowerThanLocal) {
  auto run_one = [](topo::SocketId from) -> SimTime {
    sim::Engine engine;
    MemoryDevice device(engine, 0, 1 * kGiB);
    SimTime finished = 0;
    auto writer = [&]() -> sim::Task {
      // 8 concurrent remote writers to get past the contention knee.
      co_await device.io(from, write_spec(64 * kMB, 64 * kMB));
      finished = engine.now();
    };
    for (int i = 0; i < 8; ++i) engine.spawn(writer());
    engine.run_to_completion();
    return finished;
  };
  EXPECT_GT(run_one(1), run_one(0));
}

TEST(OptaneDevice, SpaceIsUsable) {
  sim::Engine engine;
  MemoryDevice device(engine, 0, 1 * kGiB);
  const auto offset = device.space().reserve(4096);
  ASSERT_TRUE(offset.has_value());
  std::vector<std::byte> payload(256, std::byte{0xab});
  device.space().write(*offset, payload);
  std::vector<std::byte> out(256);
  device.space().read(*offset, out);
  EXPECT_EQ(out, payload);
}

TEST(OptaneDevice, StatsAccumulate) {
  sim::Engine engine;
  MemoryDevice device(engine, 0, 1 * kGiB);
  auto writer = [&]() -> sim::Task {
    co_await device.io(0, write_spec(10 * kMB, 10 * kMB));
  };
  engine.spawn(writer());
  engine.spawn(writer());
  engine.run_to_completion();
  EXPECT_EQ(device.stats().flows_completed, 2u);
  EXPECT_NEAR(device.stats().bytes_written, 20e6, 1e4);
}

TEST(OptaneDevice, ConcurrentMixOnOneDeviceRunsToCompletion) {
  sim::Engine engine;
  MemoryDevice device(engine, 0, 4 * kGiB);
  int done = 0;
  auto worker = [&](sim::IoKind kind, topo::SocketId from) -> sim::Task {
    sim::FlowSpec spec;
    spec.kind = kind;
    spec.total_bytes = 32 * kMB;
    spec.op_size = 2 * kKB;
    spec.sw_ns_per_op = 700.0;
    co_await device.io(from, spec);
    ++done;
  };
  for (int i = 0; i < 12; ++i) {
    engine.spawn(worker(sim::IoKind::kWrite, 0));
    engine.spawn(worker(sim::IoKind::kRead, 1));
  }
  engine.run_to_completion();
  EXPECT_EQ(done, 24);
}

TEST(DramDevice, LocalityIsUniform) {
  sim::Engine engine;
  MemoryDevice device(engine, /*socket=*/0, 1 * kGiB,
                      spec_of(DeviceKind::kDram));
  EXPECT_EQ(device.locality_of(0), sim::Locality::kLocal);
  EXPECT_EQ(device.locality_of(1), sim::Locality::kLocal);
}

TEST(DramDevice, TimingIdenticalFromEitherSocket) {
  auto run_one = [](topo::SocketId from) -> SimTime {
    sim::Engine engine;
    MemoryDevice device(engine, 0, 1 * kGiB, spec_of(DeviceKind::kDram));
    return time_one(device, engine, from, write_spec(64 * kMB, 4 * kKiB));
  };
  EXPECT_EQ(run_one(0), run_one(1));
}

TEST(DramDevice, BulkWritesFasterThanOptane) {
  sim::Engine optane_engine;
  MemoryDevice optane(optane_engine, 0, 1 * kGiB);
  const SimTime on_optane =
      time_one(optane, optane_engine, 0, write_spec(64 * kMB, 64 * kMB));

  sim::Engine dram_engine;
  MemoryDevice dram(dram_engine, 0, 1 * kGiB, spec_of(DeviceKind::kDram));
  const SimTime on_dram =
      time_one(dram, dram_engine, 0, write_spec(64 * kMB, 64 * kMB));
  EXPECT_LT(on_dram, on_optane);
}

TEST(DramDevice, NoSmallAccessCollapse) {
  // Many concurrent sub-stripe writers push Optane past its
  // small-access knee (~18 flows), so doubling the flow count from 12
  // to 24 more than doubles the finish time. DRAM has no such regime:
  // once the device is saturated, doubling the work just doubles the
  // time.
  auto run_flows = [](auto make_device, int flows) -> SimTime {
    sim::Engine engine;
    auto device = make_device(engine);
    SimTime finished = 0;
    auto writer = [&]() -> sim::Task {
      co_await device.io(0, write_spec(4 * kMB, 2 * kKB));
      finished = engine.now();
    };
    for (int i = 0; i < flows; ++i) engine.spawn(writer());
    engine.run_to_completion();
    return finished;
  };
  auto optane = [](sim::Engine& engine) {
    return MemoryDevice(engine, 0, 1 * kGiB);
  };
  auto dram = [](sim::Engine& engine) {
    return MemoryDevice(engine, 0, 1 * kGiB, spec_of(DeviceKind::kDram));
  };
  const double optane_ratio =
      static_cast<double>(run_flows(optane, 24)) /
      static_cast<double>(run_flows(optane, 12));
  const double dram_ratio = static_cast<double>(run_flows(dram, 24)) /
                            static_cast<double>(run_flows(dram, 12));
  // Saturated DRAM scales near-linearly with offered work (the small
  // residual above 2.0 is per-op latency); Optane collapses.
  EXPECT_NEAR(dram_ratio, 2.0, 0.25);
  EXPECT_GT(optane_ratio, dram_ratio * 1.1);
}

TEST(CxlDevice, LocalityIsUniform) {
  sim::Engine engine;
  MemoryDevice device(engine, /*socket=*/1, 1 * kGiB,
                      spec_of(DeviceKind::kCxl));
  EXPECT_EQ(device.locality_of(0), sim::Locality::kLocal);
  EXPECT_EQ(device.locality_of(1), sim::Locality::kLocal);
}

TEST(CxlDevice, TimingIdenticalFromEitherSocket) {
  auto run_one = [](topo::SocketId from) -> SimTime {
    sim::Engine engine;
    MemoryDevice device(engine, 0, 1 * kGiB, spec_of(DeviceKind::kCxl));
    return time_one(device, engine, from, read_spec(64 * kMB, 4 * kKiB));
  };
  EXPECT_EQ(run_one(0), run_one(1));
}

TEST(CxlDevice, LinkLatencyTaxesSmallOps) {
  // Same media curves as Optane, but every access pays the link
  // latency: small-op streams must run strictly slower than on a local
  // Optane device.
  sim::Engine optane_engine;
  MemoryDevice optane(optane_engine, 0, 1 * kGiB);
  const SimTime on_optane =
      time_one(optane, optane_engine, 0, read_spec(4 * kMB, 4 * kKiB));

  sim::Engine cxl_engine;
  MemoryDevice cxl(cxl_engine, 0, 1 * kGiB, spec_of(DeviceKind::kCxl));
  const SimTime on_cxl =
      time_one(cxl, cxl_engine, 0, read_spec(4 * kMB, 4 * kKiB));
  EXPECT_GT(on_cxl, on_optane);
}

TEST(MemoryDevice, PresetTimingsArePinned) {
  // Exact outcomes of three flow mixes on every builtin preset, issued
  // from each socket to a device attached to socket 0. Every other
  // device test checks a relation; this one pins the numbers, so a
  // moved value here is a changed device model.
  struct Mix {
    sim::FlowSpec spec;
    int flows;
  };
  const Mix mixes[] = {
      {write_spec(64 * kMiB, 64 * kMiB), 1},  // one bulk write stream
      {read_spec(4 * kMiB, 4 * kKiB), 1},     // one 4 KiB-op reader
      {write_spec(4 * kMiB, 2 * kKiB), 24},   // small-op writer storm
  };
  struct Pin {
    const char* preset;
    topo::SocketId from;
    int mix;
    SimTime finished;
    double bytes_read;
    double bytes_written;
    double bytes_remote;
    std::uint64_t allocate_calls;
    std::uint64_t cache_hits;
    std::uint64_t solves;
  };
  const Pin pins[] = {
      {"optane-gen1", 0, 0, 19311994, 0, 67108864, 0, 1, 0, 1},
      {"optane-gen1", 0, 1, 1982782, 4194304, 0, 0, 1, 0, 1},
      {"optane-gen1", 0, 2, 13290692, 0, 100663296, 0, 24, 0, 24},
      {"optane-gen1", 1, 0, 19312061, 0, 67108864, 67108864, 1, 0, 1},
      {"optane-gen1", 1, 1, 2044222, 4194304, 0, 4194304, 1, 0, 1},
      {"optane-gen1", 1, 2, 15811554, 0, 100663296, 100663296, 24, 0, 24},
      {"optane-gen2", 0, 0, 19546362, 0, 67108864, 0, 1, 0, 1},
      {"optane-gen2", 0, 1, 1619368, 4194304, 0, 0, 1, 0, 1},
      {"optane-gen2", 0, 2, 8066485, 0, 100663296, 0, 24, 0, 24},
      {"optane-gen2", 1, 0, 19546428, 0, 67108864, 67108864, 1, 0, 1},
      {"optane-gen2", 1, 1, 1680808, 4194304, 0, 4194304, 1, 0, 1},
      {"optane-gen2", 1, 2, 11199857, 0, 100663296, 100663296, 24, 0, 24},
      {"cxl-like", 0, 0, 19312074, 0, 67108864, 0, 1, 0, 1},
      {"cxl-like", 0, 1, 2064702, 4194304, 0, 0, 1, 0, 1},
      {"cxl-like", 0, 2, 13052938, 0, 100663296, 0, 24, 0, 24},
      {"cxl-like", 1, 0, 19312074, 0, 67108864, 0, 1, 0, 1},
      {"cxl-like", 1, 1, 2064702, 4194304, 0, 0, 1, 0, 1},
      {"cxl-like", 1, 2, 13052938, 0, 100663296, 0, 24, 0, 24},
      {"dram-like", 0, 0, 6710977, 0, 67108864, 0, 1, 0, 1},
      {"dram-like", 0, 1, 616448, 4194304, 0, 0, 1, 0, 1},
      {"dram-like", 0, 2, 1545747, 0, 100663296, 0, 24, 0, 24},
      {"dram-like", 1, 0, 6710977, 0, 67108864, 0, 1, 0, 1},
      {"dram-like", 1, 1, 616448, 4194304, 0, 0, 1, 0, 1},
      {"dram-like", 1, 2, 1545747, 0, 100663296, 0, 24, 0, 24},
  };

  std::size_t next = 0;
  for (const auto& preset : DeviceRegistry::builtin().presets()) {
    for (const topo::SocketId from : {0u, 1u}) {
      for (int m = 0; m < 3; ++m) {
        ASSERT_LT(next, std::size(pins));
        const Pin& pin = pins[next++];
        ASSERT_EQ(pin.preset, preset.name);
        ASSERT_EQ(pin.from, from);
        ASSERT_EQ(pin.mix, m);
        sim::Engine engine;
        MemoryDevice device(engine, 0, 1 * kGiB, preset.spec);
        SimTime finished = 0;
        auto worker = [&]() -> sim::Task {
          co_await device.io(from, mixes[m].spec);
          finished = engine.now();
        };
        for (int i = 0; i < mixes[m].flows; ++i) engine.spawn(worker());
        engine.run_to_completion();
        const std::string where = format("%s from socket %u, mix %d",
                                         preset.name.c_str(), from, m);
        EXPECT_EQ(finished, pin.finished) << where;
        EXPECT_EQ(device.stats().bytes_read, pin.bytes_read) << where;
        EXPECT_EQ(device.stats().bytes_written, pin.bytes_written) << where;
        EXPECT_EQ(device.stats().bytes_remote, pin.bytes_remote) << where;
        const pmemsim::AllocatorCounters counters =
            device.allocator_counters();
        EXPECT_EQ(counters.allocate_calls, pin.allocate_calls) << where;
        EXPECT_EQ(counters.cache_hits, pin.cache_hits) << where;
        EXPECT_EQ(counters.solves, pin.solves) << where;
      }
    }
  }
  EXPECT_EQ(next, std::size(pins));
}

}  // namespace
}  // namespace pmemflow::devices
