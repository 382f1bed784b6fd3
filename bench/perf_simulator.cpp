// Performance microbenchmarks of the simulator itself (google-benchmark):
// event-queue throughput, coroutine scheduling, the fixed-point
// bandwidth allocator, storage-stack functional paths, and a full
// workflow sweep. These guard the "simulation is cheap enough to
// auto-tune exhaustively" property the core scheduler relies on.
#include <benchmark/benchmark.h>

#include "core/executor.hpp"
#include "devices/memory_device.hpp"
#include "pmemsim/allocator.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "stack/nvstream.hpp"
#include "workloads/suite.hpp"

namespace pmemflow {
namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(static_cast<SimTime>((i * 7919) % 1000), [] {});
    }
    while (!queue.empty()) {
      queue.pop().second();
    }
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_CoroutineSleepLoop(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (int t = 0; t < tasks; ++t) {
      auto worker = [&engine]() -> sim::Task {
        for (int i = 0; i < 100; ++i) {
          co_await sim::sleep_for(engine, 10);
        }
      };
      engine.spawn(worker());
    }
    engine.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() * tasks * 100);
}
BENCHMARK(BM_CoroutineSleepLoop)->Arg(1)->Arg(16)->Arg(64);

void BM_AllocatorFixedPoint(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  pmemsim::OptaneRateAllocator allocator(
      pmemsim::BandwidthModel({}, interconnect::UpiModel{}));
  std::vector<sim::Flow> storage(static_cast<std::size_t>(flows));
  std::vector<sim::Flow*> pointers;
  for (int i = 0; i < flows; ++i) {
    auto& flow = storage[static_cast<std::size_t>(i)];
    flow.spec.kind = (i % 2 == 0) ? sim::IoKind::kWrite : sim::IoKind::kRead;
    flow.spec.locality =
        (i % 3 == 0) ? sim::Locality::kRemote : sim::Locality::kLocal;
    flow.spec.op_size = (i % 5 == 0) ? 2 * kKB : 64 * kMB;
    flow.spec.total_bytes = flow.spec.op_size;
    flow.spec.sw_ns_per_op = 500.0 * (i % 4);
    flow.remaining_bytes = static_cast<double>(flow.spec.total_bytes);
    pointers.push_back(&flow);
  }
  for (auto _ : state) {
    allocator.allocate(pointers);
    benchmark::DoNotOptimize(storage.front().progress_rate);
  }
}
BENCHMARK(BM_AllocatorFixedPoint)->Arg(8)->Arg(16)->Arg(48);

void BM_NvStreamWriteReadCycle(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    devices::MemoryDevice device(engine, 0, 1 * kGiB);
    stack::NvStreamChannel channel(device, "bench", 1);
    auto worker = [&]() -> sim::Task {
      std::vector<stack::ObjectData> objects;
      for (int i = 0; i < 16; ++i) {
        objects.push_back({static_cast<std::uint64_t>(i),
                           stack::Payload::real(stack::Payload::generate_bytes(
                               static_cast<std::uint64_t>(i), 4096))});
      }
      co_await channel.write_part(0, 1, 0, std::move(objects), 0.0);
      channel.commit_version(1);
      stack::SnapshotPart out;
      co_await channel.read_part(0, 1, 0, out, 0.0);
    };
    engine.spawn(worker());
    engine.run_to_completion();
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_NvStreamWriteReadCycle);

void BM_FullConfigSweep(benchmark::State& state) {
  core::Executor executor;
  const auto spec = workloads::make_workflow(
      workloads::Family::kMiniAmrReadOnly,
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto sweep = executor.sweep(spec);
    benchmark::DoNotOptimize(sweep->best_index());
  }
}
BENCHMARK(BM_FullConfigSweep)->Arg(8)->Arg(24)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pmemflow

BENCHMARK_MAIN();
