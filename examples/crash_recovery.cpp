// Crash-consistency of the PMEM streaming substrate.
//
//   $ ./crash_recovery
//
// The storage stacks are functional data structures over simulated
// persistent memory, with the same recovery contracts as their real
// counterparts. This example drives NVStream through a crash:
//
//   1. write + commit snapshot v1 (durable)
//   2. write part of snapshot v2, "crash" before commit
//   3. recover from the persistent logs
//   4. v1 is intact and verifies; v2 is gone, as it must be
#include <cstdio>
#include <stdexcept>

#include "devices/memory_device.hpp"
#include "sim/task.hpp"
#include "stack/nvstream.hpp"

int main() {
  using namespace pmemflow;

  sim::Engine engine;
  devices::MemoryDevice device(engine, /*socket=*/0, 8ULL * kGiB);
  stack::NvStreamChannel channel(device, "checkpoints", /*num_ranks=*/2);

  const auto make_objects = [](std::uint64_t seed) {
    std::vector<stack::ObjectData> objects;
    for (int i = 0; i < 4; ++i) {
      objects.push_back(
          {static_cast<std::uint64_t>(i),
           stack::Payload::real(stack::Payload::generate_bytes(
               derive_seed(seed, static_cast<std::uint64_t>(i)),
               256 * kKiB))});
    }
    return objects;
  };

  // Step 1+2: v1 fully committed; v2 half-written when the node dies.
  auto writer = [&]() -> sim::Task {
    co_await channel.write_part(0, 1, 0, make_objects(100), 0.0);
    co_await channel.write_part(0, 1, 1, make_objects(101), 0.0);
    channel.commit_version(1);
    std::printf("v1 committed (8 objects, 2 MiB)\n");
    co_await channel.write_part(0, 2, 0, make_objects(200), 0.0);
    std::printf("v2 partially written... crash!\n");
  };
  engine.spawn(writer());
  engine.run_to_completion();

  // Step 3: the process restarts with empty volatile state.
  channel.drop_volatile_state();
  auto recovered = channel.recover();
  if (!recovered.has_value()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.error().message.c_str());
    return 1;
  }
  std::printf("recovered: committed version = %llu\n",
              static_cast<unsigned long long>(channel.committed_version()));

  // Step 4: verify v1, confirm v2 is unreadable.
  int status = 0;
  auto reader = [&]() -> sim::Task {
    for (std::uint32_t rank = 0; rank < 2; ++rank) {
      stack::SnapshotPart part;
      co_await channel.read_part(0, 1, rank, part, 0.0);
      const auto& objects = std::get<std::vector<stack::ObjectData>>(part);
      const auto expected = make_objects(rank == 0 ? 100 : 101);
      for (std::size_t i = 0; i < objects.size(); ++i) {
        if (objects[i].payload.checksum() !=
            expected[i].payload.checksum()) {
          std::printf("  v1 rank %u object %zu MISMATCH\n", rank, i);
          status = 1;
        }
      }
      std::printf("  v1 rank %u: %zu objects verified\n", rank,
                  objects.size());
    }
    try {
      stack::SnapshotPart part;
      co_await channel.read_part(0, 2, 0, part, 0.0);
      std::printf("  v2 readable after crash — BUG\n");
      status = 1;
    } catch (const std::runtime_error& error) {
      std::printf("  v2 correctly rejected: %s\n", error.what());
    }
  };
  engine.spawn(reader());
  engine.run_to_completion();

  std::printf(status == 0 ? "crash-recovery contract holds\n"
                          : "crash-recovery contract VIOLATED\n");
  return status;
}
