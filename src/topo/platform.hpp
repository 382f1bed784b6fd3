// Server platform topology model.
//
// Mirrors the paper's testbed (§V): a dual-socket Xeon Scalable node,
// 28 physical cores per socket, two iMCs per socket with three channels
// each, and six 512 GB Optane DIMMs per socket configured App-Direct /
// interleaved. Workflow components are pinned to disjoint sockets and
// the streaming-I/O channel lives in the PMEM of one socket (Figure 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/units.hpp"

namespace pmemflow::topo {

/// Identifies a CPU socket (0-based).
using SocketId = std::uint32_t;

/// Identifies a physical core within the platform (0-based, global).
using CoreId = std::uint32_t;

/// Static description of the node. Defaults reproduce the paper's testbed.
struct PlatformSpec {
  std::uint32_t sockets = 2;
  std::uint32_t cores_per_socket = 28;
  std::uint32_t imcs_per_socket = 2;
  std::uint32_t channels_per_imc = 3;
  /// PMEM DIMMs per socket (one per channel; interleaved set).
  std::uint32_t pmem_dimms_per_socket = 6;
  Bytes pmem_dimm_capacity = 512ULL * kGB;
  Bytes dram_per_socket = 192ULL * kGB;

  /// Total PMEM capacity of one socket's interleave set.
  [[nodiscard]] Bytes pmem_per_socket() const noexcept {
    return static_cast<Bytes>(pmem_dimms_per_socket) * pmem_dimm_capacity;
  }
  [[nodiscard]] std::uint32_t total_cores() const noexcept {
    return sockets * cores_per_socket;
  }
};

/// A set of cores on one socket assigned to a workflow component.
struct CoreAssignment {
  SocketId socket = 0;
  std::vector<CoreId> cores;
};

/// Tracks which cores are allocated; used by the deployment executor to
/// pin writer ranks and reader ranks to disjoint sockets.
class Platform {
 public:
  explicit Platform(PlatformSpec spec = {});

  [[nodiscard]] const PlatformSpec& spec() const noexcept { return spec_; }

  /// Socket that owns a given (global) core id.
  [[nodiscard]] SocketId socket_of(CoreId core) const;

  /// Global core ids belonging to `socket`.
  [[nodiscard]] std::vector<CoreId> cores_of(SocketId socket) const;

  /// Number of currently unallocated cores on `socket`.
  [[nodiscard]] std::uint32_t free_cores(SocketId socket) const;

  /// Reserves `count` cores on `socket`. Fails (without side effects)
  /// if the socket has fewer free cores.
  Expected<CoreAssignment> allocate_cores(SocketId socket,
                                          std::uint32_t count);

  /// Returns an assignment's cores to the free pool.
  void release_cores(const CoreAssignment& assignment);

  /// Releases every allocation (used between experiment runs).
  void release_all();

  /// Human-readable description of the platform.
  [[nodiscard]] std::string describe() const;

 private:
  PlatformSpec spec_;
  std::vector<bool> core_allocated_;  // indexed by global CoreId
};

}  // namespace pmemflow::topo
