// One socket's memory backend, built from its DeviceSpec.
//
// A MemoryDevice couples a functional PmemSpace (real bytes, sparse)
// with a fluid-flow FlowResource whose rates come from the spec's
// effective-bandwidth curves (DeviceSpec::bandwidth_model). Storage
// stacks call `io()` to charge simulated transfer time and use
// `space()` to actually move bytes.
//
// Every backend kind is this one class: the spec decides the curves
// and whether locality is socket-uniform. Optane keeps the paper's
// local/remote binary (an access from the other socket crosses UPI);
// DRAM- and CXL-like backends report every socket as local. Named
// parameter presets live in devices/registry.hpp.
#pragma once

#include "devices/device_spec.hpp"
#include "pmemsim/allocator.hpp"
#include "pmemsim/space.hpp"
#include "sim/engine.hpp"
#include "sim/flow.hpp"
#include "topo/platform.hpp"

namespace pmemflow::devices {

class MemoryDevice {
 public:
  /// Creates the device `spec` describes, attached to `socket`, with a
  /// backing space of `space_bytes` (the caller resolves
  /// `spec.capacity_or`).
  MemoryDevice(sim::Engine& engine, topo::SocketId socket, Bytes space_bytes,
               const DeviceSpec& spec = {});
  MemoryDevice(const MemoryDevice&) = delete;
  MemoryDevice& operator=(const MemoryDevice&) = delete;

  /// Socket the device is attached to (for a uniform-locality backend
  /// this is only the attachment point).
  [[nodiscard]] topo::SocketId socket() const noexcept { return socket_; }

  [[nodiscard]] pmemsim::PmemSpace& space() noexcept { return space_; }
  [[nodiscard]] const pmemsim::PmemSpace& space() const noexcept {
    return space_;
  }
  [[nodiscard]] const sim::FlowResourceStats& stats() const noexcept {
    return resource_.stats();
  }

  /// Locality class of an access issued from `from_socket`: local from
  /// every socket on a uniform-locality backend, else only from the
  /// attachment socket.
  [[nodiscard]] sim::Locality locality_of(
      topo::SocketId from_socket) const noexcept {
    return uniform_ || from_socket == socket_ ? sim::Locality::kLocal
                                              : sim::Locality::kRemote;
  }

  /// Charges simulated time for an aggregated I/O phase: `spec.locality`
  /// is overwritten from the device's locality model. Awaitable.
  auto io(topo::SocketId from_socket, sim::FlowSpec spec) {
    spec.locality = locality_of(from_socket);
    return resource_.transfer(spec);
  }

  /// Counters of the device's rate allocator (per-instance state; see
  /// pmemsim::AllocatorCounters).
  [[nodiscard]] pmemsim::AllocatorCounters allocator_counters()
      const noexcept {
    return allocator_.counters();
  }

 private:
  topo::SocketId socket_;
  bool uniform_;
  pmemsim::OptaneRateAllocator allocator_;
  sim::FlowResource resource_;
  pmemsim::PmemSpace space_;
};

}  // namespace pmemflow::devices
