// Pluggable memory-backend abstraction.
//
// A MemoryDevice couples a functional PmemSpace (real bytes, sparse)
// with a fluid-flow FlowResource whose rates come from the backend's
// bandwidth model. Storage stacks call `io()` to charge simulated
// transfer time and use `space()` to actually move bytes — the same
// contract pmemsim::OptaneDevice used to expose, now independent of
// which memory technology sits underneath.
//
// The timing/placement surface a backend must provide:
//   - a locality model (`locality_of`): how an access issued from a
//     given socket is classified. Optane keeps the local/remote binary;
//     a CXL-attached backend reports uniform access from every socket.
//   - `io()` flow charging: awaitable transfer through the backend's
//     FlowResource, with the locality stamped by the device (not the
//     caller — the device owns its own distance model).
//   - a functional space and cumulative flow stats.
//
// Implementations live next to this header (OptaneDevice, DramDevice,
// CxlDevice); named parameter presets live in devices/registry.hpp.
#pragma once

#include "pmemsim/allocator.hpp"
#include "pmemsim/space.hpp"
#include "sim/engine.hpp"
#include "sim/flow.hpp"
#include "topo/platform.hpp"

namespace pmemflow::devices {

class MemoryDevice {
 public:
  MemoryDevice() = default;
  MemoryDevice(const MemoryDevice&) = delete;
  MemoryDevice& operator=(const MemoryDevice&) = delete;
  virtual ~MemoryDevice() = default;

  /// Short technology tag ("optane", "dram", "cxl").
  [[nodiscard]] virtual const char* kind_name() const noexcept = 0;

  /// Socket the device is attached to (for CXL-like backends this is
  /// only the attachment point; access cost is socket-uniform).
  [[nodiscard]] virtual topo::SocketId socket() const noexcept = 0;

  [[nodiscard]] virtual pmemsim::PmemSpace& space() noexcept = 0;
  [[nodiscard]] virtual const pmemsim::PmemSpace& space() const noexcept = 0;
  [[nodiscard]] virtual sim::Engine& engine() noexcept = 0;
  [[nodiscard]] virtual const sim::FlowResourceStats& stats()
      const noexcept = 0;

  /// Locality class of an access issued from `from_socket`. This is the
  /// device's distance model: OptaneDevice returns the local/remote
  /// binary, CxlDevice reports every socket as local (uniform access).
  [[nodiscard]] virtual sim::Locality locality_of(
      topo::SocketId from_socket) const noexcept = 0;

  /// Charges simulated time for an aggregated I/O phase: `spec.locality`
  /// is overwritten from the device's locality model. Awaitable.
  auto io(topo::SocketId from_socket, sim::FlowSpec spec) {
    spec.locality = locality_of(from_socket);
    return resource().transfer(spec);
  }

  /// Counters of the device's rate allocator (per-instance state; see
  /// pmemsim::AllocatorCounters). Backends without a memoizing
  /// allocator report zeros.
  [[nodiscard]] virtual pmemsim::AllocatorCounters allocator_counters()
      const noexcept {
    return {};
  }

 protected:
  /// The fluid-flow resource `io()` charges against.
  [[nodiscard]] virtual sim::FlowResource& resource() noexcept = 0;
};

}  // namespace pmemflow::devices
