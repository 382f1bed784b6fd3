#include "devices/memory_device.hpp"

namespace pmemflow::devices {

MemoryDevice::MemoryDevice(sim::Engine& engine, topo::SocketId socket,
                           Bytes space_bytes, const DeviceSpec& spec)
    : socket_(socket),
      uniform_(spec.uniform_locality()),
      allocator_(spec.bandwidth_model()),
      resource_(engine, allocator_),
      space_(space_bytes) {}

}  // namespace pmemflow::devices
