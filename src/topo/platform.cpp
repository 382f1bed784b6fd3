#include "topo/platform.hpp"

#include "common/assert.hpp"
#include "common/strings.hpp"

namespace pmemflow::topo {

Platform::Platform(PlatformSpec spec) : spec_(spec) {
  PMEMFLOW_ASSERT_MSG(spec_.sockets >= 1, "platform needs at least 1 socket");
  PMEMFLOW_ASSERT_MSG(spec_.cores_per_socket >= 1,
                      "sockets need at least 1 core");
  core_allocated_.assign(spec_.total_cores(), false);
}

SocketId Platform::socket_of(CoreId core) const {
  PMEMFLOW_ASSERT(core < spec_.total_cores());
  return core / spec_.cores_per_socket;
}

std::vector<CoreId> Platform::cores_of(SocketId socket) const {
  PMEMFLOW_ASSERT(socket < spec_.sockets);
  std::vector<CoreId> cores;
  cores.reserve(spec_.cores_per_socket);
  const CoreId base = socket * spec_.cores_per_socket;
  for (CoreId i = 0; i < spec_.cores_per_socket; ++i) {
    cores.push_back(base + i);
  }
  return cores;
}

std::uint32_t Platform::free_cores(SocketId socket) const {
  PMEMFLOW_ASSERT(socket < spec_.sockets);
  std::uint32_t free = 0;
  for (CoreId core : cores_of(socket)) {
    if (!core_allocated_[core]) ++free;
  }
  return free;
}

Expected<CoreAssignment> Platform::allocate_cores(SocketId socket,
                                                  std::uint32_t count) {
  if (socket >= spec_.sockets) {
    return make_error(format("socket %u does not exist (platform has %u)",
                             socket, spec_.sockets));
  }
  CoreAssignment assignment;
  assignment.socket = socket;
  for (CoreId core : cores_of(socket)) {
    if (assignment.cores.size() == count) break;
    if (!core_allocated_[core]) {
      assignment.cores.push_back(core);
    }
  }
  if (assignment.cores.size() < count) {
    return make_error(format(
        "socket %u has only %u free cores, %u requested", socket,
        free_cores(socket), count));
  }
  for (CoreId core : assignment.cores) {
    core_allocated_[core] = true;
  }
  return assignment;
}

void Platform::release_cores(const CoreAssignment& assignment) {
  for (CoreId core : assignment.cores) {
    PMEMFLOW_ASSERT(core < spec_.total_cores());
    PMEMFLOW_ASSERT_MSG(core_allocated_[core],
                        "releasing a core that was not allocated");
    core_allocated_[core] = false;
  }
}

void Platform::release_all() {
  core_allocated_.assign(spec_.total_cores(), false);
}

std::string Platform::describe() const {
  return format(
      "%u-socket platform: %u cores/socket, %u iMC/socket, "
      "%u PMEM DIMMs/socket (%s interleaved), %s DRAM/socket",
      spec_.sockets, spec_.cores_per_socket, spec_.imcs_per_socket,
      spec_.pmem_dimms_per_socket,
      format_bytes(spec_.pmem_per_socket()).c_str(),
      format_bytes(spec_.dram_per_socket).c_str());
}

}  // namespace pmemflow::topo
