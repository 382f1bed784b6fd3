// Named memory-backend presets and per-node device selection.
//
// A DeviceSpec (devices/device_spec.hpp) describes one backend.
// NodeDevices maps a node's sockets onto DeviceSpecs — uniform by
// default, per-socket overridable, so a node can run Optane on socket 0
// and a CXL expander on socket 1.
// DeviceRegistry names the presets every CLI, bench, and config file
// shares (`optane-gen1`, `optane-gen2`, `cxl-like`, `dram-like`);
// lookups are Expected-based so an unknown name is a recoverable
// parse error, never an assert. See docs/DEVICES.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "devices/device_spec.hpp"
#include "topo/platform.hpp"

namespace pmemflow::devices {

/// The memory backends of one node: a default spec for every socket,
/// with optional per-socket overrides.
///
/// The fingerprint keys every cache lookup a node makes, so it is
/// computed once, when the specs are set (constructors, set_socket),
/// and fingerprint() only reads it. Between set_socket calls the
/// object is immutable: threads may share a const NodeDevices freely.
class NodeDevices {
 public:
  NodeDevices();
  explicit NodeDevices(DeviceSpec spec);

  void set_socket(topo::SocketId socket, DeviceSpec spec);

  [[nodiscard]] const DeviceSpec& for_socket(topo::SocketId socket) const {
    const auto it = overrides_.find(socket);
    return it == overrides_.end() ? default_ : it->second;
  }

  /// The default (socket-0 unless overridden) spec — what feature
  /// derivation and single-device consumers key on.
  [[nodiscard]] const DeviceSpec& primary() const {
    return for_socket(topo::SocketId{0});
  }

  /// Digest over the default spec and every override, in socket order.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

 private:
  /// Digests the specs as they stand (what fingerprint() returns).
  [[nodiscard]] std::uint64_t compute_fingerprint() const;

  DeviceSpec default_{};
  std::map<topo::SocketId, DeviceSpec> overrides_;
  std::uint64_t fingerprint_ = 0;
};

struct DevicePreset {
  std::string name;
  std::string summary;
  DeviceSpec spec;
};

/// Named preset table. `builtin()` is the shared registry all CLIs and
/// benches resolve against, so presets can never drift between them.
class DeviceRegistry {
 public:
  explicit DeviceRegistry(std::vector<DevicePreset> presets)
      : presets_(std::move(presets)) {}

  [[nodiscard]] static const DeviceRegistry& builtin();

  /// Expected-based lookup: unknown names report the known ones.
  [[nodiscard]] Expected<DevicePreset> find(std::string_view name) const;

  [[nodiscard]] const std::vector<DevicePreset>& presets() const noexcept {
    return presets_;
  }

 private:
  std::vector<DevicePreset> presets_;
};

/// Parses a `--backend` value against the builtin registry: either one
/// preset name ("dram-like") for every socket, or slash-separated
/// per-socket names ("optane-gen1/cxl-like" = Optane on socket 0, CXL
/// on socket 1).
[[nodiscard]] Expected<NodeDevices> parse_backend(std::string_view text);

}  // namespace pmemflow::devices
