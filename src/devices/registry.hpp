// Named memory-backend presets and per-node device selection.
//
// A DeviceSpec is a value describing one backend (kind + parameters);
// it knows how to instantiate the matching MemoryDevice, serialize
// itself canonically (`key=value` pairs, round-trip exact), and
// fingerprint itself for cache keys. NodeDevices maps a node's sockets
// onto DeviceSpecs — uniform by default, per-socket overridable, so a
// node can run Optane on socket 0 and a CXL expander on socket 1.
// DeviceRegistry names the presets every CLI, bench, and config file
// shares (`optane-gen1`, `optane-gen2`, `cxl-like`, `dram-like`);
// lookups are Expected-based so an unknown name is a recoverable
// parse error, never an assert. See docs/DEVICES.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "devices/cxl_device.hpp"
#include "devices/dram_device.hpp"
#include "devices/optane_device.hpp"

namespace pmemflow::devices {

enum class DeviceKind { kOptane, kDram, kCxl };

[[nodiscard]] const char* to_string(DeviceKind kind);
[[nodiscard]] Expected<DeviceKind> parse_device_kind(std::string_view text);

/// Value description of one backend. Only the parameter block matching
/// `kind` is meaningful (and serialized); the others stay at defaults.
struct DeviceSpec {
  DeviceKind kind = DeviceKind::kOptane;
  pmemsim::OptaneParams optane{};
  interconnect::UpiParams upi{};
  DramParams dram{};
  CxlParams cxl{};
  /// Capacity of the backing space in bytes. 0 (the default) means
  /// "sized by the platform": instantiating callers fall back to the
  /// platform's per-socket PMEM capacity. Serialized (and therefore
  /// fingerprinted) for every kind, so two otherwise identical
  /// backends with different DIMM populations never share a cache key.
  Bytes capacity = 0;

  /// `capacity`, or `fallback` when the spec leaves it platform-sized.
  [[nodiscard]] Bytes capacity_or(Bytes fallback) const noexcept {
    return capacity != 0 ? capacity : fallback;
  }

  /// Stable digest of kind + active parameters: two specs fingerprint
  /// equal iff they time identically. Keys the profile/interference
  /// caches.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Op-size threshold below which this backend classifies accesses as
  /// small-granularity (0: the backend has no small-access regime).
  [[nodiscard]] Bytes small_access_threshold() const noexcept;

  /// True if the backend's locality model is socket-uniform (placement
  /// cannot matter on it).
  [[nodiscard]] bool uniform_locality() const noexcept {
    return kind != DeviceKind::kOptane;
  }

  /// Builds the described device attached to `socket` with a backing
  /// space of `space_bytes` (the caller resolves `capacity_or`).
  [[nodiscard]] std::unique_ptr<MemoryDevice> instantiate(
      sim::Engine& engine, topo::SocketId socket, Bytes space_bytes) const;
};

/// Canonical `kind=... key=value ...` form; fixed field order, doubles
/// printed round-trip exact. parse(serialize(spec)) == spec.
[[nodiscard]] std::string serialize_device_spec(const DeviceSpec& spec);
[[nodiscard]] Expected<DeviceSpec> parse_device_spec(std::string_view text);

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
  /// Legacy form: Optane on every socket with these parameters.
  NodeDevices(pmemsim::OptaneParams optane,
              interconnect::UpiParams upi = {});

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

  /// True if every socket runs the same spec.
  [[nodiscard]] bool uniform() const noexcept { return overrides_.empty(); }

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
