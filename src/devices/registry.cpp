#include "devices/registry.hpp"

#include <utility>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace pmemflow::devices {

NodeDevices::NodeDevices() {
  // Every default-constructed node has the same specs: digest them once.
  static const std::uint64_t kDefaultFingerprint = compute_fingerprint();
  fingerprint_ = kDefaultFingerprint;
}

NodeDevices::NodeDevices(DeviceSpec spec)
    : default_(std::move(spec)), fingerprint_(compute_fingerprint()) {}

void NodeDevices::set_socket(topo::SocketId socket, DeviceSpec spec) {
  overrides_[socket] = std::move(spec);
  fingerprint_ = compute_fingerprint();
}

std::uint64_t NodeDevices::compute_fingerprint() const {
  Hasher64 hasher;
  hasher.update_string(serialize_device_spec(default_));
  for (const auto& [socket, spec] : overrides_) {
    hasher.update_u64(socket);
    hasher.update_string(serialize_device_spec(spec));
  }
  return hasher.digest();
}

const DeviceRegistry& DeviceRegistry::builtin() {
  static const DeviceRegistry registry([] {
    std::vector<DevicePreset> presets;
    {
      DeviceSpec spec;  // paper defaults
      presets.push_back({"optane-gen1",
                         "first-generation Optane, the paper's testbed",
                         spec});
    }
    {
      DeviceSpec spec;  // published Optane 200-series deltas
      spec.optane.read_peak = gbps(51.0);
      spec.optane.write_peak = gbps(20.6);
      spec.optane.write_scaling_threads = 6.0;
      spec.optane.write_decline_start = 12.0;
      spec.upi.remote_write_ceiling = gbps(12.0);
      presets.push_back({"optane-gen2",
                         "gen2-like: ~30-50% more bandwidth, writes scale "
                         "further",
                         spec});
    }
    {
      DeviceSpec spec;
      spec.kind = DeviceKind::kCxl;
      presets.push_back({"cxl-like",
                         "Optane-class media behind a fat symmetric link: "
                         "uniform access, latency-taxed",
                         spec});
    }
    {
      DeviceSpec spec;
      spec.kind = DeviceKind::kDram;
      presets.push_back({"dram-like",
                         "DRAM-class bandwidth, no small-access "
                         "pathologies, socket-uniform",
                         spec});
    }
    return presets;
  }());
  return registry;
}

Expected<DevicePreset> DeviceRegistry::find(std::string_view name) const {
  for (const auto& preset : presets_) {
    if (preset.name == name) return preset;
  }
  std::vector<std::string> known;
  known.reserve(presets_.size());
  for (const auto& preset : presets_) known.push_back(preset.name);
  return make_error(format("unknown device preset '%.*s' (known: %s)",
                           static_cast<int>(name.size()), name.data(),
                           join(known, " | ").c_str()));
}

Expected<NodeDevices> parse_backend(std::string_view text) {
  const auto names = split(trim(text), '/');
  if (names.empty() || trim(names.front()).empty()) {
    return make_error("empty --backend value (want a preset name or "
                      "slash-separated per-socket names)");
  }
  const auto& registry = DeviceRegistry::builtin();
  auto first = registry.find(trim(names.front()));
  if (!first.has_value()) return Unexpected{first.error()};
  NodeDevices devices(first->spec);
  for (std::size_t socket = 1; socket < names.size(); ++socket) {
    auto preset = registry.find(trim(names[socket]));
    if (!preset.has_value()) return Unexpected{preset.error()};
    devices.set_socket(static_cast<topo::SocketId>(socket), preset->spec);
  }
  return devices;
}

}  // namespace pmemflow::devices
