#include "devices/registry.hpp"

#include <cstdlib>
#include <utility>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace pmemflow::devices {
namespace {

/// Mutable view of the serializable fields of one DeviceSpec, in
/// canonical order. Serialization walks it forward; parsing resolves
/// keys against it — one table, so the two can never disagree.
struct FieldMap {
  std::vector<std::pair<std::string, double*>> doubles;
  std::vector<std::pair<std::string, std::uint64_t*>> u64s;
  std::vector<std::pair<std::string, std::uint32_t*>> u32s;
};

void map_optane_params(FieldMap& map, const std::string& prefix,
                       pmemsim::OptaneParams& p) {
  const auto d = [&](const char* name, double& ref) {
    map.doubles.emplace_back(prefix + name, &ref);
  };
  d("read_peak", p.read_peak);
  d("read_scaling_threads", p.read_scaling_threads);
  d("write_peak", p.write_peak);
  d("write_scaling_threads", p.write_scaling_threads);
  d("write_decline_start", p.write_decline_start);
  d("write_decline_per_thread", p.write_decline_per_thread);
  d("write_floor_fraction", p.write_floor_fraction);
  d("cache_thrash_threshold", p.cache_thrash_threshold);
  d("cache_thrash_coeff", p.cache_thrash_coeff);
  d("mixed_interference", p.mixed_interference);
  d("small_access_flows", p.small_access_flows);
  d("small_access_coeff", p.small_access_coeff);
  d("small_stall_knee", p.small_stall_knee);
  d("small_stall_quad", p.small_stall_quad);
  d("per_thread_small_read_cap", p.per_thread_small_read_cap);
  d("per_thread_small_write_cap", p.per_thread_small_write_cap);
  d("read_latency_ns", p.read_latency_ns);
  d("write_latency_ns", p.write_latency_ns);
  d("latency_load_coeff", p.latency_load_coeff);
  d("per_thread_read_cap", p.per_thread_read_cap);
  d("per_thread_write_cap", p.per_thread_write_cap);
  map.u64s.emplace_back(prefix + "small_access_threshold",
                        &p.small_access_threshold);
  map.u64s.emplace_back(prefix + "stripe_chunk", &p.stripe_chunk);
  map.u32s.emplace_back(prefix + "interleave_ways", &p.interleave_ways);
}

void map_upi_params(FieldMap& map, const std::string& prefix,
                    interconnect::UpiParams& p) {
  const auto d = [&](const char* name, double& ref) {
    map.doubles.emplace_back(prefix + name, &ref);
  };
  d("link_bandwidth", p.link_bandwidth);
  d("remote_write_ceiling", p.remote_write_ceiling);
  d("remote_read_latency_ns", p.remote_read_latency_ns);
  d("remote_write_latency_ns", p.remote_write_latency_ns);
  d("write_contention_knee", p.write_contention_knee);
  d("write_contention_slope", p.write_contention_slope);
  d("write_contention_floor", p.write_contention_floor);
  d("read_contention_knee", p.read_contention_knee);
  d("read_contention_slope", p.read_contention_slope);
}

void map_dram_params(FieldMap& map, DramParams& p) {
  const auto d = [&](const char* name, double& ref) {
    map.doubles.emplace_back(std::string("dram.") + name, &ref);
  };
  d("read_peak", p.read_peak);
  d("write_peak", p.write_peak);
  d("read_scaling_threads", p.read_scaling_threads);
  d("write_scaling_threads", p.write_scaling_threads);
  d("latency_ns", p.latency_ns);
  d("per_thread_cap", p.per_thread_cap);
  d("per_thread_small_cap", p.per_thread_small_cap);
}

/// Only the parameter block matching `spec.kind` is mapped: inactive
/// blocks neither serialize nor perturb the fingerprint.
FieldMap fields_of(DeviceSpec& spec) {
  FieldMap map;
  // Common to every kind: the capacity of the backing space (0 =
  // platform-sized). First u64 so it serializes ahead of the
  // kind-specific integer fields.
  map.u64s.emplace_back("capacity", &spec.capacity);
  switch (spec.kind) {
    case DeviceKind::kOptane:
      map_optane_params(map, "optane.", spec.optane);
      map_upi_params(map, "upi.", spec.upi);
      break;
    case DeviceKind::kDram:
      map_dram_params(map, spec.dram);
      break;
    case DeviceKind::kCxl:
      map_optane_params(map, "media.", spec.cxl.media);
      map.doubles.emplace_back("cxl.link_latency_ns",
                               &spec.cxl.link_latency_ns);
      map.doubles.emplace_back("cxl.link_bandwidth",
                               &spec.cxl.link_bandwidth);
      break;
  }
  return map;
}

}  // namespace

const char* to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kOptane: return "optane";
    case DeviceKind::kDram: return "dram";
    case DeviceKind::kCxl: return "cxl";
  }
  return "?";
}

Expected<DeviceKind> parse_device_kind(std::string_view text) {
  if (text == "optane") return DeviceKind::kOptane;
  if (text == "dram") return DeviceKind::kDram;
  if (text == "cxl") return DeviceKind::kCxl;
  return make_error(format("unknown device kind '%.*s' "
                           "(optane | dram | cxl)",
                           static_cast<int>(text.size()), text.data()));
}

std::uint64_t DeviceSpec::fingerprint() const {
  Hasher64 hasher;
  hasher.update_string(serialize_device_spec(*this));
  return hasher.digest();
}

Bytes DeviceSpec::small_access_threshold() const noexcept {
  switch (kind) {
    case DeviceKind::kOptane: return optane.small_access_threshold;
    case DeviceKind::kCxl: return cxl.media.small_access_threshold;
    case DeviceKind::kDram: return 0;  // no small-access regime
  }
  return 0;
}

std::unique_ptr<MemoryDevice> DeviceSpec::instantiate(
    sim::Engine& engine, topo::SocketId socket, Bytes space_bytes) const {
  switch (kind) {
    case DeviceKind::kOptane:
      return std::make_unique<OptaneDevice>(engine, socket, space_bytes,
                                            optane, upi);
    case DeviceKind::kDram:
      return std::make_unique<DramDevice>(engine, socket, space_bytes, dram);
    case DeviceKind::kCxl:
      return std::make_unique<CxlDevice>(engine, socket, space_bytes, cxl);
  }
  PMEMFLOW_ASSERT_MSG(false, "unreachable: bad DeviceKind");
  return nullptr;
}

std::string serialize_device_spec(const DeviceSpec& spec) {
  DeviceSpec copy = spec;
  FieldMap map = fields_of(copy);
  std::vector<std::string> parts;
  parts.push_back(format("kind=%s", to_string(copy.kind)));
  for (const auto& [name, value] : map.doubles) {
    parts.push_back(format("%s=%.17g", name.c_str(), *value));
  }
  for (const auto& [name, value] : map.u64s) {
    parts.push_back(format("%s=%llu", name.c_str(),
                           static_cast<unsigned long long>(*value)));
  }
  for (const auto& [name, value] : map.u32s) {
    parts.push_back(format("%s=%u", name.c_str(), *value));
  }
  return join(parts, " ");
}

Expected<DeviceSpec> parse_device_spec(std::string_view text) {
  std::vector<std::string> tokens;
  for (const auto& token : split(text, ' ')) {
    if (!trim(token).empty()) tokens.push_back(std::string(trim(token)));
  }
  if (tokens.empty() || !starts_with(tokens.front(), "kind=")) {
    return make_error("device spec must start with kind=<optane|dram|cxl>");
  }
  auto kind = parse_device_kind(std::string_view(tokens.front()).substr(5));
  if (!kind.has_value()) return Unexpected{kind.error()};

  DeviceSpec spec;
  spec.kind = *kind;
  FieldMap map = fields_of(spec);
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto equals = tokens[i].find('=');
    if (equals == std::string::npos) {
      return make_error(format("device spec token '%s' is not key=value",
                               tokens[i].c_str()));
    }
    const std::string key = tokens[i].substr(0, equals);
    const std::string value = tokens[i].substr(equals + 1);
    char* end = nullptr;
    bool known = false;
    for (const auto& [name, target] : map.doubles) {
      if (name != key) continue;
      *target = std::strtod(value.c_str(), &end);
      known = true;
      break;
    }
    for (const auto& [name, target] : map.u64s) {
      if (known || name != key) continue;
      *target = std::strtoull(value.c_str(), &end, 10);
      known = true;
      break;
    }
    for (const auto& [name, target] : map.u32s) {
      if (known || name != key) continue;
      *target =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), &end, 10));
      known = true;
      break;
    }
    if (!known) {
      return make_error(format("unknown device spec key '%s' for kind %s",
                               key.c_str(), to_string(spec.kind)));
    }
    if (end == value.c_str() || *end != '\0') {
      return make_error(format("device spec key '%s' has malformed value "
                               "'%s'",
                               key.c_str(), value.c_str()));
    }
  }
  return spec;
}

NodeDevices::NodeDevices() {
  // Every default-constructed node has the same specs: digest them once.
  static const std::uint64_t kDefaultFingerprint = compute_fingerprint();
  fingerprint_ = kDefaultFingerprint;
}

NodeDevices::NodeDevices(DeviceSpec spec)
    : default_(std::move(spec)), fingerprint_(compute_fingerprint()) {}

NodeDevices::NodeDevices(pmemsim::OptaneParams optane,
                         interconnect::UpiParams upi) {
  default_.optane = optane;
  default_.upi = upi;
  fingerprint_ = compute_fingerprint();
}

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
