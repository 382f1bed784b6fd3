#include "devices/device_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Parses all of `text` into `target`, which it leaves untouched on
/// failure. Rejects a malformed value, a signed or too-large integer
/// (no wrap into the field's type) and a non-finite double.
template <typename T>
bool parse_value(const std::string& text, T& target) {
  if constexpr (std::is_floating_point_v<T>) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
      return false;
    }
    target = value;
    return true;
  } else {
    const char* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, target);
    return ec == std::errc{} && ptr == last;
  }
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

pmemsim::OptaneParams dram_curves(const DramParams& params) {
  pmemsim::OptaneParams curves;
  curves.read_peak = params.read_peak;
  curves.write_peak = params.write_peak;
  curves.read_scaling_threads = params.read_scaling_threads;
  curves.write_scaling_threads = params.write_scaling_threads;
  curves.write_decline_per_thread = 0.0;
  curves.read_latency_ns = params.latency_ns;
  curves.write_latency_ns = params.latency_ns;
  curves.small_access_coeff = 0.0;
  curves.small_stall_quad = 0.0;
  curves.per_thread_small_read_cap = params.per_thread_small_cap;
  curves.per_thread_small_write_cap = params.per_thread_small_cap;
  curves.per_thread_read_cap = params.per_thread_cap;
  curves.per_thread_write_cap = params.per_thread_cap;
  return curves;
}

pmemsim::OptaneParams cxl_curves(const CxlParams& params) {
  pmemsim::OptaneParams curves = params.media;
  curves.read_latency_ns += params.link_latency_ns;
  curves.write_latency_ns += params.link_latency_ns;
  curves.read_peak = std::min(curves.read_peak, params.link_bandwidth);
  curves.write_peak = std::min(curves.write_peak, params.link_bandwidth);
  return curves;
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

pmemsim::BandwidthModel DeviceSpec::bandwidth_model() const {
  switch (kind) {
    case DeviceKind::kDram:
      return {dram_curves(dram), interconnect::UpiModel()};
    case DeviceKind::kCxl:
      return {cxl_curves(cxl), interconnect::UpiModel()};
    case DeviceKind::kOptane:
      break;
  }
  return {optane, interconnect::UpiModel(upi)};
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
    bool known = false;
    bool parsed = false;
    const auto assign = [&](const auto& fields) {
      for (const auto& [name, target] : fields) {
        if (known || name != key) continue;
        known = true;
        parsed = parse_value(value, *target);
      }
    };
    assign(map.doubles);
    assign(map.u64s);
    assign(map.u32s);
    if (!known) {
      return make_error(format("unknown device spec key '%s' for kind %s",
                               key.c_str(), to_string(spec.kind)));
    }
    if (!parsed) {
      return make_error(format("device spec key '%s' has malformed or "
                               "out-of-range value '%s'",
                               key.c_str(), value.c_str()));
    }
  }
  return spec;
}

}  // namespace pmemflow::devices
