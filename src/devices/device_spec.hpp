// The value description of one memory backend.
//
// A DeviceSpec is a backend kind plus its parameters. It is the one
// place that knows what a kind means: which effective-bandwidth curves
// its device charges against (`bandwidth_model`), whether its locality
// is socket-uniform, and where its small-access regime starts. It also
// serializes itself canonically (`key=value` pairs, round-trip exact)
// and fingerprints itself for cache keys.
//
// Every backend runs on the generic fixed-point solver of
// pmemsim::OptaneRateAllocator. Optane uses its OptaneParams curves
// directly; DRAM and CXL lower their own smaller parameter blocks onto
// those curves (`dram_curves`, `cxl_curves`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/expected.hpp"
#include "interconnect/upi.hpp"
#include "pmemsim/bandwidth.hpp"
#include "pmemsim/params.hpp"

namespace pmemflow::devices {

enum class DeviceKind { kOptane, kDram, kCxl };

[[nodiscard]] const char* to_string(DeviceKind kind);
[[nodiscard]] Expected<DeviceKind> parse_device_kind(std::string_view text);

/// DRAM-like backend: symmetric bandwidth, no small-access collapse.
///
/// Models byte-addressable storage with DRAM-class bandwidth, the
/// "what if storage were as fast as memory" end of the device spectrum.
/// Reads and writes scale the same way, writes never decline with
/// concurrency, and sub-stripe accesses carry no collision or stall
/// pathology (only the calibrated single-thread random-access ceiling).
/// Access is socket-uniform: the pool behaves as node-interleaved
/// memory, so placement (LocW vs LocR) stops mattering by construction.
struct DramParams {
  Rate read_peak = gbps(100.0);
  Rate write_peak = gbps(80.0);
  /// Both classes saturate at the same (memory-channel) concurrency.
  double read_scaling_threads = 8.0;
  double write_scaling_threads = 8.0;
  /// Symmetric idle access latency (ns).
  double latency_ns = 90.0;
  /// Per-flow streaming ceiling (single-thread sequential rate).
  Rate per_thread_cap = gbps(12.0);
  /// Per-flow ceiling for sub-stripe-granularity accesses: small random
  /// access is slower than streaming even on DRAM, but it does not
  /// *collapse* with concurrency the way Optane's does.
  Rate per_thread_small_cap = gbps(8.0);
};

/// Curve parameters implementing DramParams on the shared solver;
/// everything Optane-specific (write decline, small-access collapse)
/// is zeroed.
[[nodiscard]] pmemsim::OptaneParams dram_curves(const DramParams& params);

/// CXL-like backend: media behind a fat symmetric link.
///
/// Models a memory expander on a CXL-class interconnect: the placement
/// dimension vanishes (every socket sees the device at the same
/// distance, so locality is uniform), but every access pays the link
/// hop on top of media latency, and aggregate bandwidth is capped by
/// the link. The media behind the link defaults to Optane-class curves;
/// swap `media` to put different media behind the link.
struct CxlParams {
  /// Effective-bandwidth curves of the media behind the link.
  pmemsim::OptaneParams media{};
  /// Link hop added to every access, read and write (ns).
  double link_latency_ns = 80.0;
  /// Symmetric link bandwidth; caps both media peaks.
  Rate link_bandwidth = gbps(39.4);
};

/// Curve parameters implementing CxlParams on the shared solver:
/// media curves, latency-taxed by the hop and peak-capped by the link.
[[nodiscard]] pmemsim::OptaneParams cxl_curves(const CxlParams& params);

/// Value description of one backend. Only the parameter block matching
/// `kind` is meaningful (and serialized); the others stay at defaults.
struct DeviceSpec {
  DeviceKind kind = DeviceKind::kOptane;
  pmemsim::OptaneParams optane{};
  interconnect::UpiParams upi{};
  DramParams dram{};
  CxlParams cxl{};
  /// Capacity of the backing space in bytes. 0 (the default) means
  /// "sized by the platform": device-building callers fall back to the
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
  /// cannot matter on it): only Optane is local/remote asymmetric.
  [[nodiscard]] bool uniform_locality() const noexcept {
    return kind != DeviceKind::kOptane;
  }

  /// The effective-bandwidth curves this backend's device charges
  /// against. Only Optane has a remote path, so only it carries `upi`.
  [[nodiscard]] pmemsim::BandwidthModel bandwidth_model() const;
};

/// Canonical `kind=... key=value ...` form; fixed field order, doubles
/// printed round-trip exact. parse(serialize(spec)) == spec. Parsing
/// rejects unknown keys, malformed values, negative or out-of-range
/// integers and non-finite doubles.
[[nodiscard]] std::string serialize_device_spec(const DeviceSpec& spec);
[[nodiscard]] Expected<DeviceSpec> parse_device_spec(std::string_view text);

}  // namespace pmemflow::devices
