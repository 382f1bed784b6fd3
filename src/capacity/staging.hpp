// DRAM staging tier: absorb writes at DRAM rate, drain to PMEM.
//
// Optane's write bandwidth is the scarcest resource in the paper's
// model (13.9 GB/s interleaved vs 80 GB/s DRAM). A staging tier sizes
// a per-socket DRAM buffer that absorbs snapshot writes at DRAM rate
// and drains them to the device asynchronously at device write
// bandwidth. While the buffer has room, the writer sees DRAM latency;
// once it fills, further bytes throttle to the drain rate — exactly
// the behaviour of a bounded write-behind cache. The tier is pure
// byte/time accounting; the workflow engine (workflow::Runner::run_jobs,
// one tier per socket shared by every job with a channel there)
// schedules the actual drain traffic and calls `drained()` as it
// completes.
#pragma once

#include "common/units.hpp"
#include "pmemsim/params.hpp"

namespace pmemflow::capacity {

struct StagingParams {
  /// DRAM bytes reserved for staging per socket. 0 disables the tier
  /// (writes go straight to the device, the pre-staging behaviour).
  Bytes stage_bytes = 0;
  /// Rate the writer fills the stage at (DRAM write bandwidth).
  Rate dram_write_bw = gbps(80.0);
  /// Rate the stage drains to the device at (device write bandwidth).
  Rate drain_write_bw = pmemsim::OptaneParams{}.write_peak;

  [[nodiscard]] bool enabled() const noexcept { return stage_bytes != 0; }

  friend bool operator==(const StagingParams&,
                         const StagingParams&) = default;
};

struct StagingStats {
  /// Write parts routed through the tier.
  std::uint64_t writes = 0;
  /// Writes fully absorbed at DRAM rate (no throttling).
  std::uint64_t hits = 0;
  Bytes bytes_staged = 0;
  Bytes bytes_throttled = 0;
};

/// What one absorbed write part cost and left behind.
struct AbsorbResult {
  /// Simulated time the writer is stalled for this part.
  SimDuration absorb_ns = 0;
  /// Bytes now occupying the stage (to drain later).
  Bytes staged_bytes = 0;
  /// True if the whole part fit at DRAM rate.
  bool hit = false;
};

/// One socket's staging buffer.
class StagingTier {
 public:
  explicit StagingTier(StagingParams params) : params_(params) {}

  [[nodiscard]] const StagingParams& params() const noexcept { return params_; }
  [[nodiscard]] bool enabled() const noexcept { return params_.enabled(); }
  [[nodiscard]] Bytes used() const noexcept { return used_; }
  [[nodiscard]] Bytes free() const noexcept {
    return params_.stage_bytes - used_;
  }
  [[nodiscard]] const StagingStats& stats() const noexcept { return stats_; }

  /// Absorbs one write part: as much as fits goes in at DRAM rate, the
  /// remainder throttles to the drain rate. Returns the writer-visible
  /// stall and how many bytes now sit in the stage.
  AbsorbResult absorb(Bytes part);

  /// The async drain completed for `bytes` (they reached the device).
  void drained(Bytes bytes);

 private:
  StagingParams params_;
  Bytes used_ = 0;
  StagingStats stats_;
};

}  // namespace pmemflow::capacity
