// Capacity lifecycle models: version retention + GC (nvstream) and
// log/journal growth with checkpoint-truncate (novafs).
//
// nvstream keeps immutable snapshot versions; with retain-k retention
// the channel holds the k most recent committed versions live and GC
// reclaims everything older. Reclaiming is not free: superseded
// snapshots are rewritten out of the log at device write cost, which
// the workflow engine (workflow::Runner::run_jobs, which runs pair,
// co-located and DAG jobs) charges as a write flow, or the service
// layer as dispatch overhead.
//
// novafs grows per-inode extent logs and a directory journal with
// every operation and truncates them at periodic checkpoints
// (compact_directory); between checkpoints the metadata footprint
// grows linearly in the op count. The growth model here sizes that
// peak so a placement lease covers it.
//
// All functions are pure byte/time math — the pieces the runner and
// the service compose onto their own clocks.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "pmemsim/params.hpp"

namespace pmemflow::capacity {

/// nvstream version-retention + GC knobs.
struct RetentionParams {
  /// Committed versions kept live behind the reader (retain-k). 0 =
  /// the pre-capacity behaviour: a version is recycled the moment its
  /// readers finish, and no GC traffic is modelled.
  std::uint32_t retain_versions = 0;
  /// Rate at which GC rewrites superseded snapshots out of the log
  /// (device interleaved write peak by default).
  Rate gc_write_bw = pmemsim::OptaneParams{}.write_peak;
  /// Whether GC runs at all. Without GC superseded snapshots pile up
  /// until the channel finishes — the capacity-blind regime the
  /// service bench collapses under.
  bool gc = true;

  [[nodiscard]] bool enabled() const noexcept { return retain_versions > 0; }
};

/// novafs log/journal growth knobs.
struct NovaGrowthParams {
  /// Extent-record + inode-log bytes appended per channel operation.
  double log_bytes_per_op = 96.0;
  /// Directory-journal bytes appended per channel operation.
  double journal_bytes_per_op = 64.0;
  /// Operations between checkpoint-truncates (compact_directory): the
  /// metadata footprint saw-tooths with this period.
  std::uint64_t checkpoint_interval_ops = 65536;
};

/// Live versions a retain-k channel holds at steady state (>= 1; a
/// run shorter than k cannot hold more versions than it commits).
[[nodiscard]] std::uint32_t retained_versions(const RetentionParams& retention,
                                              std::uint32_t iterations) noexcept;

/// Peak snapshot bytes resident under retain-k retention.
[[nodiscard]] Bytes retained_bytes(Bytes snapshot_bytes_per_iteration,
                                   std::uint32_t iterations,
                                   const RetentionParams& retention) noexcept;

/// Snapshot bytes GC reclaims over a full run: every version beyond
/// the retained window is superseded and rewritten out. 0 when
/// retention (or GC) is off.
[[nodiscard]] Bytes gc_reclaimable_bytes(Bytes snapshot_bytes_per_iteration,
                                         std::uint32_t iterations,
                                         const RetentionParams& retention) noexcept;

/// Simulated time GC spends reclaiming `bytes` at the retention GC
/// write rate.
[[nodiscard]] SimDuration gc_drain_ns(Bytes bytes,
                                      const RetentionParams& retention) noexcept;

/// Peak metadata (log + journal) bytes between checkpoint-truncates
/// for a run of `iterations` x `ops_per_iteration` operations.
[[nodiscard]] Bytes metadata_peak_bytes(const NovaGrowthParams& growth,
                                        std::uint64_t ops_per_iteration,
                                        std::uint32_t iterations) noexcept;

/// The byte lease a channel placement charges to its socket's pool.
struct ChannelLease {
  /// Peak live snapshot volume (retained versions).
  Bytes snapshot_bytes = 0;
  /// Peak log/journal metadata between checkpoints.
  Bytes metadata_bytes = 0;

  [[nodiscard]] Bytes total() const noexcept {
    return snapshot_bytes + metadata_bytes;
  }
};

/// Sizes the lease for one channel placement from its profile numbers.
[[nodiscard]] ChannelLease estimate_lease(Bytes snapshot_bytes_per_iteration,
                                          std::uint64_t ops_per_iteration,
                                          std::uint32_t iterations,
                                          const RetentionParams& retention,
                                          const NovaGrowthParams& growth) noexcept;

}  // namespace pmemflow::capacity
