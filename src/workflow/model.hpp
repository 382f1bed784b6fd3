// Workflow component models.
//
// An in situ workflow couples a *simulation* component (writer) with an
// *analytics* component (reader) through a PMEM streaming channel
// (paper §IV). A SimulationModel describes, deterministically, what
// each writer rank produces each iteration and how much bulk compute
// precedes the I/O; an AnalyticsModel describes the per-object compute
// the reader interleaves between reads. The workflow runner turns these
// into simulated rank processes.
//
// Both models are pure descriptions — they own no simulation state and
// can be evaluated repeatedly (the characterizer re-runs components
// standalone to measure I/O indexes, §IV-C). A model must not change
// behaviour after construction: the service's profile cache memoizes
// class fingerprints by model object identity.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "stack/channel.hpp"

namespace pmemflow::workflow {

/// Writer-side component model.
class SimulationModel {
 public:
  virtual ~SimulationModel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The snapshot part rank `rank` (of `total_ranks`) writes for
  /// iteration `version` (1-based). Must be deterministic.
  [[nodiscard]] virtual stack::SnapshotPart part_for(
      std::uint32_t rank, std::uint32_t total_ranks,
      std::uint64_t version) const = 0;

  /// Bulk compute time of one iteration for one rank (ns), given the
  /// total rank count (weak/strong scaling is the model's business).
  [[nodiscard]] virtual double compute_ns_per_iteration(
      std::uint32_t rank, std::uint32_t total_ranks) const = 0;
};

/// Reader-side component model.
class AnalyticsModel {
 public:
  virtual ~AnalyticsModel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Compute interleaved after reading one object of `object_size`
  /// bytes (ns). Read-only kernels return 0.
  [[nodiscard]] virtual double compute_ns_per_object(
      Bytes object_size) const = 0;
};

/// A complete workflow: one simulation and one analytics component with
/// a 1:1 rank pairing over a shared channel (paper §IV-C).
struct WorkflowSpec {
  std::string label;
  std::shared_ptr<const SimulationModel> simulation;
  std::shared_ptr<const AnalyticsModel> analytics;
  std::uint32_t ranks = 8;
  std::uint32_t iterations = 10;

  /// Which storage stack carries the channel.
  enum class Stack { kNvStream, kNova };
  Stack stack = Stack::kNvStream;

  /// Overrides the stack's default per-op software cost model (used by
  /// calibration sweeps and sensitivity studies).
  std::optional<stack::SoftwareCostModel> cost_override;

  /// Maximum snapshot versions simultaneously live in the channel
  /// (0 = unbounded). Models finite PMEM capacity: writers block until
  /// readers recycle old versions. Parallel mode only; serial mode
  /// requires 0 or >= iterations (all versions are live before any
  /// reader starts).
  std::uint32_t channel_capacity = 0;

  /// Verify reader payloads against the writer's generator. Adds host
  /// CPU cost only (simulated time is unaffected); figure benches keep
  /// it on — it is the end-to-end integrity check.
  bool verify_reads = true;
};

[[nodiscard]] const char* to_string(WorkflowSpec::Stack stack) noexcept;

/// Stable 64-bit digest of everything that determines a spec's
/// *behaviour*: launch parameters, stack, cost override, capacity, and
/// a behavioural sample of both component models (what each rank writes
/// for the first, second, and last iteration, per-rank compute, and the
/// analytics compute curve at the spec's own object sizes). The label
/// is deliberately excluded: two submissions of the same workflow class
/// under different job names fingerprint identically, which is what
/// lets the service layer's recommendation cache hit across resubmits.
///
/// Deterministic across runs (FNV-1a over fixed byte encodings, no
/// pointers, no addresses).
[[nodiscard]] std::uint64_t class_fingerprint(const WorkflowSpec& spec);

/// class_fingerprint plus the label — a full-identity hash usable with
/// unordered containers alongside operator==.
[[nodiscard]] std::uint64_t hash_value(const WorkflowSpec& spec);

/// Structural/behavioural equality: identical launch parameters, label,
/// and component models that are either the same object or sample to
/// the same behaviour over this spec's (rank, iteration) domain.
[[nodiscard]] bool operator==(const WorkflowSpec& a, const WorkflowSpec& b);

}  // namespace pmemflow::workflow
