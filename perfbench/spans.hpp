// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times each pmemflow layer from outside: it opens a span
// (name, start, end, parent) around every call it makes into a layer's
// public API, keeps the spans in memory while it runs, and writes them
// out as JSON once it has finished. Host time comes from
// std::chrono::steady_clock, relative to the recorder's construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  /// -1 while the span is still open.
  std::int64_t end_ns = -1;
  /// Index of the enclosing span in SpanRecorder::spans(); -1 at the top.
  std::int64_t parent = -1;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span nested in the innermost open one; returns its index.
  std::size_t begin(std::string name);
  /// Closes the innermost open span, which must be `index`.
  void end(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Durations (seconds) of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// {"spans": [{"name", "start_ns", "end_ns", "parent"}, ...]}
  void write_json(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null recorder (the untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

 private:
  SpanRecorder* recorder_;
  std::optional<std::size_t> index_;
};

}  // namespace perfbench
