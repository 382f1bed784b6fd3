#include "spans.hpp"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::size_t SpanRecorder::begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    std::fprintf(stderr, "perfbench: span %s closed out of order\n",
                 spans_[index].name.c_str());
    std::abort();
  }
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

std::vector<double> SpanRecorder::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && span.name == name) out.push_back(span.seconds());
  }
  return out;
}

void SpanRecorder::write_json(std::ostream& out) const {
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"" << span.name
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << "}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name)
    : recorder_(recorder) {
  if (recorder_ != nullptr) index_ = recorder_->begin(std::move(name));
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->end(*index_);
}

}  // namespace perfbench
