// In-memory span recorder for the traced replay.
//
// A span has a name, the request it belongs to, its parent span, and start
// and end times.  Spans stay in memory until the run ends and are then
// written out as JSON lines.  A layer's self time is its span time minus the
// time its child spans cover; children of one span never overlap here (the
// replay is single-threaded), so that is the span time minus the sum of its
// children.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (-1 when disabled).
  int Begin(const char* name, std::uint64_t request, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, request, parent, Now(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) {
    if (span >= 0) spans_[span].end_ns = Now();
  }

  /// Self time in microseconds of every span called `name`.
  std::vector<double> SelfMicros(const std::string& name) const;
  /// Writes one JSON object per span.  Returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, std::uint64_t request, int parent = -1)
      : tracer_(t), span_(t->Begin(name, request, parent)) {}
  ~Scoped() { tracer_->End(span_); }
  int id() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace servebench
