// In-memory span recorder for the traced runs.
//
// A span is one call into a layer: name, start, end, the span that caused
// it (its parent) and the request it belongs to. Spans stay in memory while
// the run measures and are written out at the end, as Chrome trace-event
// JSON (viewable in Perfetto) and as a per-name summary of self time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root span
    std::uint64_t request = 0;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer& t, int index) : t_(t), index_(index) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  /// A disabled tracer records nothing; it times the same replay without
  /// spans, the reference for the tracing overhead.
  explicit Tracer(bool enabled = true) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Opens a span as a child of the innermost open span. `name` must be a
  /// string literal (it is stored by pointer).
  [[nodiscard]] Scope span(const char* name);
  /// Request id recorded on spans opened from now on.
  void set_request(std::uint64_t id) { request_ = id; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part its child spans cover, in ns.
  std::vector<std::int64_t> self_ns() const;

  /// Self times of every span named `name`, each multiplied by `per_ns`
  /// (1e-3 gives microseconds, 1e-6 milliseconds).
  std::vector<double> self_times(const std::string& name,
                                 double per_ns) const;
  /// Sum of the durations of the spans, from index `first` on, whose
  /// parent is a root span: the layer time of the traced operations.
  double child_total_s(std::size_t first) const;

  std::string chrome_trace_json() const;
  /// {"<name>": {"count": n, "self_ms": x, "total_ms": y}, ...}
  std::string summary_json() const;

 private:
  void close(int index);
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t request_ = 0;
};

}  // namespace perfbench
