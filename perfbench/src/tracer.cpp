#include "tracer.hpp"

#include <cstdio>
#include <map>

namespace perfbench {

Tracer::Scope Tracer::span(const char* name) {
  if (!enabled_) return Scope(*this, -1);
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(*this, index);
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  return self;
}

std::vector<double> Tracer::self_times(const std::string& name,
                                       double per_ns) const {
  const std::vector<std::int64_t> self = self_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (name == spans_[i].name) out.push_back(double(self[i]) * per_ns);
  return out;
}

double Tracer::child_total_s(std::size_t first) const {
  double total = 0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].parent < 0)
      total += double(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

std::string Tracer::chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %llu, "
                  "\"span\": %zu, \"parent\": %d}}",
                  i ? ",\n" : "", s.name, double(s.start_ns) * 1e-3,
                  double(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.request), i, s.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::summary_json() const {
  struct Row {
    std::uint64_t count = 0;
    double self_ms = 0;
    double total_ms = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.self_ms += double(self[i]) * 1e-6;
    r.total_ms += double(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
  }
  std::string out = "{";
  char buf[256];
  bool first = true;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf,
                  "%s\n  \"%s\": {\"count\": %llu, \"self_ms\": %.6f, "
                  "\"total_ms\": %.6f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(r.count), r.self_ms,
                  r.total_ms);
    out += buf;
    first = false;
  }
  out += "\n}\n";
  return out;
}

}  // namespace perfbench
