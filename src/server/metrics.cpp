#include "server/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "util/json.hpp"

namespace aadlsched::server {

namespace {

constexpr std::size_t kStats = static_cast<std::size_t>(Stat::kCount);

// One row per Stat, in enum order; an empty section is a top-level key.
struct Row {
  std::string_view section, key;
};
constexpr Row kRows[] = {
    {"", "requests"}, {"", "analyze_requests"}, {"", "analyses_run"},
    {"cache", "hits_memory"}, {"cache", "hits_disk"}, {"cache", "misses"},
    {"cache", "stores"}, {"cache", "evictions"},
    {"cache", "corrupt_evictions"}, {"cache", "disk_store_failures"},
    {"cache", "entries"},
    {"checkpoints", "hits"}, {"checkpoints", "misses"},
    {"checkpoints", "stores"}, {"checkpoints", "resume_failures"},
    {"checkpoints", "evictions"}, {"checkpoints", "corrupt_evictions"},
    {"checkpoints", "disk_store_failures"}, {"checkpoints", "entries"},
    {"gc", "runs"}, {"gc", "removed_files"}, {"gc", "removed_bytes"},
    {"gc", "remove_failures"}, {"gc", "tmp_swept"},
    {"shared", "instances"},
    {"symbolic", "runs"}, {"symbolic", "zones"}, {"symbolic", "subsumptions"},
    {"symbolic", "max_dbm_dimension"},
    {"", "coalesced"}, {"", "protocol_errors"},
    {"outcomes", "error"}, {"outcomes", "schedulable"},
    {"outcomes", "not_schedulable"}, {"outcomes", "inconclusive"},
    {"", "in_flight"}, {"", "queue_depth"},
};
static_assert(std::size(kRows) == kStats, "one row per Stat");
static_assert(int(Stat::OutcomeInconclusive) - int(Stat::OutcomeError) ==
              int(core::Outcome::Inconclusive));

constexpr std::size_t idx(Stat id) { return static_cast<std::size_t>(id); }

}  // namespace

void Metrics::add(std::initializer_list<Stat> ids, std::int64_t n) {
  std::lock_guard lock(mu_);
  for (const Stat id : ids) s_[idx(id)] += static_cast<std::uint64_t>(n);
}

void Metrics::raise(Stat id, std::uint64_t v) {
  std::lock_guard lock(mu_);
  s_[idx(id)] = std::max(s_[idx(id)], v);
}

void Metrics::served(core::Outcome o, double latency_ms) {
  std::lock_guard lock(mu_);
  ++s_[idx(Stat::OutcomeError) + static_cast<std::size_t>(o)];
  if (latency_ring_.size() < kLatencyRing) {
    latency_ring_.push_back(latency_ms);
  } else {
    latency_ring_[latency_next_] = latency_ms;
    latency_next_ = (latency_next_ + 1) % kLatencyRing;
  }
  ++latency_total_;
  latency_max_ = std::max(latency_max_, latency_ms);
}

std::string Metrics::render_json(Gauges owned) const {
  std::uint64_t v[kStats];
  std::vector<double> ring;
  std::uint64_t samples = 0;
  double max_ms = 0;
  {
    std::lock_guard lock(mu_);
    std::copy(std::begin(s_), std::end(s_), v);
    ring = latency_ring_;
    samples = latency_total_;
    max_ms = latency_max_;
  }
  for (const auto& [id, value] : owned) v[idx(id)] = value;

  util::JsonWriter w;
  w.begin_object();
  std::string_view open;  // the section object currently open, if any
  for (std::size_t i = 0; i < kStats; ++i) {
    if (kRows[i].section != open) {
      if (!open.empty()) w.end_object();
      open = kRows[i].section;
      if (!open.empty()) w.key(open).begin_object();
    }
    w.key(kRows[i].key).value(v[i]);
  }
  if (!open.empty()) w.end_object();

  double p50_ms = 0, p95_ms = 0;
  if (!ring.empty()) {
    std::sort(ring.begin(), ring.end());
    const auto pct = [&](double p) {
      const std::size_t at = static_cast<std::size_t>(
          p * static_cast<double>(ring.size() - 1) + 0.5);
      return ring[std::min(at, ring.size() - 1)];
    };
    p50_ms = pct(0.50);
    p95_ms = pct(0.95);
  }
  w.key("latency").begin_object();
  w.key("samples").value(samples);
  w.key("window").value(static_cast<std::uint64_t>(ring.size()));
  w.key("p50_ms").value(p50_ms);
  w.key("p95_ms").value(p95_ms);
  w.key("max_ms").value(max_ms);
  w.end_object();
  w.key("uptime_ms")
      .value(std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start_)
                 .count());
  w.end_object();
  return std::move(w).str();
}

}  // namespace aadlsched::server
