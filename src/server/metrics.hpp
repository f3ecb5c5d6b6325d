// Service observability: one ordered table of integer stats plus a bounded
// latency sample ring, rendered as the `stats` response. One mutex guards
// it all — updates are a few integer stores, and a single lock keeps a
// rendered snapshot consistent (hits + misses == lookups). Counters only
// grow (the concurrent-use test asserts it); gauges float freely.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"

namespace aadlsched::server {

/// Every integer stat, in the order the `stats` object renders it (one
/// `{section, key}` row each in metrics.cpp). The rendered bytes are a
/// contract: scripts and perfbench match the keys as strings.
enum class Stat : std::uint8_t {
  Requests, AnalyzeRequests,  // all ops (malformed lines too); analyze ops
  AnalysesRun,                // explored: a miss that was not coalesced
  CacheHitsMemory, CacheHitsDisk, CacheMisses, CacheStores,
  CacheEvictions, CacheCorruptEvictions, CacheDiskStoreFailures, CacheEntries,
  // Warm re-exploration (checkpoint tier, DESIGN.md §12).
  CheckpointHits, CheckpointMisses, CheckpointStores, CheckpointResumeFailures,
  CheckpointEvictions, CheckpointCorruptEvictions,
  CheckpointDiskStoreFailures, CheckpointEntries,
  // Shared-directory maintenance (DESIGN.md §15), owned by the DiskJanitor.
  GcRuns, GcRemovedFiles, GcRemovedBytes, GcRemoveFailures, GcTmpSwept,
  SharedInstances,  // live daemons on the cache dir (0 without a disk tier)
  // Symbolic engine (DESIGN.md §16); the DBM dimension is a high-water mark.
  SymbolicRuns, SymbolicZones, SymbolicSubsumptions, SymbolicMaxDbmDimension,
  Coalesced,  // requests that piggybacked an in-flight run
  ProtocolErrors,
  // In core::Outcome order.
  OutcomeError, OutcomeSchedulable, OutcomeNotSchedulable, OutcomeInconclusive,
  InFlight, QueueDepth,  // gauges: executing now; admitted, not yet running
  kCount
};

class Metrics {
 public:
  /// Stat values owned elsewhere (caches, janitor), set at render time.
  using Gauges = std::initializer_list<std::pair<Stat, std::uint64_t>>;

  /// Adds `n` to each of `ids` under one lock; gauges take negative `n`.
  void add(std::initializer_list<Stat> ids, std::int64_t n = 1);
  /// Raises the high-water mark `id` to at least `v`.
  void raise(Stat id, std::uint64_t v);
  /// One served analyze response: counts its outcome and samples its
  /// submit-to-response latency.
  void served(core::Outcome o, double latency_ms);

  /// The `stats` object: the table with `owned` written over it, then the
  /// latency window and uptime. `latency.samples` is all-time; p50/p95 cover
  /// only the last `latency.window` samples, not the whole soak.
  std::string render_json(Gauges owned = {}) const;

 private:
  static constexpr std::size_t kLatencyRing = 4096;

  mutable std::mutex mu_;
  std::uint64_t s_[static_cast<std::size_t>(Stat::kCount)] = {};
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::uint64_t latency_total_ = 0;
  double latency_max_ = 0;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

}  // namespace aadlsched::server
