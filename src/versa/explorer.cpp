#include "versa/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <optional>
#include <thread>

#include "util/flat_set.hpp"
#include "util/thread_pool.hpp"

namespace aadlsched::versa {

using acsr::Label;
using acsr::TermId;
using acsr::Transition;

namespace {

using Clock = std::chrono::steady_clock;

/// Parent link for counterexample reconstruction, stored flat (one packed
/// entry per discovered state instead of an unordered_map node).
struct ParentLink {
  TermId source = acsr::kNil;
  Label label;
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Stuck: no transitions at all, or nothing but instantaneous self-loops
/// (e.g. a full drop-protocol queue absorbing environment events while time
/// is frozen) — time can never progress again.
bool is_stuck(TermId state, const std::vector<Transition>& fan) {
  bool stuck = true;
  for (const Transition& tr : fan)
    stuck &= !tr.label.is_timed() && tr.target == state;
  return stuck;
}

void reconstruct_trace(ExploreResult& result,
                       const util::FlatIdMap<ParentLink>& parent) {
  std::vector<Step> rev;
  TermId cur = result.first_deadlock;
  while (cur != result.initial) {
    const ParentLink* link = parent.find(cur);
    if (!link) break;  // initial state itself deadlocked
    rev.push_back(Step{link->label, cur});
    cur = link->source;
  }
  std::reverse(rev.begin(), rev.end());
  result.trace = std::move(rev);
}

}  // namespace

ExploreResult explore(acsr::Semantics& sem, TermId initial,
                      const ExploreOptions& opts) {
  const auto t0 = Clock::now();
  const acsr::Semantics::Stats stats_before = sem.stats();
  ExploreResult result;

  Reducer reducer(sem, opts.symmetry_model, opts.reduction);
  // All stored states are canonical orbit representatives (identity when
  // the reduction layer is off or inert).
  result.initial = reducer.canonical(initial);

  util::FlatIdMap<ParentLink> parent;
  util::FlatIdSet seen;
  std::deque<TermId> frontier;

  std::uint64_t expanded = 0;
  bool recording = true;

  // Rolling level boundary so the partial verdict can say "no deadlock
  // within BFS depth d" (O(1) space: count nodes left in the current
  // level).
  std::uint64_t level_remaining = 1;
  std::uint64_t next_level = 0;

  if (opts.resume && !opts.resume->empty()) {
    // Warm start: seed the visited set, both frontiers and every counter
    // from the paused run. The deque layout below (current-level remainder
    // followed by the next level) is exactly the loop invariant, so the
    // resumed BFS is indistinguishable from one that never stopped — except
    // that parent links are gone, so no trace can be recorded.
    const Wavefront& w = *opts.resume;
    result.initial = w.initial;
    seen.reserve(w.visited.size());
    for (const TermId s : w.visited) seen.insert(s);
    frontier.insert(frontier.end(), w.frontier.begin(), w.frontier.end());
    frontier.insert(frontier.end(), w.next_frontier.begin(),
                    w.next_frontier.end());
    level_remaining = w.frontier.size();
    next_level = w.next_frontier.size();
    result.states = w.states;
    result.transitions = w.transitions;
    result.depth = w.depth;
    result.peak_frontier = std::max<std::uint64_t>(w.peak_frontier,
                                                   frontier.size());
    result.deadlock_count = w.deadlock_count;
    result.deadlock_found = w.deadlock_found;
    result.first_deadlock = w.first_deadlock;
    recording = false;
  } else {
    seen.insert(result.initial);
    frontier.push_back(result.initial);
    result.states = 1;
    result.peak_frontier = 1;
  }

  // Hash-cons tables + fan memo + flat visited/parent tables + frontier.
  // The flat tables report their actual footprint, not a per-node guess.
  const auto approx_memory = [&]() -> std::uint64_t {
    return sem.context().approx_bytes() + sem.approx_bytes() +
           seen.approx_bytes() + parent.approx_bytes() +
           frontier.size() * sizeof(TermId);
  };
  util::BudgetTracker tracker(opts.budget, approx_memory);

  const auto finish = [&] {
    result.worker_states = {expanded};
    result.sem_stats.computed = sem.stats().computed - stats_before.computed;
    result.sem_stats.memo_hits =
        sem.stats().memo_hits - stats_before.memo_hits;
    // Reported even when no memory budget probed it, so bytes/state can be
    // read off any run.
    result.approx_memory_bytes = approx_memory();
    if (reducer.active()) {
      result.symmetry_groups = opts.symmetry_model->groups().size();
      result.states_saved = reducer.stats().states_saved;
      result.commuted_expansions = reducer.stats().commuted_expansions;
    }
    result.wall_ms = ms_since(t0);
  };

  // Snapshot the paused BFS for a later warm resume. Only meaningful at the
  // loop top, where the frontier deque is exactly [current-level remainder]
  // ++ [next level] — both early returns below sit there.
  const auto capture_wavefront = [&] {
    if (!opts.capture) return;
    Wavefront& w = *opts.capture;
    w = {};
    w.initial = result.initial;
    w.frontier.assign(frontier.begin(),
                      frontier.begin() + static_cast<std::ptrdiff_t>(
                                             level_remaining));
    w.next_frontier.assign(frontier.begin() + static_cast<std::ptrdiff_t>(
                                                  level_remaining),
                           frontier.end());
    w.visited.reserve(seen.size());
    seen.for_each([&](std::uint32_t s) { w.visited.push_back(s); });
    w.states = result.states;
    w.transitions = result.transitions;
    w.depth = result.depth;
    w.peak_frontier = result.peak_frontier;
    w.deadlock_count = result.deadlock_count;
    w.deadlock_found = result.deadlock_found;
    w.first_deadlock = result.first_deadlock;
  };

  while (!frontier.empty()) {
    // The state cap is enforced here (not mid-fan) so a capped run stops on
    // a state boundary with a consistent wavefront for checkpointing.
    if (result.states >= opts.max_states) {
      result.stop = util::StopReason::MaxStates;
      capture_wavefront();
      finish();
      return result;  // complete stays false: partial result
    }
    const util::BudgetStatus budget = tracker.check(result.states);
    if (budget.signal == util::BudgetSignal::MemoryPressure && recording) {
      // Graceful degradation: give the run a second life by releasing the
      // parent links (usually the largest non-essential structure) before
      // giving up on the verdict itself.
      parent = {};
      recording = false;
      result.trace_dropped = true;
      tracker.note_degraded();
    } else if (budget.signal != util::BudgetSignal::Proceed) {
      result.stop = budget.reason;
      capture_wavefront();
      finish();
      return result;  // complete stays false: partial result
    }

    if (level_remaining == 0) {
      ++result.depth;
      level_remaining = next_level;
      next_level = 0;
    }
    const TermId state = frontier.front();
    frontier.pop_front();
    --level_remaining;

    std::vector<Transition> fan = sem.prioritized(state);
    ++expanded;
    if (is_stuck(state, fan)) {
      ++result.deadlock_count;
      if (!result.deadlock_found) {
        result.deadlock_found = true;
        result.first_deadlock = state;
      }
      if (opts.stop_at_first_deadlock) break;
      continue;
    }
    reducer.linearize(state, fan);
    for (const Transition& tr : fan) {
      ++result.transitions;
      const TermId target = reducer.canonical(tr.target);
      if (seen.insert(target)) {
        if (recording) parent.emplace(target, ParentLink{state, tr.label});
        ++result.states;
        ++next_level;
        frontier.push_back(target);
        result.peak_frontier =
            std::max<std::uint64_t>(result.peak_frontier, frontier.size());
      }
    }
  }

  result.complete =
      frontier.empty() || (result.deadlock_found && opts.stop_at_first_deadlock);

  if (result.deadlock_found && recording) reconstruct_trace(result, parent);
  finish();
  return result;
}

ExploreResult explore_parallel(acsr::Context& ctx, TermId initial,
                               const ExploreOptions& opts,
                               const ParallelExploreOptions& popts) {
  const auto t0 = Clock::now();
  std::size_t workers = popts.workers;
  if (workers == 0)
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  ExploreResult result;

  // One Semantics (and one Reducer: its memos are worker-local too) per
  // worker, so the hot path takes no lock at all on a memo hit.
  // Canonicalization interns terms, which is safe under shared mode; the
  // canonical function itself is per-run deterministic, so every worker
  // computes the same representative for the same state.
  std::vector<std::unique_ptr<acsr::Semantics>> sems;
  std::vector<std::unique_ptr<Reducer>> reducers;
  sems.reserve(workers);
  reducers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    sems.push_back(std::make_unique<acsr::Semantics>(ctx));
    reducers.push_back(std::make_unique<Reducer>(
        *sems.back(), opts.symmetry_model, opts.reduction));
  }
  result.initial = reducers[0]->canonical(initial);

  // The hash-cons index with identity equality: a state is its own entry.
  util::HashIndex visited;
  visited.set_shared(workers > 1);

  util::FlatIdMap<ParentLink> parent;
  bool recording = true;

  // Current level plus, on a warm resume, the partially-discovered next
  // level carried over from the paused run (it is already in `visited`, so
  // it must be injected into the first merged frontier rather than
  // rediscovered).
  std::vector<TermId> level;
  std::vector<TermId> carried;
  if (opts.resume && !opts.resume->empty()) {
    const Wavefront& w = *opts.resume;
    result.initial = w.initial;
    for (const TermId s : w.visited) visited.insert(s);
    result.states = w.states;
    result.transitions = w.transitions;
    result.depth = w.depth;
    result.peak_frontier = w.peak_frontier;
    result.deadlock_count = w.deadlock_count;
    result.deadlock_found = w.deadlock_found;
    result.first_deadlock = w.first_deadlock;
    recording = false;
    if (!w.frontier.empty()) {
      level = w.frontier;
      carried = w.next_frontier;
    } else {
      // The stop fell on a level boundary: the next level becomes the
      // current one, exactly as the cold loop would have rolled it.
      level = w.next_frontier;
      ++result.depth;
    }
  } else {
    visited.insert(result.initial);
    result.states = 1;
    level.push_back(result.initial);
  }

  // Budget governance. The coordinator runs the full tracker (clock +
  // memory probe) at level boundaries, where workers are quiescent; inside
  // a level each worker runs a cheap per-block probe — cancel flag,
  // deadline time point, fault injector — and the first worker to observe
  // exhaustion publishes the StopReason here, draining the whole pool
  // within one block per worker.
  // Probed only while workers are quiescent (level boundaries), so the
  // per-worker fan memos can be summed safely.
  const auto approx_memory = [&]() -> std::uint64_t {
    std::uint64_t bytes =
        ctx.approx_bytes() + visited.approx_bytes() + parent.approx_bytes();
    for (const auto& sem : sems) bytes += sem->approx_bytes();
    return bytes;
  };
  util::BudgetTracker tracker(opts.budget, approx_memory);
  std::atomic<std::uint8_t> worker_stop{
      static_cast<std::uint8_t>(util::StopReason::None)};
  const auto block_budget_ok = [&]() -> bool {
    if (worker_stop.load(std::memory_order_relaxed) !=
        static_cast<std::uint8_t>(util::StopReason::None))
      return false;
    util::StopReason r = util::StopReason::None;
    if (opts.budget.cancel && opts.budget.cancel->cancelled())
      r = util::StopReason::Cancelled;
    else if (tracker.has_deadline() && Clock::now() >= tracker.deadline())
      r = util::StopReason::Deadline;
    else
      r = util::FaultInjector::global().trip_budget_check();
    if (r == util::StopReason::None) return true;
    std::uint8_t expected =
        static_cast<std::uint8_t>(util::StopReason::None);
    worker_stop.compare_exchange_strong(expected,
                                        static_cast<std::uint8_t>(r),
                                        std::memory_order_relaxed);
    return false;
  };

  struct Discovery {
    TermId target;
    TermId source;
    Label label;
  };
  struct WorkerOut {
    std::vector<Discovery> discovered;
    std::vector<std::pair<std::size_t, TermId>> deadlocks;  // (level idx, s)
    std::uint64_t transitions = 0;
    std::uint64_t processed = 0;
  };
  std::vector<WorkerOut> outs(workers);

  // Shared-mode window + pool only when there is real parallelism; at
  // workers == 1 the engine runs lock-free on this thread.
  std::optional<acsr::Context::SharedModeGuard> shared;
  std::optional<util::ThreadPool> pool;
  if (workers > 1) {
    shared.emplace(ctx);
    pool.emplace(workers);
  }

  const std::size_t block = std::max<std::size_t>(1, popts.block);
  bool exhausted = false;

  // Snapshot the paused BFS for a later warm resume; runs while the pool is
  // quiescent. `processed` is the expanded prefix of the current level.
  const auto capture_wavefront = [&](std::size_t processed,
                                     const std::vector<TermId>& next) {
    if (!opts.capture) return;
    Wavefront& w = *opts.capture;
    w = {};
    w.initial = result.initial;
    w.frontier.assign(level.begin() + static_cast<std::ptrdiff_t>(processed),
                      level.end());
    w.next_frontier = next;
    w.visited.reserve(visited.size());
    visited.for_each([&](TermId s) { w.visited.push_back(s); });
    w.states = result.states;
    w.transitions = result.transitions;
    w.depth = result.depth;
    w.peak_frontier = result.peak_frontier;
    w.deadlock_count = result.deadlock_count;
    w.deadlock_found = result.deadlock_found;
    w.first_deadlock = result.first_deadlock;
  };

  const auto process_range = [&](acsr::Semantics& sem, Reducer& reducer,
                                 WorkerOut& out,
                                 const std::vector<TermId>& lvl,
                                 std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const TermId state = lvl[i];
      std::vector<Transition> fan = sem.prioritized(state);
      ++out.processed;
      if (is_stuck(state, fan)) {
        out.deadlocks.emplace_back(i, state);
        continue;
      }
      reducer.linearize(state, fan);
      for (const Transition& tr : fan) {
        ++out.transitions;
        const TermId target = reducer.canonical(tr.target);
        if (visited.insert(target))
          out.discovered.push_back(Discovery{target, state, tr.label});
      }
    }
  };

  while (true) {
    result.peak_frontier =
        std::max<std::uint64_t>(result.peak_frontier, level.size());
    for (WorkerOut& o : outs) {
      o.discovered.clear();
      o.deadlocks.clear();
      o.transitions = 0;
    }

    // Expanded prefix of the level: blocks are handed out in order and a
    // grabbed block always completes (the stop flag is only checked before
    // a grab), so the processed states are exactly level[0, processed).
    std::size_t processed = level.size();
    if (!pool || level.size() < popts.serial_frontier_threshold) {
      for (std::size_t b = 0; b < level.size(); b += block) {
        if (!block_budget_ok()) {
          processed = b;
          break;
        }
        process_range(*sems[0], *reducers[0], outs[0], level, b,
                      std::min(b + block, level.size()));
      }
    } else {
      std::atomic<std::size_t> cursor{0};
      pool->parallel_for(workers, [&](std::size_t w) {
        while (block_budget_ok()) {
          const std::size_t b =
              cursor.fetch_add(block, std::memory_order_relaxed);
          if (b >= level.size()) break;
          process_range(*sems[w], *reducers[w], outs[w], level, b,
                        std::min(b + block, level.size()));
        }
      });
      processed =
          std::min(cursor.load(std::memory_order_relaxed), level.size());
    }

    // Merge the level: deadlocks first (earliest level-position wins so the
    // pick does not depend on which worker grabbed which block), then the
    // deduplicated next frontier.
    std::size_t first_idx = level.size();
    for (const WorkerOut& out : outs) {
      result.transitions += out.transitions;
      for (const auto& [idx, d] : out.deadlocks) {
        ++result.deadlock_count;
        if (!result.deadlock_found || idx < first_idx) {
          result.deadlock_found = true;
          result.first_deadlock = d;
          first_idx = idx;
        }
      }
    }
    std::vector<TermId> next;
    next.reserve(carried.size());
    // States discovered for this level's successor by the run this one
    // resumed: already in `visited`, so they only exist here.
    next.insert(next.end(), carried.begin(), carried.end());
    carried.clear();
    for (WorkerOut& out : outs) {
      for (const Discovery& d : out.discovered) {
        if (recording) parent.emplace(d.target, ParentLink{d.source, d.label});
        ++result.states;
        next.push_back(d.target);
      }
    }

    // A worker observed budget exhaustion mid-level: the partial level is
    // already merged (states/transitions/deadlocks found so far count);
    // publish the reason, checkpoint the unexpanded remainder and stop.
    {
      const auto ws = static_cast<util::StopReason>(
          worker_stop.load(std::memory_order_relaxed));
      if (ws != util::StopReason::None) {
        result.stop = ws;
        capture_wavefront(processed, next);
        break;
      }
    }

    if (result.deadlock_found && opts.stop_at_first_deadlock) break;
    if (result.states >= opts.max_states) {
      result.stop = util::StopReason::MaxStates;
      capture_wavefront(level.size(), next);
      break;
    }
    if (next.empty()) {
      exhausted = true;
      break;
    }

    // Level boundary: full budget check (clock + memory probe) while every
    // worker is quiescent. Memory pressure degrades before it kills — the
    // parent links are released and the run continues trace-less.
    const util::BudgetStatus budget = tracker.check_now(result.states);
    if (budget.signal == util::BudgetSignal::MemoryPressure && recording) {
      parent = {};
      recording = false;
      result.trace_dropped = true;
      tracker.note_degraded();
    } else if (budget.signal != util::BudgetSignal::Proceed) {
      result.stop = budget.reason;
      capture_wavefront(level.size(), next);
      break;
    }

    ++result.depth;
    level = std::move(next);
  }

  result.complete =
      result.stop == util::StopReason::None &&
      (exhausted || (result.deadlock_found && opts.stop_at_first_deadlock));

  if (result.deadlock_found && recording) reconstruct_trace(result, parent);
  result.approx_memory_bytes = approx_memory();

  result.worker_states.reserve(workers);
  for (const WorkerOut& out : outs)
    result.worker_states.push_back(out.processed);
  for (const auto& sem : sems) {
    result.sem_stats.computed += sem->stats().computed;
    result.sem_stats.memo_hits += sem->stats().memo_hits;
  }
  if (reducers[0]->active()) {
    result.symmetry_groups = opts.symmetry_model->groups().size();
    // Per-worker memos may fold the same raw state independently; the sum
    // is an upper estimate (exact at workers == 1).
    for (const auto& reducer : reducers) {
      result.states_saved += reducer->stats().states_saved;
      result.commuted_expansions += reducer->stats().commuted_expansions;
    }
  }
  result.wall_ms = ms_since(t0);
  return result;
}

Lts build_lts(acsr::Semantics& sem, TermId initial,
              std::uint64_t max_states) {
  Lts lts;
  lts.states.push_back(initial);
  lts.index.emplace(initial, 0);
  for (std::size_t i = 0; i < lts.states.size(); ++i) {
    const TermId state = lts.states[i];
    std::vector<Transition> fan = sem.prioritized(state);
    for (const Transition& tr : fan) {
      if (lts.index.contains(tr.target)) continue;
      // Reserve the slot only while there is capacity for it; otherwise the
      // index would hold a dangling entry for a state never pushed.
      if (lts.states.size() >= max_states) continue;
      lts.index.emplace(tr.target, lts.states.size());
      lts.states.push_back(tr.target);
    }
    lts.edges.push_back(std::move(fan));
  }
  return lts;
}

}  // namespace aadlsched::versa
