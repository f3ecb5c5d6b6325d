// Operational semantics of ground ACSR terms.
//
// transitions() implements the unprioritized relation:
//   Act:      A:P            --A-->    P
//   Evt:      (e!,p).P       --e!,p--> P             (likewise e?)
//   Choice:   union of the summands' transitions
//   Parallel: events interleave (Par1/Par2); matching send/receive pairs
//             synchronize into tau with the sum of the priorities (Par4);
//             timed actions of *all* components combine into one global
//             action when their resource sets are pairwise disjoint (Par3 —
//             time is global, nobody is left behind)
//   Restrict: blocks restricted events from crossing, forcing partners to
//             synchronize inside; taus and timed actions pass
//   Scope:    timed steps of the body decrement the remaining time (hitting
//             0 yields the timeout handler); body events pass without
//             consuming time; the exception label exits to the exception
//             continuation; an interrupt handler's initial transitions stay
//             enabled throughout (§3)
//   Call:     transitions of the memoized unfolding of the definition
//
// prioritized() applies the preemption relation of preemption.hpp on top —
// that is the relation the explorer walks, and the one for which
// "deadlock <=> missed deadline" holds for translated AADL models (§5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acsr/context.hpp"
#include "acsr/label.hpp"
#include "acsr/preemption.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::acsr {

class Semantics {
 public:
  struct Stats {
    std::uint64_t computed = 0;   // states whose fan was computed
    std::uint64_t memo_hits = 0;  // fan served from the memo table
    // prioritized() calls: transitions before and after preemption, and the
    // preempted_by() checks that decided them.
    std::uint64_t raw_transitions = 0;
    std::uint64_t kept_transitions = 0;
    std::uint64_t preemption_checks = 0;

    /// Work done since `before` (an earlier snapshot of the same counters).
    Stats operator-(const Stats& before) const {
      return {computed - before.computed, memo_hits - before.memo_hits,
              raw_transitions - before.raw_transitions,
              kept_transitions - before.kept_transitions,
              preemption_checks - before.preemption_checks};
    }
  };

  explicit Semantics(Context& ctx) : ctx_(ctx) {}

  /// Unprioritized transition fan (copy; safe across further calls).
  std::vector<Transition> transitions(TermId t);

  /// Prioritized fan: unprioritized minus preempted transitions (copy).
  std::vector<Transition> prioritized(TermId t);

  const Stats& stats() const { return stats_; }
  Context& context() { return ctx_; }

  /// Approximate footprint of the fan memo (arena + index). The memory
  /// budget estimate adds this on top of Context::approx_bytes(); before it
  /// did, memo-heavy runs under-counted by the whole fan table.
  std::size_t approx_bytes() const {
    return fan_arena_.capacity() * sizeof(Transition) + memo_.approx_bytes();
  }

 private:
  // Memoized fans live flat in one arena; the per-term index holds an
  // (offset, len) window into it. Compared to the former
  // unordered_map<TermId, vector<Transition>> this drops two heap nodes
  // per memoized state and keeps fans contiguous.
  struct FanRef {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  /// The memoized fan of `t`, computing it on a miss. Internally fans are
  /// read in place through window(), not copied; a miss appends to the
  /// arena, so a window is read only until the next fan() call.
  FanRef fan(TermId t);
  std::span<const Transition> window(FanRef ref) const {
    return {fan_arena_.data() + ref.offset, ref.len};
  }
  void compute(TermId t, std::vector<Transition>& out);
  void parallel_transitions(TermId t, std::vector<Transition>& out);

  Context& ctx_;
  Stats stats_;
  std::vector<Transition> fan_arena_;
  util::FlatIdMap<FanRef> memo_;
  std::vector<LabelRun> runs_;  // prioritize()'s scratch, reused
};

}  // namespace aadlsched::acsr
