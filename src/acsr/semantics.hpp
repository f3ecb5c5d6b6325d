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
#include <vector>

#include "acsr/context.hpp"
#include "acsr/label.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::acsr {

class Semantics {
 public:
  struct Stats {
    std::uint64_t computed = 0;   // states whose fan was computed
    std::uint64_t memo_hits = 0;  // fan served from the memo table
  };

  explicit Semantics(Context& ctx) : ctx_(ctx) {}

  /// Unprioritized transition fan (copy; safe across further calls).
  std::vector<Transition> transitions(TermId t);

  /// Prioritized fan: unprioritized minus preempted transitions.
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
  std::vector<Transition> compute(TermId t);
  void parallel_transitions(TermId t, std::vector<Transition>& out);

  // Memoized fans live flat in one arena; the per-term index holds an
  // (offset, len) window into it. Compared to the former
  // unordered_map<TermId, vector<Transition>> this drops two heap nodes
  // per memoized state and keeps fans contiguous.
  struct FanRef {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  Context& ctx_;
  Stats stats_;
  std::vector<Transition> fan_arena_;
  util::FlatIdMap<FanRef> memo_;
};

}  // namespace aadlsched::acsr
