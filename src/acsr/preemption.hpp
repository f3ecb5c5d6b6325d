// The preemption relation and the prioritized transition relation (§3).
//
// The unprioritized relation offers every structurally possible step; the
// prioritized relation removes each transition that is preempted by a
// sibling:
//   * action A1 ≺ action A2 — ActionTable::preempts (resource-wise
//     domination with one strict inequality);
//   * event e ≺ event e' — same label and direction, strictly higher
//     priority;
//   * tau ≺ tau — strictly higher priority (all taus share the label tau);
//   * action ≺ tau whenever the tau has non-zero priority — this is what
//     forces dispatches, queue hand-offs and completions to happen at the
//     quantum boundary where they become possible.
#pragma once

#include <cstdint>
#include <vector>

#include "acsr/action.hpp"
#include "acsr/label.hpp"

namespace aadlsched::acsr {

/// True iff `a` is preempted by `b` (a ≺ b).
bool preempted_by(const ActionTable& actions, const Label& a, const Label& b);

/// One run of equal adjacent labels in a fan: prioritize()'s working set.
struct LabelRun {
  Label label;
  bool preempted = false;
};

/// Remove every transition preempted by a sibling. Stable: survivors keep
/// their relative order. Preemption reads labels only, so the check runs
/// over the k runs of equal adjacent labels rather than the n transitions:
/// a canonical fan (sorted by label) of n transitions over k distinct
/// labels costs at most k * (k - 1) preempted_by() checks. `runs` is
/// caller-owned scratch, reused across calls. Returns the number of
/// preempted_by() checks made.
std::uint64_t prioritize(const ActionTable& actions,
                         std::vector<Transition>& ts,
                         std::vector<LabelRun>& runs);

}  // namespace aadlsched::acsr
