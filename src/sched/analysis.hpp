// Analytical schedulability tests — the classical toolbox the paper's
// exhaustive exploration is positioned against (§1, §6). These are the
// baselines for the agreement/pessimism experiments (EXPERIMENTS.md E1, E8).
//
//   * Liu–Layland utilization bound (sufficient, RM, implicit deadlines)
//   * hyperbolic bound (sufficient, RM, implicit deadlines; dominates LL)
//   * exact response-time analysis for fixed priorities (necessary and
//     sufficient for independent, constrained-deadline, synchronous tasks)
//   * EDF utilization test (exact for implicit deadlines)
//   * EDF processor-demand analysis + QPA (exact for constrained deadlines)
#pragma once

#include <optional>
#include <vector>

#include "sched/task.hpp"

namespace aadlsched::sched {

enum class Verdict : std::uint8_t {
  Schedulable,
  Unschedulable,
  Unknown,  // a sufficient-only test that did not pass
};

/// n(2^{1/n} - 1); the classic RM bound.
double liu_layland_bound(std::size_t n);

/// Sufficient test: U <= n(2^{1/n}-1). Unknown when it fails.
Verdict rm_utilization_test(const TaskSet& ts);

/// Sufficient test: prod(U_i + 1) <= 2 (Bini et al.). Unknown on failure.
Verdict hyperbolic_bound_test(const TaskSet& ts);

/// Exact EDF test for implicit deadlines: U <= 1.
Verdict edf_utilization_test(const TaskSet& ts);

struct RtaResult {
  Verdict verdict = Verdict::Unknown;
  /// Worst-case response time per task (index-aligned with the input);
  /// response values beyond the deadline are reported as computed when the
  /// fixed point converged, or -1 when it diverged past the deadline.
  std::vector<Time> response;
};

/// Exact response-time analysis for preemptive fixed-priority scheduling of
/// independent tasks with constrained deadlines on one processor.
/// `blocking[i]` (optional) adds a per-task blocking term B_i.
/// With `ties_interfere`, every distinct task of equal priority is charged
/// as interference (instead of the deterministic index tie-break): that is
/// the sound, pessimistic reading when the scheduler may break priority
/// ties either way — required when vouching for exploration, which
/// enumerates all tie interleavings.
RtaResult response_time_analysis(const TaskSet& ts,
                                 const std::vector<Time>* blocking = nullptr,
                                 bool ties_interfere = false);

struct EdfResult {
  Verdict verdict = Verdict::Unknown;
  /// First absolute time point where demand exceeds supply (if any).
  std::optional<Time> overflow_point;
};

/// Exact processor-demand analysis for preemptive EDF with constrained
/// deadlines on one processor (checks dbf(t) <= t for all t up to the
/// standard bound).
EdfResult edf_demand_analysis(const TaskSet& ts);

/// Zhang & Burns' Quick convergence Processor-demand Analysis. Same verdict
/// as edf_demand_analysis but iterates from the bound downwards; used by the
/// exact EDF screen (AL014).
EdfResult edf_qpa(const TaskSet& ts);

/// Demand bound function of a task set at interval length t (synchronous).
Time demand_bound(const TaskSet& ts, Time t);

/// The interval-length bound up to which edf_demand_analysis / edf_qpa
/// check dbf(t) <= t (min of hyperperiod- and utilization-based bounds).
/// Exposed so certificate emitters can record the checked horizon.
Time edf_check_bound(const TaskSet& ts);

}  // namespace aadlsched::sched
