// Focused tests for the preemption relation, including the design-note
// counterexample: decorating actions with per-thread marker resources would
// destroy the preemption order (this is why trace lift-back inspects state
// terms instead of polluting actions — DESIGN.md §6).
#include <gtest/gtest.h>

#include "acsr/builder.hpp"
#include "acsr/preemption.hpp"
#include "acsr/semantics.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;

namespace {

class PreemptionTest : public ::testing::Test {
 protected:
  Context ctx;
  Builder b{ctx};

  ActionId action(std::initializer_list<std::pair<const char*, Priority>> rs) {
    std::vector<ResourceUse> uses;
    for (auto& [name, p] : rs) uses.push_back({ctx.resource(name), p});
    return ctx.actions().intern(std::move(uses));
  }

  Label act(ActionId a) { return Label::make_action(a); }

  std::vector<LabelRun> runs;  // prioritize()'s scratch
};

TEST_F(PreemptionTest, CleanActionsPreemptAsExpected) {
  const Label lo = act(action({{"cpu", 3}}));
  const Label hi = act(action({{"cpu", 5}}));
  EXPECT_TRUE(preempted_by(ctx.actions(), lo, hi));
  EXPECT_FALSE(preempted_by(ctx.actions(), hi, lo));
}

TEST_F(PreemptionTest, MarkerResourcesBreakPreemption) {
  // The same two steps decorated with private per-thread marker resources:
  // the high-priority step no longer preempts, because the low step uses a
  // resource (its marker) that the high step does not.
  const Label lo = act(action({{"cpu", 3}, {"run_t2", 1}}));
  const Label hi = act(action({{"cpu", 5}, {"run_t1", 1}}));
  EXPECT_FALSE(preempted_by(ctx.actions(), lo, hi));
  EXPECT_FALSE(preempted_by(ctx.actions(), hi, lo));
}

TEST_F(PreemptionTest, IdleIsPreemptedByAnyPositiveWork) {
  const Label idle = act(kIdleAction);
  const Label work = act(action({{"cpu", 1}}));
  EXPECT_TRUE(preempted_by(ctx.actions(), idle, work));
  EXPECT_FALSE(preempted_by(ctx.actions(), work, idle));
}

TEST_F(PreemptionTest, ZeroPriorityWorkDoesNotPreemptIdle) {
  const Label idle = act(kIdleAction);
  const Label work = act(action({{"cpu", 0}}));
  EXPECT_FALSE(preempted_by(ctx.actions(), idle, work));
}

TEST_F(PreemptionTest, EventPreemptionNeedsSameLabelAndDirection) {
  const Event e = ctx.event("e");
  const Event f = ctx.event("f");
  const Label e1 = Label::make_event(e, true, 1);
  const Label e2 = Label::make_event(e, true, 2);
  const Label e2r = Label::make_event(e, false, 2);
  const Label f9 = Label::make_event(f, true, 9);
  EXPECT_TRUE(preempted_by(ctx.actions(), e1, e2));
  EXPECT_FALSE(preempted_by(ctx.actions(), e2, e1));
  EXPECT_FALSE(preempted_by(ctx.actions(), e1, e2r));  // direction differs
  EXPECT_FALSE(preempted_by(ctx.actions(), e1, f9));   // label differs
}

TEST_F(PreemptionTest, TauOrdering) {
  const Label t1 = Label::make_tau(ctx.event("a"), 1);
  const Label t3 = Label::make_tau(ctx.event("b"), 3);
  // All taus share the silent label, regardless of their source event.
  EXPECT_TRUE(preempted_by(ctx.actions(), t1, t3));
  EXPECT_FALSE(preempted_by(ctx.actions(), t3, t1));
}

TEST_F(PreemptionTest, TauDoesNotPreemptEvents) {
  const Label tau = Label::make_tau(ctx.event("a"), 5);
  const Label ev = Label::make_event(ctx.event("e"), true, 1);
  EXPECT_FALSE(preempted_by(ctx.actions(), ev, tau));
  EXPECT_FALSE(preempted_by(ctx.actions(), tau, ev));
}

TEST_F(PreemptionTest, ActionNeverPreemptsAnything) {
  const Label work = act(action({{"cpu", 9}}));
  const Label tau0 = Label::make_tau(ctx.event("a"), 0);
  const Label ev = Label::make_event(ctx.event("e"), true, 0);
  EXPECT_FALSE(preempted_by(ctx.actions(), tau0, work));
  EXPECT_FALSE(preempted_by(ctx.actions(), ev, work));
  // Zero-priority tau does not preempt timed actions.
  EXPECT_FALSE(preempted_by(ctx.actions(), work, tau0));
}

TEST_F(PreemptionTest, PrioritizeKeepsMaximalSet) {
  std::vector<Transition> ts;
  ts.push_back({act(kIdleAction), kNil});
  ts.push_back({act(action({{"cpu", 1}})), kNil});
  ts.push_back({act(action({{"cpu", 2}})), kNil});
  ts.push_back({act(action({{"bus", 1}})), kNil});  // incomparable
  prioritize(ctx.actions(), ts, runs);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].label.action, action({{"cpu", 2}}));
  EXPECT_EQ(ts[1].label.action, action({{"bus", 1}}));
}

TEST_F(PreemptionTest, PrioritizeOnEmptyAndSingleton) {
  std::vector<Transition> empty;
  prioritize(ctx.actions(), empty, runs);
  EXPECT_TRUE(empty.empty());
  std::vector<Transition> one{{act(kIdleAction), kNil}};
  prioritize(ctx.actions(), one, runs);
  EXPECT_EQ(one.size(), 1u);
}

// Property-style sweep: preemption must be irreflexive and asymmetric on a
// grid of generated actions.
class PreemptionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PreemptionPropertyTest, IrreflexiveAndAsymmetric) {
  Context ctx;
  const auto [p1, p2, q1, q2] = GetParam();
  const Resource cpu = ctx.resource("cpu");
  const Resource bus = ctx.resource("bus");
  auto mk = [&](int a, int b) {
    std::vector<ResourceUse> uses;
    if (a >= 0) uses.push_back({cpu, a});
    if (b >= 0) uses.push_back({bus, b});
    return ctx.actions().intern(std::move(uses));
  };
  const Label x = Label::make_action(mk(p1, p2));
  const Label y = Label::make_action(mk(q1, q2));
  EXPECT_FALSE(preempted_by(ctx.actions(), x, x));
  EXPECT_FALSE(preempted_by(ctx.actions(), y, y));
  EXPECT_FALSE(preempted_by(ctx.actions(), x, y) &&
               preempted_by(ctx.actions(), y, x));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PreemptionPropertyTest,
    ::testing::Combine(::testing::Values(-1, 0, 1, 3),
                       ::testing::Values(-1, 0, 2),
                       ::testing::Values(-1, 0, 1, 3),
                       ::testing::Values(-1, 0, 2)));

}  // namespace
