// Tests for the ACSR operational semantics: each rule (prefix, choice,
// parallel interleaving and synchronization, Par3 timed combination,
// restriction, scope, call unfolding) plus the prioritized relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "acsr/builder.hpp"
#include "acsr/preemption.hpp"
#include "acsr/printer.hpp"
#include "acsr/semantics.hpp"
#include "util/rng.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;

namespace {

class SemanticsTest : public ::testing::Test {
 protected:
  Context ctx;
  Builder b{ctx};
  Semantics sem{ctx};

  ActionId action(std::initializer_list<std::pair<const char*, Priority>> rs) {
    std::vector<ResourceUse> uses;
    for (auto& [name, p] : rs) uses.push_back({ctx.resource(name), p});
    return ctx.actions().intern(std::move(uses));
  }

  std::multiset<std::string> labels(TermId t, bool prioritized = false) {
    std::multiset<std::string> out;
    for (const Transition& tr :
         prioritized ? sem.prioritized(t) : sem.transitions(t))
      out.insert(render_label(ctx, tr.label));
    return out;
  }
};

TEST_F(SemanticsTest, NilHasNoTransitions) {
  EXPECT_TRUE(sem.transitions(kNil).empty());
}

TEST_F(SemanticsTest, ActionPrefix) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const auto fan = sem.transitions(p);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_TRUE(fan[0].label.is_timed());
  EXPECT_EQ(fan[0].target, kNil);
}

TEST_F(SemanticsTest, EventPrefix) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 3, kNil);
  const auto fan = sem.transitions(p);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.kind, Label::Kind::Event);
  EXPECT_TRUE(fan[0].label.send);
  EXPECT_EQ(fan[0].label.priority, 3);
}

TEST_F(SemanticsTest, ChoiceOffersAllBranches) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), false, 1, kNil);
  const TermId c = ctx.terms().choice({p, q});
  EXPECT_EQ(sem.transitions(c).size(), 2u);
}

TEST_F(SemanticsTest, ParallelEventInterleaving) {
  const TermId p = ctx.terms().evt(ctx.event("a"), true, 1, kNil);
  const TermId q = ctx.terms().evt(ctx.event("b"), true, 1, kNil);
  const TermId par = ctx.terms().parallel({p, q});
  const auto ls = labels(par);
  EXPECT_EQ(ls.count("a!:1"), 1u);
  EXPECT_EQ(ls.count("b!:1"), 1u);
  // No timed step: neither component offers one.
  for (const auto& tr : sem.transitions(par))
    EXPECT_FALSE(tr.label.is_timed());
}

TEST_F(SemanticsTest, ParallelSynchronizationProducesTau) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), false, 3, kNil);
  const TermId par = ctx.terms().parallel({p, q});
  const auto ls = labels(par);
  // Individual offers still available (no restriction) plus the tau with
  // the summed priority.
  EXPECT_EQ(ls.count("go!:2"), 1u);
  EXPECT_EQ(ls.count("go?:3"), 1u);
  EXPECT_EQ(ls.count("tau@go:5"), 1u);
}

TEST_F(SemanticsTest, NoSyncBetweenSameDirections) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), true, 3, kNil);
  const TermId par = ctx.terms().parallel({p, q});
  for (const auto& tr : sem.transitions(par))
    EXPECT_NE(tr.label.kind, Label::Kind::Tau);
}

TEST_F(SemanticsTest, Par3CombinesDisjointTimedSteps) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId q = ctx.terms().act(action({{"bus", 2}}), kNil);
  const TermId par = ctx.terms().parallel({p, q});
  const auto fan = sem.transitions(par);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "{(bus,2),(cpu,1)}");
  EXPECT_EQ(fan[0].target, kNil);  // NIL || NIL collapses to NIL
}

TEST_F(SemanticsTest, Par3BlocksOnSharedResource) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId q = ctx.terms().act(action({{"cpu", 2}}), kNil);
  const TermId par = ctx.terms().parallel({p, q});
  // The two components both need cpu: no combined step exists, and neither
  // can step alone (time is global).
  EXPECT_TRUE(sem.transitions(par).empty());
}

TEST_F(SemanticsTest, Par3RequiresEveryComponentToStep) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId blocked = ctx.terms().evt(ctx.event("go"), false, 1, kNil);
  const TermId par = ctx.terms().parallel({p, blocked});
  // `blocked` has no timed step, so no global timed step exists; only the
  // event offer of `blocked` interleaves.
  const auto fan = sem.transitions(par);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.kind, Label::Kind::Event);
}

TEST_F(SemanticsTest, IdleStepsAllowWaiting) {
  // Fig. 2(b): idling steps let a process wait for resource access.
  const TermId busy = ctx.terms().act(action({{"cpu", 2}}), kNil);
  // waiter = {} : waiter'   where waiter' wants cpu
  const TermId wants = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId waiter =
      ctx.terms().choice({wants, ctx.terms().act(kIdleAction, wants)});
  const TermId par = ctx.terms().parallel({busy, waiter});
  const auto fan = sem.prioritized(par);
  // The only surviving global step: busy runs, waiter idles.
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "{(cpu,2)}");
}

TEST_F(SemanticsTest, RestrictionBlocksUnmatchedEvents) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId r = ctx.terms().restrict(f, p);
  EXPECT_TRUE(sem.transitions(r).empty());
}

TEST_F(SemanticsTest, RestrictionForcesSynchronization) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), false, 3, kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId r = ctx.terms().restrict(f, ctx.terms().parallel({p, q}));
  const auto ls = labels(r);
  ASSERT_EQ(ls.size(), 1u);
  EXPECT_EQ(ls.count("tau@go:5"), 1u);
}

TEST_F(SemanticsTest, RestrictionPassesOtherEvents) {
  const TermId p = ctx.terms().evt(ctx.event("free"), true, 1, kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId r = ctx.terms().restrict(f, p);
  EXPECT_EQ(sem.transitions(r).size(), 1u);
}

TEST_F(SemanticsTest, ScopeTimedStepsDecrementAndTimeout) {
  // body = cpu-loop; scope of 2 quanta, timeout to handler.
  const DefId loop = ctx.declare("Loop");
  Definition d;
  d.name = "Loop";
  d.body = b.act({{"cpu", b.c(1)}}, b.call("Loop"));
  ctx.define(loop, std::move(d));
  const TermId body = b.start("Loop");
  const TermId handler = ctx.terms().evt(ctx.event("late"), true, 1, kNil);
  ScopeParts parts;
  parts.body = body;
  parts.time_left = 2;
  parts.timeout_handler = handler;
  const TermId s = ctx.terms().scope(parts);

  auto fan1 = sem.transitions(s);
  ASSERT_EQ(fan1.size(), 1u);
  auto fan2 = sem.transitions(fan1[0].target);
  ASSERT_EQ(fan2.size(), 1u);
  // After the second quantum the scope has expired: we are in the handler.
  EXPECT_EQ(fan2[0].target, handler);
}

TEST_F(SemanticsTest, ScopeExceptionExit) {
  // body announces completion via exception label -> exits to exc cont.
  const TermId done_then_loop =
      ctx.terms().evt(ctx.event("complete"), true, 1,
                      ctx.terms().act(action({{"cpu", 1}}), kNil));
  const TermId exc_cont = ctx.terms().evt(ctx.event("after"), true, 1, kNil);
  ScopeParts parts;
  parts.body = done_then_loop;
  parts.time_left = 10;
  parts.exception_label = ctx.event("complete");
  parts.exception_cont = exc_cont;
  const TermId s = ctx.terms().scope(parts);
  const auto fan = sem.transitions(s);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].target, exc_cont);  // scope dissolved
}

TEST_F(SemanticsTest, ScopeInterruptHandlerAlwaysEnabled) {
  const TermId body = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId handler = ctx.terms().evt(ctx.event("irq"), false, 1, kNil);
  ScopeParts parts;
  parts.body = body;
  parts.time_left = kInfiniteTime;
  parts.interrupt_handler = handler;
  const TermId s = ctx.terms().scope(parts);
  const auto ls = labels(s);
  EXPECT_EQ(ls.count("irq?:1"), 1u);
  EXPECT_EQ(ls.count("{(cpu,1)}"), 1u);
}

TEST_F(SemanticsTest, InfiniteScopeNeverTimesOut) {
  const DefId loop = ctx.declare("Loop2");
  Definition d;
  d.name = "Loop2";
  d.body = b.act({{"cpu", b.c(1)}}, b.call("Loop2"));
  ctx.define(loop, std::move(d));
  ScopeParts parts;
  parts.body = b.start("Loop2");
  parts.time_left = kInfiniteTime;
  parts.timeout_handler = kNil;
  TermId s = ctx.terms().scope(parts);
  for (int i = 0; i < 5; ++i) {
    const auto fan = sem.transitions(s);
    ASSERT_EQ(fan.size(), 1u);
    s = fan[0].target;
    EXPECT_EQ(ctx.terms().kind(s), TermKind::Scope);
  }
}

TEST_F(SemanticsTest, CallUnfoldsDefinitionWithParameters) {
  // Count[n] = (n < 3) -> {(cpu,1)} : Count[n+1] + (n == 3) -> (done!,1).NIL
  b.def("Count", {"n"},
        b.pick({b.when(b.lt(b.p(0), b.c(3)),
                       b.act({{"cpu", b.c(1)}},
                             b.call("Count", {b.add(b.p(0), b.c(1))}))),
                b.when(b.eq(b.p(0), b.c(3)),
                       b.send("done", b.c(1), b.nil()))}));
  TermId t = b.start("Count", {0});
  for (int i = 0; i < 3; ++i) {
    const auto fan = sem.transitions(t);
    ASSERT_EQ(fan.size(), 1u) << "at step " << i;
    EXPECT_TRUE(fan[0].label.is_timed());
    t = fan[0].target;
  }
  const auto fan = sem.transitions(t);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "done!:1");
}

TEST_F(SemanticsTest, GuardFalseBranchVanishes) {
  b.def("G", {"x"},
        b.pick({b.when(b.gt(b.p(0), b.c(10)), b.send("big", b.c(1), b.nil())),
                b.when(b.le(b.p(0), b.c(10)),
                       b.send("small", b.c(1), b.nil()))}));
  const auto small = labels(b.start("G", {5}));
  EXPECT_EQ(small.count("small!:1"), 1u);
  EXPECT_EQ(small.count("big!:1"), 0u);
  const auto big = labels(b.start("G", {11}));
  EXPECT_EQ(big.count("big!:1"), 1u);
}

TEST_F(SemanticsTest, DynamicPriorityExpressionEvaluates) {
  // EDF-style: priority of the cpu access = 10 - (5 - t).
  b.def("Edf", {"t"},
        b.act({{"cpu", b.sub(b.c(10), b.sub(b.c(5), b.p(0)))}},
              b.call("Edf", {b.add(b.p(0), b.c(1))})));
  const auto fan0 = sem.transitions(b.start("Edf", {0}));
  ASSERT_EQ(fan0.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan0[0].label), "{(cpu,5)}");
  const auto fan3 = sem.transitions(b.start("Edf", {3}));
  EXPECT_EQ(render_label(ctx, fan3[0].label), "{(cpu,8)}");
}

TEST_F(SemanticsTest, PrioritizedRemovesPreemptedTimedSteps) {
  // Two processes compete for cpu at priorities 1 and 2; each can idle.
  const TermId lo = ctx.terms().choice(
      {ctx.terms().act(action({{"cpu", 1}}), kNil),
       ctx.terms().act(kIdleAction, kNil)});
  const TermId hi = ctx.terms().choice(
      {ctx.terms().act(action({{"cpu", 2}}), kNil),
       ctx.terms().act(kIdleAction, kNil)});
  const TermId par = ctx.terms().parallel({lo, hi});
  // Unprioritized: hi-runs, lo-runs, both-idle (cpu clash excluded by Par3).
  EXPECT_EQ(sem.transitions(par).size(), 3u);
  const auto fan = sem.prioritized(par);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "{(cpu,2)}");
}

TEST_F(SemanticsTest, TauWithPositivePriorityPreemptsTime) {
  const TermId sender = ctx.terms().evt(ctx.event("go"), true, 1, kNil);
  const TermId receiver = ctx.terms().evt(ctx.event("go"), false, 1, kNil);
  const TermId worker = ctx.terms().act(action({{"cpu", 1}}), kNil);
  // Give the communicating pair idle alternatives so a global timed step
  // exists at all, then restrict "go" so only the tau remains of the pair.
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId sender2 = ctx.terms().choice(
      {sender, ctx.terms().act(kIdleAction, sender)});
  const TermId receiver2 = ctx.terms().choice(
      {receiver, ctx.terms().act(kIdleAction, receiver)});
  const TermId sys2 = ctx.terms().restrict(
      f, ctx.terms().parallel({sender2, receiver2, worker}));
  const auto fan = sem.prioritized(sys2);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.kind, Label::Kind::Tau);
}

TEST_F(SemanticsTest, TauWithZeroPriorityDoesNotPreempt) {
  const TermId sender = ctx.terms().evt(ctx.event("go"), true, 0, kNil);
  const TermId receiver = ctx.terms().evt(ctx.event("go"), false, 0, kNil);
  const TermId sender2 =
      ctx.terms().choice({sender, ctx.terms().act(kIdleAction, sender)});
  const TermId receiver2 =
      ctx.terms().choice({receiver, ctx.terms().act(kIdleAction, receiver)});
  const TermId worker = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId sys = ctx.terms().restrict(
      f, ctx.terms().parallel({sender2, receiver2, worker}));
  const auto fan = sem.prioritized(sys);
  // Both the tau and the timed step survive.
  EXPECT_EQ(fan.size(), 2u);
}

TEST_F(SemanticsTest, HigherPriorityEventOfferPreemptsLower) {
  // Same event, same direction, different priorities, in a choice.
  const TermId lo = ctx.terms().evt(ctx.event("e"), true, 1, kNil);
  const TermId hi = ctx.terms().evt(
      ctx.event("e"), true, 2, ctx.terms().act(kIdleAction, kNil));
  const TermId c = ctx.terms().choice({lo, hi});
  const auto fan = sem.prioritized(c);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.priority, 2);
}

TEST_F(SemanticsTest, MemoizationReturnsIdenticalFans) {
  b.def("M", {}, b.act({{"cpu", b.c(1)}}, b.call("M")));
  const TermId t = b.start("M");
  const auto f1 = sem.transitions(t);
  const auto f2 = sem.transitions(t);
  EXPECT_EQ(f1, f2);
  EXPECT_GE(sem.stats().memo_hits, 1u);
}

TEST_F(SemanticsTest, FreshSemanticsAgreesWithWarmedMemo) {
  b.def("N", {"k"},
        b.pick({b.when(b.lt(b.p(0), b.c(2)),
                       b.act({{"cpu", b.c(1)}},
                             b.call("N", {b.add(b.p(0), b.c(1))}))),
                b.send("fin", b.c(1), b.nil())}));
  const TermId t = b.start("N", {0});
  // Warm the memo along the whole chain, then serve it again from there.
  std::vector<TermId> chain{t};
  for (std::size_t i = 0; i < chain.size(); ++i)
    for (const Transition& tr : sem.transitions(chain[i]))
      if (std::find(chain.begin(), chain.end(), tr.target) == chain.end())
        chain.push_back(tr.target);
  ASSERT_GT(chain.size(), 2u);
  const auto hits_before = sem.stats().memo_hits;

  // A fresh Semantics over the same context starts with an empty memo, so
  // every fan it returns is recomputed.
  Semantics fresh(ctx);
  for (TermId s : chain) {
    EXPECT_EQ(sem.transitions(s), fresh.transitions(s));
    EXPECT_EQ(sem.prioritized(s), fresh.prioritized(s));
  }
  EXPECT_GE(sem.stats().memo_hits, hits_before + 2 * chain.size());
  EXPECT_GE(fresh.stats().computed, chain.size());
}

// --- prioritize() over label runs ---------------------------------------

// The pairwise filter prioritize() replaced: every transition against every
// other one, O(n^2) preempted_by() checks.
std::vector<Transition> pairwise_reference(const ActionTable& actions,
                                           std::vector<Transition> ts) {
  std::vector<bool> dead(ts.size(), false);
  for (std::size_t i = 0; i < ts.size(); ++i)
    for (std::size_t j = 0; j < ts.size(); ++j)
      if (i != j && preempted_by(actions, ts[i].label, ts[j].label)) {
        dead[i] = true;
        break;
      }
  std::vector<Transition> kept;
  for (std::size_t i = 0; i < ts.size(); ++i)
    if (!dead[i]) kept.push_back(ts[i]);
  return kept;
}

// The order Semantics::canonicalize() sorts a fan into.
bool canonical_less(const Transition& a, const Transition& b) {
  const auto key = [](const Transition& t) {
    return std::tuple(static_cast<int>(t.label.kind), t.label.action,
                      t.label.event * 2u + (t.label.send ? 1u : 0u),
                      static_cast<std::uint32_t>(t.label.priority),
                      t.target);
  };
  return key(a) < key(b);
}

TEST(Preemption, LabelRunsMatchPairwiseReference) {
  Context ctx;
  const auto act = [&](std::initializer_list<std::pair<const char*, Priority>>
                           rs) {
    std::vector<ResourceUse> uses;
    for (auto& [name, p] : rs) uses.push_back({ctx.resource(name), p});
    return Label::make_action(ctx.actions().intern(std::move(uses)));
  };
  const Event e = ctx.event("e");
  const Event f = ctx.event("f");
  const Event g = ctx.event("g");
  // Idle and non-idle actions (comparable and incomparable ones), sends and
  // receives of one event at several priorities, and taus of equal
  // priority from different source events (distinct labels that do not
  // preempt each other).
  const std::vector<Label> pool{
      Label::make_action(kIdleAction),
      act({{"cpu", 0}}),
      act({{"cpu", 1}}),
      act({{"cpu", 3}}),
      act({{"bus", 2}}),
      act({{"cpu", 1}, {"bus", 2}}),
      act({{"cpu", 3}, {"bus", 1}}),
      Label::make_event(e, true, 0),
      Label::make_event(e, true, 2),
      Label::make_event(e, false, 1),
      Label::make_event(e, false, 3),
      Label::make_event(f, true, 1),
      Label::make_tau(e, 0),
      Label::make_tau(f, 2),
      Label::make_tau(g, 2),
      Label::make_tau(g, 1),
  };

  std::vector<LabelRun> runs;  // reused across calls, as Semantics does
  std::uint64_t total_checks = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t n = rng() % 48;
    // Some fans draw from a small slice of the pool, so runs get long.
    const std::size_t labels = 1 + rng() % pool.size();
    std::vector<Transition> fan;
    for (std::size_t i = 0; i < n; ++i)
      fan.push_back(Transition{pool[rng() % labels],
                               static_cast<TermId>(rng() % 16)});

    std::vector<Transition> sorted = fan;
    std::sort(sorted.begin(), sorted.end(), canonical_less);
    for (std::vector<Transition>* ts : {&sorted, &fan}) {
      const std::vector<Transition> want =
          pairwise_reference(ctx.actions(), *ts);
      total_checks += prioritize(ctx.actions(), *ts, runs);
      EXPECT_EQ(*ts, want) << "seed " << seed
                           << (ts == &fan ? " shuffled" : " sorted");
    }
  }
  EXPECT_GT(total_checks, 0u);
}

TEST(Preemption, FanOverFewLabelsCostsLabelPairsNotTransitionPairs) {
  // Two components that only ever take timed steps: 100 alternatives on
  // cpu at 3 priorities and 200 on bus at 5. Par3 combines them into
  // 20,000 transitions that carry 3 * 5 = 15 distinct action labels, the
  // shape of cruise control's widest fan.
  Context ctx;
  TermTable& tt = ctx.terms();
  const Resource cpu = ctx.resource("cpu");
  const Resource bus = ctx.resource("bus");
  // Each alternative continues into its own term, so no two of the 20,000
  // combinations coincide.
  const auto component = [&](Resource r, int alternatives, int priorities) {
    const Event next = ctx.event("next");
    std::vector<TermId> alts;
    for (int i = 0; i < alternatives; ++i)
      alts.push_back(tt.act(ctx.actions().intern({{r, 1 + i % priorities}}),
                            tt.evt(next, r == cpu, i, kNil)));
    return tt.choice(alts);
  };
  const TermId sys =
      tt.parallel({component(cpu, 100, 3), component(bus, 200, 5)});

  Semantics sem(ctx);
  const auto fan = sem.prioritized(sys);
  const Semantics::Stats& st = sem.stats();
  EXPECT_EQ(st.raw_transitions, 20'000u);
  // Only (cpu,3) + (bus,5) survives: 33 cpu alternatives times 40 bus ones.
  EXPECT_EQ(st.kept_transitions, 33u * 40u);
  EXPECT_EQ(fan.size(), 33u * 40u);
  EXPECT_GT(st.preemption_checks, 0u);
  EXPECT_LE(st.preemption_checks, 15u * 15u);
}

}  // namespace
