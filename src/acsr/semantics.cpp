#include "acsr/semantics.hpp"

#include <algorithm>
#include <tuple>

#include "acsr/preemption.hpp"

namespace aadlsched::acsr {

namespace {

std::tuple<int, std::uint32_t, std::uint32_t, std::uint32_t, TermId>
sort_key(const Transition& t) {
  return {static_cast<int>(t.label.kind), t.label.action,
          t.label.event * 2u + (t.label.send ? 1u : 0u),
          static_cast<std::uint32_t>(t.label.priority), t.target};
}

void canonicalize(std::vector<Transition>& ts) {
  std::sort(ts.begin(), ts.end(), [](const Transition& a, const Transition& b) {
    return sort_key(a) < sort_key(b);
  });
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
}

}  // namespace

std::vector<Transition> Semantics::transitions(TermId t) {
  const auto ts = window(fan(t));
  return {ts.begin(), ts.end()};
}

std::vector<Transition> Semantics::prioritized(TermId t) {
  std::vector<Transition> ts = transitions(t);
  stats_.raw_transitions += ts.size();
  stats_.preemption_checks += prioritize(ctx_.actions(), ts, runs_);
  stats_.kept_transitions += ts.size();
  return ts;
}

Semantics::FanRef Semantics::fan(TermId t) {
  if (const FanRef* ref = memo_.find(t)) {
    ++stats_.memo_hits;
    return *ref;
  }
  ++stats_.computed;
  std::vector<Transition> ts;
  compute(t, ts);
  canonicalize(ts);
  // Nested fan() calls inside compute() appended their own windows first,
  // so the arena tail is free here.
  const FanRef ref{static_cast<std::uint32_t>(fan_arena_.size()),
                   static_cast<std::uint32_t>(ts.size())};
  fan_arena_.insert(fan_arena_.end(), ts.begin(), ts.end());
  memo_.emplace(t, ref);
  return ref;
}

void Semantics::compute(TermId t, std::vector<Transition>& out) {
  TermTable& tt = ctx_.terms();
  const TermNode& node = tt.node(t);  // chunked: stays valid
  switch (node.kind) {
    case TermKind::Nil:
      break;

    case TermKind::Act:
      out.push_back(Transition{Label::make_action(node.a), node.b});
      break;

    case TermKind::Evt:
      out.push_back(Transition{
          Label::make_event(node.a, node.flag != 0,
                            static_cast<Priority>(node.c)),
          node.b});
      break;

    case TermKind::Choice:
      for (const TermId k : tt.payload(t)) {
        const auto ks = window(fan(k));
        out.insert(out.end(), ks.begin(), ks.end());
      }
      break;

    case TermKind::Parallel:
      parallel_transitions(t, out);
      break;

    case TermKind::Restrict: {
      const EventSetId fset = node.a;
      for (const Transition& tr : window(fan(node.b))) {
        if (tr.label.kind == Label::Kind::Event &&
            ctx_.event_sets().contains(fset, tr.label.event))
          continue;  // restricted: may only synchronize inside
        out.push_back(
            Transition{tr.label, tt.restrict(fset, tr.target)});
      }
      break;
    }

    case TermKind::Scope: {
      const ScopeParts parts = tt.scope_parts(t);
      for (const Transition& tr : window(fan(parts.body))) {
        if (tr.label.is_timed()) {
          ScopeParts next = parts;
          next.body = tr.target;
          if (next.time_left != kInfiniteTime) --next.time_left;
          out.push_back(Transition{tr.label, tt.scope(next)});
        } else if (tr.label.kind == Label::Kind::Event &&
                   tr.label.send && parts.exception_label != 0 &&
                   tr.label.event == parts.exception_label) {
          // Voluntary exit: control transfers to the exception
          // continuation, the scope is dissolved.
          const TermId target = parts.exception_cont == kInvalidTerm
                                    ? kNil
                                    : parts.exception_cont;
          out.push_back(Transition{tr.label, target});
        } else {
          // Events are instantaneous: the clock of the scope is unchanged.
          ScopeParts next = parts;
          next.body = tr.target;
          out.push_back(Transition{tr.label, tt.scope(next)});
        }
      }
      if (parts.interrupt_handler != kInvalidTerm) {
        // The interrupt handler's initial steps remain enabled for the
        // lifetime of the scope; taking one abandons the body.
        const auto intr = window(fan(parts.interrupt_handler));
        out.insert(out.end(), intr.begin(), intr.end());
      }
      break;
    }

    case TermKind::Call: {
      const auto body = window(fan(ctx_.unfold(t)));
      out.assign(body.begin(), body.end());
      break;
    }
  }
}

void Semantics::parallel_transitions(TermId t, std::vector<Transition>& out) {
  TermTable& tt = ctx_.terms();
  ActionTable& at = ctx_.actions();
  const auto kids = tt.payload(t);  // chunked: stays valid
  const std::size_t n = kids.size();

  // Child fans first: computing one can grow the arena, so their windows
  // are read only once every child fan is in.
  std::vector<FanRef> refs(n);
  for (std::size_t i = 0; i < n; ++i) refs[i] = fan(kids[i]);
  const auto fan_of = [&](std::size_t i) { return window(refs[i]); };

  // Successor components: `scratch` is the composition with entry i (and
  // j) replaced, restored after each use.
  std::vector<TermId> scratch(kids.begin(), kids.end());

  // Par1/Par2: events and taus of one component interleave.
  for (std::size_t i = 0; i < n; ++i) {
    for (const Transition& tr : fan_of(i)) {
      if (tr.label.is_timed()) continue;
      scratch[i] = tr.target;
      out.push_back(Transition{tr.label, tt.parallel(scratch)});
      scratch[i] = kids[i];
    }
  }

  // Par4: matching send/receive pairs synchronize into tau. The tau's
  // priority is the sum of the two offers; it remembers the event label.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (const Transition& ti : fan_of(i)) {
        if (ti.label.kind != Label::Kind::Event) continue;
        for (const Transition& tj : fan_of(j)) {
          if (tj.label.kind != Label::Kind::Event) continue;
          if (ti.label.event != tj.label.event ||
              ti.label.send == tj.label.send)
            continue;
          scratch[i] = ti.target;
          scratch[j] = tj.target;
          out.push_back(Transition{
              Label::make_tau(ti.label.event,
                              ti.label.priority + tj.label.priority),
              tt.parallel(scratch)});
          scratch[i] = kids[i];
          scratch[j] = kids[j];
        }
      }
    }
  }

  // Par3: one global timed action combining a timed step of *every*
  // component, resource sets pairwise disjoint. Built as a left fold over
  // the components; if any component offers no timed step, time cannot
  // advance in the composition. After folding in i components, partial p
  // is actions[p] with the targets chosen[p * i, (p + 1) * i).
  std::vector<ActionId> actions{kIdleAction}, next_actions;
  std::vector<TermId> chosen, next_chosen;
  for (std::size_t i = 0; i < n && !actions.empty(); ++i) {
    next_actions.clear();
    next_chosen.clear();
    for (std::size_t p = 0; p < actions.size(); ++p) {
      for (const Transition& tr : fan_of(i)) {
        if (!tr.label.is_timed()) continue;
        if (!at.disjoint(actions[p], tr.label.action)) continue;
        next_actions.push_back(at.merge(actions[p], tr.label.action));
        const auto row = chosen.begin() + p * i;
        next_chosen.insert(next_chosen.end(), row, row + i);
        next_chosen.push_back(tr.target);
      }
    }
    actions.swap(next_actions);
    chosen.swap(next_chosen);
  }
  for (std::size_t p = 0; p < actions.size(); ++p) {
    const auto row = chosen.begin() + p * n;
    scratch.assign(row, row + n);
    out.push_back(
        Transition{Label::make_action(actions[p]), tt.parallel(scratch)});
  }
}

}  // namespace aadlsched::acsr
