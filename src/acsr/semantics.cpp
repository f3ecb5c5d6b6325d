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
  if (const FanRef* ref = memo_.find(t)) {
    ++stats_.memo_hits;
    const auto first = fan_arena_.begin() + ref->offset;
    return {first, first + ref->len};
  }
  ++stats_.computed;
  std::vector<Transition> ts = compute(t);
  canonicalize(ts);
  // Nested transitions() calls inside compute() appended their own windows
  // first, so the arena tail is free here.
  const auto offset = static_cast<std::uint32_t>(fan_arena_.size());
  fan_arena_.insert(fan_arena_.end(), ts.begin(), ts.end());
  memo_.emplace(t, FanRef{offset, static_cast<std::uint32_t>(ts.size())});
  return ts;
}

std::vector<Transition> Semantics::prioritized(TermId t) {
  std::vector<Transition> ts = transitions(t);
  prioritize(ctx_.actions(), ts);
  return ts;
}

std::vector<Transition> Semantics::compute(TermId t) {
  TermTable& tt = ctx_.terms();
  std::vector<Transition> out;
  // Copy the node: recursive calls below intern new terms, which can
  // reallocate the node table and invalidate references into it.
  const TermNode node = tt.node(t);
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

    case TermKind::Choice: {
      const auto p = tt.payload(t);
      const std::vector<TermId> kids(p.begin(), p.end());
      for (TermId k : kids) {
        const std::vector<Transition> ks = transitions(k);
        out.insert(out.end(), ks.begin(), ks.end());
      }
      break;
    }

    case TermKind::Parallel:
      parallel_transitions(t, out);
      break;

    case TermKind::Restrict: {
      const EventSetId fset = node.a;
      const std::vector<Transition> body = transitions(node.b);
      for (const Transition& tr : body) {
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
      const std::vector<Transition> body = transitions(parts.body);
      for (const Transition& tr : body) {
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
        const std::vector<Transition> intr =
            transitions(parts.interrupt_handler);
        out.insert(out.end(), intr.begin(), intr.end());
      }
      break;
    }

    case TermKind::Call: {
      const TermId body = ctx_.unfold(t);
      out = transitions(body);
      break;
    }
  }
  return out;
}

void Semantics::parallel_transitions(TermId t, std::vector<Transition>& out) {
  TermTable& tt = ctx_.terms();
  const auto p = tt.payload(t);
  const std::vector<TermId> kids(p.begin(), p.end());
  const std::size_t n = kids.size();

  // Child fans, copied up front: computing one child's fan can invalidate
  // references produced for another.
  std::vector<std::vector<Transition>> fans(n);
  for (std::size_t i = 0; i < n; ++i) fans[i] = transitions(kids[i]);

  std::vector<TermId> scratch;
  const auto rebuilt = [&](std::size_t i, TermId replacement) {
    scratch = kids;
    scratch[i] = replacement;
    return tt.parallel(scratch);
  };

  // Par1/Par2: events and taus of one component interleave.
  for (std::size_t i = 0; i < n; ++i) {
    for (const Transition& tr : fans[i]) {
      if (tr.label.is_timed()) continue;
      out.push_back(Transition{tr.label, rebuilt(i, tr.target)});
    }
  }

  // Par4: matching send/receive pairs synchronize into tau. The tau's
  // priority is the sum of the two offers; it remembers the event label.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (const Transition& ti : fans[i]) {
        if (ti.label.kind != Label::Kind::Event) continue;
        for (const Transition& tj : fans[j]) {
          if (tj.label.kind != Label::Kind::Event) continue;
          if (ti.label.event != tj.label.event ||
              ti.label.send == tj.label.send)
            continue;
          scratch = kids;
          scratch[i] = ti.target;
          scratch[j] = tj.target;
          out.push_back(Transition{
              Label::make_tau(ti.label.event,
                              ti.label.priority + tj.label.priority),
              tt.parallel(scratch)});
        }
      }
    }
  }

  // Par3: one global timed action combining a timed step of *every*
  // component, resource sets pairwise disjoint. Built as a left fold over
  // the components; if any component offers no timed step, time cannot
  // advance in the composition.
  struct Partial {
    ActionId action = kIdleAction;
    std::vector<TermId> chosen;
  };
  std::vector<Partial> partials(1);
  partials[0].chosen.reserve(n);
  for (std::size_t i = 0; i < n && !partials.empty(); ++i) {
    std::vector<Partial> next;
    for (const Partial& part : partials) {
      for (const Transition& tr : fans[i]) {
        if (!tr.label.is_timed()) continue;
        if (!ctx_.actions().disjoint(part.action, tr.label.action)) continue;
        Partial ext;
        ext.action = ctx_.actions().merge(part.action, tr.label.action);
        ext.chosen = part.chosen;
        ext.chosen.push_back(tr.target);
        next.push_back(std::move(ext));
      }
    }
    partials = std::move(next);
  }
  for (Partial& part : partials) {
    out.push_back(Transition{Label::make_action(part.action),
                             tt.parallel(std::move(part.chosen))});
  }
}

}  // namespace aadlsched::acsr
