#include "versa/reduction.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace aadlsched::versa {

using acsr::DefId;
using acsr::Event;
using acsr::EventSetId;
using acsr::Label;
using acsr::ParamValue;
using acsr::Priority;
using acsr::ScopeParts;
using acsr::TermId;
using acsr::TermKind;
using acsr::TermNode;
using acsr::TermTable;
using acsr::Transition;

// --- SymmetryModel ---------------------------------------------------------

SymmetryModel SymmetryModel::build(
    acsr::Context& ctx,
    const std::vector<std::vector<std::string>>& role_groups,
    bool uniform_dispatch) {
  SymmetryModel m;
  m.uniform_dispatch_ = uniform_dispatch;

  for (const std::vector<std::string>& roles : role_groups) {
    if (roles.size() < 2) continue;
    Group g;
    g.roles = roles;
    g.events_by_kind.resize(2);
    for (const std::string& role : roles) {
      g.events_by_kind[0].push_back(ctx.event("dispatch_" + role));
      g.events_by_kind[1].push_back(ctx.event("done_" + role));
    }

    // Every definition whose name is "T_<role0>_<suffix>" or
    // "D_<role0>_<suffix>" anchors one shape row; the sibling for each
    // other role must exist under the same prefix/suffix or the group is
    // structurally asymmetric and gets dropped (safe: no reduction).
    bool ok = true;
    static const char* const kPrefixes[] = {"T_", "D_"};
    const std::size_t ndefs = ctx.definition_count();
    for (std::size_t d = 0; d < ndefs && ok; ++d) {
      const std::string& name =
          ctx.definition(static_cast<DefId>(d)).name;
      for (const char* prefix : kPrefixes) {
        const std::string head = prefix + roles[0] + "_";
        if (name.size() <= head.size() ||
            name.compare(0, head.size(), head) != 0)
          continue;
        const std::string suffix = name.substr(head.size());
        std::vector<DefId> row{static_cast<DefId>(d)};
        for (std::size_t r = 1; r < roles.size(); ++r) {
          const auto sib =
              ctx.find_definition(prefix + roles[r] + "_" + suffix);
          if (!sib) {
            ok = false;
            break;
          }
          row.push_back(*sib);
        }
        if (!ok) break;
        g.defs_by_kind.push_back(std::move(row));
      }
    }
    if (!ok || g.defs_by_kind.empty()) continue;

    const auto gi = static_cast<std::int32_t>(m.groups_.size());
    for (std::size_t k = 0; k < g.defs_by_kind.size(); ++k)
      for (std::size_t r = 0; r < g.defs_by_kind[k].size(); ++r)
        m.def_tags_.emplace(
            g.defs_by_kind[k][r],
            Tag{gi, static_cast<std::int32_t>(k),
                static_cast<std::int32_t>(r)});
    for (std::size_t k = 0; k < g.events_by_kind.size(); ++k)
      for (std::size_t r = 0; r < g.events_by_kind[k].size(); ++r)
        m.event_tags_.emplace(
            g.events_by_kind[k][r],
            Tag{gi, static_cast<std::int32_t>(k),
                static_cast<std::int32_t>(r)});
    m.groups_.push_back(std::move(g));
  }
  return m;
}

std::vector<std::vector<std::string>> SymmetryModel::role_names() const {
  std::vector<std::vector<std::string>> out;
  out.reserve(groups_.size());
  for (const Group& g : groups_) out.push_back(g.roles);
  return out;
}

// --- Reducer ---------------------------------------------------------------

std::uint32_t Reducer::owner_encoded(TermId t) {
  if (const std::uint32_t* cached = owner_memo_.find(t)) return *cached;
  TermTable& tt = sem_.context().terms();
  const TermNode node = tt.node(t);
  std::uint32_t owner = kOwnerNone;
  const auto merge = [&owner](std::uint32_t x) {
    if (x == kOwnerNone) return;
    if (owner == kOwnerNone)
      owner = x;
    else if (owner != x)
      owner = kOwnerMixed;
  };
  const auto tag_of = [](const SymmetryModel::Tag* tag) -> std::uint32_t {
    return (static_cast<std::uint32_t>(tag->group) << 16) |
           static_cast<std::uint32_t>(tag->role);
  };
  switch (node.kind) {
    case TermKind::Nil:
      break;
    case TermKind::Act:
      merge(owner_encoded(node.b));
      break;
    case TermKind::Evt:
      if (const auto* tag = model_->event_tag(node.a)) merge(tag_of(tag));
      merge(owner_encoded(node.b));
      break;
    case TermKind::Choice:
    case TermKind::Parallel: {
      const auto p = tt.payload(t);
      const std::vector<TermId> kids(p.begin(), p.end());
      for (const TermId k : kids) merge(owner_encoded(k));
      break;
    }
    case TermKind::Restrict:
      merge(owner_encoded(node.b));
      break;
    case TermKind::Scope: {
      const ScopeParts parts = tt.scope_parts(t);
      merge(owner_encoded(parts.body));
      if (parts.exception_label != 0)
        if (const auto* tag = model_->event_tag(parts.exception_label))
          merge(tag_of(tag));
      if (parts.exception_cont != acsr::kInvalidTerm)
        merge(owner_encoded(parts.exception_cont));
      if (parts.interrupt_handler != acsr::kInvalidTerm)
        merge(owner_encoded(parts.interrupt_handler));
      if (parts.timeout_handler != acsr::kInvalidTerm)
        merge(owner_encoded(parts.timeout_handler));
      break;
    }
    case TermKind::Call:
      if (const auto* tag = model_->def_tag(node.a)) merge(tag_of(tag));
      break;
  }
  owner_memo_.emplace(t, owner);
  return owner;
}

TermId Reducer::rename(TermId t, std::int32_t group, std::int32_t from,
                       std::int32_t to) {
  if (from == to) return t;
  const std::uint64_t key = (static_cast<std::uint64_t>(t) << 32) |
                            (static_cast<std::uint32_t>(group) << 16) |
                            (static_cast<std::uint32_t>(from) << 8) |
                            static_cast<std::uint32_t>(to);
  if (const auto it = rename_memo_.find(key); it != rename_memo_.end())
    return it->second;

  TermTable& tt = sem_.context().terms();
  const TermNode node = tt.node(t);  // copy: interning below can reallocate
  const SymmetryModel::Group& g =
      model_->groups()[static_cast<std::size_t>(group)];
  const auto map_event = [&](Event e) -> Event {
    const auto* tag = model_->event_tag(e);
    if (tag && tag->group == group && tag->role == from)
      return g.events_by_kind[static_cast<std::size_t>(tag->kind)]
                             [static_cast<std::size_t>(to)];
    return e;
  };

  TermId out = t;
  switch (node.kind) {
    case TermKind::Nil:
      break;
    case TermKind::Act:
      out = tt.act(node.a, rename(node.b, group, from, to));
      break;
    case TermKind::Evt:
      out = tt.evt(map_event(node.a), node.flag != 0,
                   static_cast<Priority>(node.c),
                   rename(node.b, group, from, to));
      break;
    case TermKind::Choice:
    case TermKind::Parallel: {
      const auto p = tt.payload(t);
      std::vector<TermId> kids(p.begin(), p.end());
      for (TermId& k : kids) k = rename(k, group, from, to);
      out = node.kind == TermKind::Choice ? tt.choice(std::move(kids))
                                          : tt.parallel(std::move(kids));
      break;
    }
    case TermKind::Restrict:
      out = tt.restrict(node.a, rename(node.b, group, from, to));
      break;
    case TermKind::Scope: {
      ScopeParts parts = tt.scope_parts(t);
      parts.body = rename(parts.body, group, from, to);
      if (parts.exception_label != 0)
        parts.exception_label = map_event(parts.exception_label);
      if (parts.exception_cont != acsr::kInvalidTerm)
        parts.exception_cont = rename(parts.exception_cont, group, from, to);
      if (parts.interrupt_handler != acsr::kInvalidTerm)
        parts.interrupt_handler =
            rename(parts.interrupt_handler, group, from, to);
      if (parts.timeout_handler != acsr::kInvalidTerm)
        parts.timeout_handler =
            rename(parts.timeout_handler, group, from, to);
      out = tt.scope(parts);
      break;
    }
    case TermKind::Call: {
      DefId def = node.a;
      if (const auto* tag = model_->def_tag(def);
          tag && tag->group == group && tag->role == from)
        def = g.defs_by_kind[static_cast<std::size_t>(tag->kind)]
                            [static_cast<std::size_t>(to)];
      const auto p = tt.payload(t);
      std::vector<ParamValue> args;
      args.reserve(p.size());
      for (const std::uint32_t v : p)
        args.push_back(static_cast<ParamValue>(v));
      out = tt.call(def, args);
      break;
    }
  }
  rename_memo_.emplace(key, out);
  return out;
}

TermId Reducer::canon_compute(TermId t) {
  TermTable& tt = sem_.context().terms();
  const TermNode node = tt.node(t);
  if (node.kind == TermKind::Restrict) {
    const TermId body = canonical(node.b);
    return body == node.b ? t : tt.restrict(node.a, body);
  }
  if (node.kind != TermKind::Parallel) return t;

  const auto p = tt.payload(t);
  const std::vector<TermId> kids(p.begin(), p.end());

  const auto& groups = model_->groups();
  std::vector<std::vector<std::vector<TermId>>> by_group(groups.size());
  std::vector<TermId> rebuilt;
  rebuilt.reserve(kids.size());
  bool any_role_child = false;
  for (const TermId k : kids) {
    const std::uint32_t owner = owner_encoded(k);
    if (owner == kOwnerNone || owner == kOwnerMixed) {
      rebuilt.push_back(k);
      continue;
    }
    const std::size_t g = owner >> 16;
    const std::size_t r = owner & 0xFFFFu;
    if (by_group[g].empty()) by_group[g].resize(groups[g].roles.size());
    by_group[g][r].push_back(k);
    any_role_child = true;
  }
  if (!any_role_child) return t;

  for (std::size_t g = 0; g < groups.size(); ++g) {
    auto& roles = by_group[g];
    if (roles.empty()) continue;
    // Neutral signature: every role's children renamed into role 0's
    // namespace, sorted. π-related states produce the same multiset of
    // signatures, so the sorted assignment below is orbit-invariant.
    std::vector<std::vector<TermId>> sigs(roles.size());
    for (std::size_t r = 0; r < roles.size(); ++r) {
      sigs[r].reserve(roles[r].size());
      for (const TermId k : roles[r])
        sigs[r].push_back(rename(k, static_cast<std::int32_t>(g),
                                 static_cast<std::int32_t>(r), 0));
      std::sort(sigs[r].begin(), sigs[r].end());
    }
    std::vector<std::size_t> order(roles.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&sigs](std::size_t a, std::size_t b) {
                return sigs[a] != sigs[b] ? sigs[a] < sigs[b] : a < b;
              });
    for (std::size_t j = 0; j < order.size(); ++j)
      for (const TermId s : sigs[order[j]])
        rebuilt.push_back(rename(s, static_cast<std::int32_t>(g), 0,
                                 static_cast<std::int32_t>(j)));
  }
  if (rebuilt.size() == 1) return rebuilt[0];
  return tt.parallel(rebuilt);
}

TermId Reducer::canonical(TermId t) {
  if (!active() || !opts_.symmetry) return t;
  if (const TermId* cached = canon_memo_.find(t)) return *cached;
  const TermId out = canon_compute(t);
  canon_memo_.emplace(t, out);
  if (out != t) ++stats_.states_saved;
  return out;
}

namespace {

/// Same ordering Semantics::canonicalize uses, so predicted and actual
/// fans can be compared element-wise after sorting.
bool transition_less(const Transition& a, const Transition& b) {
  const auto key = [](const Transition& t) {
    return std::make_tuple(static_cast<int>(t.label.kind), t.label.action,
                           t.label.event * 2u + (t.label.send ? 1u : 0u),
                           static_cast<std::uint32_t>(t.label.priority),
                           t.target);
  };
  return key(a) < key(b);
}

/// base \ removed ++ added over sorted unique `base`; false when some
/// element of `removed` is not present.
bool apply_move(const std::vector<TermId>& base,
                const std::vector<TermId>& removed,
                const std::vector<TermId>& added,
                std::vector<TermId>& out) {
  out.clear();
  out.reserve(base.size());
  std::size_t r = 0;
  for (const TermId c : base) {
    if (r < removed.size() && removed[r] == c) {
      ++r;
      continue;
    }
    out.push_back(c);
  }
  if (r != removed.size()) return false;
  out.insert(out.end(), added.begin(), added.end());
  return true;
}

}  // namespace

void Reducer::linearize(TermId s, std::vector<Transition>& fan) {
  if (!active() || !opts_.commute || fan.size() < 2) return;

  // Condition 1: the whole prioritized fan is equal-priority taus. (At a
  // uniform dispatch boundary these are the dispatcher/skeleton syncs; any
  // timed or external-event alternative disables the rule.)
  const Priority prio = fan[0].label.priority;
  for (const Transition& tr : fan)
    if (tr.label.kind != Label::Kind::Tau || tr.label.priority != prio)
      return;

  TermTable& tt = sem_.context().terms();
  const TermNode snode = tt.node(s);
  if (snode.kind != TermKind::Restrict) return;
  const EventSetId fset = snode.a;
  if (tt.kind(snode.b) != TermKind::Parallel) return;
  const auto sp = tt.payload(snode.b);
  const std::vector<TermId> base(sp.begin(), sp.end());
  // Duplicate children make mover replacement ambiguous — bail.
  for (std::size_t i = 1; i < base.size(); ++i)
    if (base[i] == base[i - 1]) return;

  // Condition 2: each transition's movers (the children it changes) are
  // owned by a single symmetry role, and those roles are pairwise
  // distinct — the taus touch disjoint, non-communicating components.
  struct Move {
    std::vector<TermId> removed, added;
  };
  std::vector<Move> moves(fan.size());
  std::vector<std::uint32_t> owners(fan.size());
  for (std::size_t i = 0; i < fan.size(); ++i) {
    const TermNode tn = tt.node(fan[i].target);
    if (tn.kind != TermKind::Restrict || tn.a != fset) return;
    if (tt.kind(tn.b) != TermKind::Parallel) return;
    const auto tp = tt.payload(tn.b);
    const std::vector<TermId> tgt(tp.begin(), tp.end());
    if (tgt.size() != base.size()) return;
    std::set_difference(base.begin(), base.end(), tgt.begin(), tgt.end(),
                        std::back_inserter(moves[i].removed));
    std::set_difference(tgt.begin(), tgt.end(), base.begin(), base.end(),
                        std::back_inserter(moves[i].added));
    if (moves[i].removed.empty() || moves[i].added.empty()) return;
    std::uint32_t own = kOwnerNone;
    for (const std::vector<TermId>* side :
         {&moves[i].removed, &moves[i].added}) {
      for (const TermId c : *side) {
        const std::uint32_t o = owner_encoded(c);
        if (o == kOwnerNone || o == kOwnerMixed) return;
        if (own == kOwnerNone)
          own = o;
        else if (own != o)
          return;
      }
    }
    owners[i] = own;
  }
  {
    std::vector<std::uint32_t> sorted = owners;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      return;
  }

  // Condition 3 (verification): after the least tau, the successor's
  // prioritized fan must be *exactly* the predicted residual — the other
  // taus, shifted by their own movers. No new transition, no lost one, no
  // priority shift. The same check re-runs when that successor is
  // expanded, so the whole kept chain is verified stepwise.
  const TermId t0 = fan[0].target;
  const TermNode t0node = tt.node(t0);
  const auto t0p = tt.payload(t0node.b);
  const std::vector<TermId> base0(t0p.begin(), t0p.end());
  std::vector<Transition> predicted;
  predicted.reserve(fan.size() - 1);
  std::vector<TermId> scratch;
  for (std::size_t j = 1; j < fan.size(); ++j) {
    if (!apply_move(base0, moves[j].removed, moves[j].added, scratch))
      return;
    const TermId par = tt.parallel(scratch);
    predicted.push_back(Transition{fan[j].label, tt.restrict(fset, par)});
  }
  std::vector<Transition> actual = sem_.prioritized(t0);
  if (actual.size() != predicted.size()) return;
  std::sort(predicted.begin(), predicted.end(), transition_less);
  std::sort(actual.begin(), actual.end(), transition_less);
  if (actual != predicted) return;

  stats_.pruned_transitions += fan.size() - 1;
  ++stats_.commuted_expansions;
  fan.resize(1);
}

}  // namespace aadlsched::versa
