#include "acsr/preemption.hpp"

namespace aadlsched::acsr {

bool preempted_by(const ActionTable& actions, const Label& a,
                  const Label& b) {
  using K = Label::Kind;
  switch (a.kind) {
    case K::Action:
      if (b.kind == K::Action)
        return actions.preempts(a.action, b.action);
      if (b.kind == K::Tau) return b.priority > 0;
      return false;
    case K::Event:
      return b.kind == K::Event && a.event == b.event && a.send == b.send &&
             b.priority > a.priority;
    case K::Tau:
      return b.kind == K::Tau && b.priority > a.priority;
  }
  return false;
}

std::uint64_t prioritize(const ActionTable& actions,
                         std::vector<Transition>& ts,
                         std::vector<LabelRun>& runs) {
  if (ts.size() < 2) return 0;
  runs.clear();
  for (const Transition& t : ts)
    if (runs.empty() || runs.back().label != t.label)
      runs.push_back(LabelRun{t.label});
  // A label is kept iff no label of the *full* set preempts it (the
  // relation is applied against all siblings, including ones that are
  // themselves preempted; preemption chains are consistent because the
  // underlying orders are transitive). Equal labels never preempt each
  // other, so an unsorted fan, whose runs repeat labels, decides the same.
  std::uint64_t checks = 0;
  for (LabelRun& run : runs) {
    for (const LabelRun& other : runs) {
      if (&run == &other) continue;
      ++checks;
      if (preempted_by(actions, run.label, other.label)) {
        run.preempted = true;
        break;
      }
    }
  }
  std::size_t w = 0;
  std::size_t r = 0;
  for (const Transition& t : ts) {
    if (t.label != runs[r].label) ++r;  // the next run starts here
    if (!runs[r].preempted) ts[w++] = t;
  }
  ts.resize(w);
  return checks;
}

}  // namespace aadlsched::acsr
