#include "versa/checkpoint.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>
#include <vector>

#include "acsr/parser.hpp"
#include "acsr/printer.hpp"
#include "util/diagnostics.hpp"
#include "util/hash.hpp"

namespace aadlsched::versa {

using acsr::TermId;
using acsr::TermKind;
using acsr::TermNode;
using acsr::kInvalidTerm;

namespace {

constexpr std::string_view kMagic = "aadlsched-checkpoint";
// v2 added the reduction section (settings + symmetry role groups). v1
// blobs carry no reduction provenance, so they are rejected as stale
// rather than resumed with guessed settings.
constexpr std::string_view kVersion = "v2";

std::string hex64(std::uint64_t v) {
  static constexpr char digits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Child term ids of a node, including the optional scope handlers.
template <typename Fn>
void for_each_child(const acsr::TermTable& tt, TermId id, const Fn& fn) {
  const TermNode& n = tt.node(id);
  switch (n.kind) {
    case TermKind::Nil:
    case TermKind::Call:
      break;
    case TermKind::Act:
    case TermKind::Evt:
    case TermKind::Restrict:
      fn(n.b);
      break;
    case TermKind::Choice:
    case TermKind::Parallel:
      for (const std::uint32_t c : tt.payload(id)) fn(c);
      break;
    case TermKind::Scope: {
      const acsr::ScopeParts p = tt.scope_parts(id);
      fn(p.body);
      if (p.exception_cont != kInvalidTerm) fn(p.exception_cont);
      if (p.interrupt_handler != kInvalidTerm) fn(p.interrupt_handler);
      if (p.timeout_handler != kInvalidTerm) fn(p.timeout_handler);
      break;
    }
  }
}

/// Emit a list of u32 values, wrapped so no line grows unbounded.
void emit_ids(std::ostringstream& os, const std::vector<std::uint32_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i)
    os << ids[i] << ((i + 1) % 16 == 0 || i + 1 == ids.size() ? '\n' : ' ');
}

/// Incremental parser over the digest-verified body. All reads are bounds-
/// checked; the first failure latches and everything after no-ops.
class Reader {
 public:
  explicit Reader(std::string body) : is_(std::move(body)) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void fail(std::string msg) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(msg);
    }
  }

  /// Consume one whitespace-delimited token and require it to be `word`.
  void expect(std::string_view word) {
    if (!ok_) return;
    std::string t;
    if (!(is_ >> t) || t != word)
      fail("expected '" + std::string(word) + "', found '" + t + "'");
  }

  std::string token(std::string_view what) {
    std::string t;
    if (ok_ && !(is_ >> t)) fail("missing " + std::string(what));
    return t;
  }

  std::int64_t num(std::string_view what) {
    std::int64_t v = 0;
    if (ok_ && !(is_ >> v)) fail("missing number: " + std::string(what));
    return v;
  }

  std::uint64_t unum(std::string_view what) {
    const std::int64_t v = num(what);
    if (v < 0) fail("negative count: " + std::string(what));
    return static_cast<std::uint64_t>(v);
  }

  /// Read exactly `n` raw bytes (after skipping the newline that ends the
  /// current line).
  std::string raw(std::uint64_t n) {
    std::string out;
    if (!ok_) return out;
    is_.get();  // the '\n' after the byte count
    out.resize(n);
    if (!is_.read(out.data(), static_cast<std::streamsize>(n)))
      fail("truncated raw section");
    return out;
  }

  /// Rest of the current line (after one separating space).
  std::string line(std::string_view what) {
    std::string out;
    if (!ok_) return out;
    is_.get();  // the ' ' after the keyword
    if (!std::getline(is_, out)) fail("missing " + std::string(what));
    return out;
  }

 private:
  std::istringstream is_;
  bool ok_ = true;
  std::string error_;
};

}  // namespace

std::string serialize_checkpoint(const acsr::Context& ctx,
                                 const Wavefront& wave,
                                 std::string_view key,
                                 const CheckpointReduction& reduction) {
  const acsr::TermTable& tt = ctx.terms();
  acsr::Printer printer(ctx);

  // Mark the term DAG reachable from the wavefront (children first by
  // construction: every child has a smaller TermId than its parent).
  std::vector<bool> marked(tt.size(), false);
  std::vector<TermId> stack;
  const auto push = [&](TermId id) {
    if (id != kInvalidTerm && !marked[id]) {
      marked[id] = true;
      stack.push_back(id);
    }
  };
  push(wave.initial);
  if (wave.deadlock_found) push(wave.first_deadlock);
  for (const TermId s : wave.visited) push(s);
  for (const TermId s : wave.frontier) push(s);
  for (const TermId s : wave.next_frontier) push(s);
  while (!stack.empty()) {
    const TermId id = stack.back();
    stack.pop_back();
    for_each_child(tt, id, push);
  }

  // Dense serialization index in ascending TermId order.
  std::vector<std::uint32_t> dense(tt.size(),
                                   std::numeric_limits<std::uint32_t>::max());
  std::uint32_t count = 0;
  for (TermId id = 0; id < tt.size(); ++id)
    if (marked[id]) dense[id] = count++;

  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n';
  os << "key " << (key.empty() ? "-" : key) << '\n';
  os << "stats " << wave.states << ' ' << wave.transitions << ' '
     << wave.depth << ' ' << wave.peak_frontier << ' ' << wave.deadlock_count
     << ' ' << (wave.deadlock_found ? 1 : 0) << '\n';

  // Reduction provenance (v2): the visited set below holds whatever the
  // capturing run deduplicated on — orbit representatives when symmetry
  // canonicalization was active — so a resume must rebuild the same model.
  os << "reduction " << (reduction.symmetry ? 1 : 0) << ' '
     << (reduction.commute ? 1 : 0) << ' '
     << (reduction.uniform_dispatch ? 1 : 0) << ' '
     << reduction.role_groups.size() << '\n';
  for (const std::vector<std::string>& g : reduction.role_groups) {
    os << "group " << g.size();
    for (const std::string& role : g) os << ' ' << role;
    os << '\n';
  }

  const std::string module_text = printer.module();
  os << "module " << module_text.size() << '\n' << module_text << '\n';

  // Name tables, by name: symbol 0 is the pre-interned empty string and is
  // implicit; DefIds are serialized as names because they are not stable
  // across a module round-trip.
  const util::Interner& res = ctx.resource_interner();
  os << "resources " << res.size() - 1 << '\n';
  for (util::Symbol s = 1; s < res.size(); ++s) os << res.str(s) << '\n';
  const util::Interner& ev = ctx.event_interner();
  os << "events " << ev.size() - 1 << '\n';
  for (util::Symbol s = 1; s < ev.size(); ++s) os << ev.str(s) << '\n';
  os << "defs " << ctx.definition_count() << '\n';
  for (acsr::DefId d = 0; d < ctx.definition_count(); ++d)
    os << ctx.definition(d).name << '\n';

  const acsr::ActionTable& at = ctx.actions();
  os << "actions " << at.size() << '\n';
  for (acsr::ActionId a = 0; a < at.size(); ++a) {
    const auto& uses = at.uses(a);
    os << uses.size();
    for (const acsr::ResourceUse& u : uses)
      os << ' ' << u.resource << ' ' << u.priority;
    os << '\n';
  }
  const acsr::EventSetTable& est = ctx.event_sets();
  os << "eventsets " << est.size() << '\n';
  for (acsr::EventSetId e = 0; e < est.size(); ++e) {
    const auto& events = est.events(e);
    os << events.size();
    for (const acsr::Event x : events) os << ' ' << x;
    os << '\n';
  }

  os << "terms " << count << '\n';
  for (TermId id = 0; id < tt.size(); ++id) {
    if (!marked[id]) continue;
    const TermNode& n = tt.node(id);
    switch (n.kind) {
      case TermKind::Nil:
        os << "N\n";
        break;
      case TermKind::Act:
        os << "A " << n.a << ' ' << dense[n.b] << '\n';
        break;
      case TermKind::Evt:
        os << "E " << n.a << ' ' << static_cast<int>(n.flag) << ' '
           << static_cast<acsr::Priority>(n.c) << ' ' << dense[n.b] << '\n';
        break;
      case TermKind::Choice:
      case TermKind::Parallel: {
        const auto p = tt.payload(id);
        os << (n.kind == TermKind::Choice ? 'C' : 'P') << ' ' << p.size();
        for (const std::uint32_t c : p) os << ' ' << dense[c];
        os << '\n';
        break;
      }
      case TermKind::Restrict:
        os << "R " << n.a << ' ' << dense[n.b] << '\n';
        break;
      case TermKind::Scope: {
        const acsr::ScopeParts p = tt.scope_parts(id);
        const auto opt = [&](TermId t) -> std::int64_t {
          return t == kInvalidTerm ? -1
                                   : static_cast<std::int64_t>(dense[t]);
        };
        os << "S " << dense[p.body] << ' ' << p.time_left << ' '
           << p.exception_label << ' ' << opt(p.exception_cont) << ' '
           << opt(p.interrupt_handler) << ' ' << opt(p.timeout_handler)
           << '\n';
        break;
      }
      case TermKind::Call: {
        const auto p = tt.payload(id);
        os << "L " << n.a << ' ' << p.size();
        for (const std::uint32_t v : p)
          os << ' ' << static_cast<acsr::ParamValue>(v);
        os << '\n';
        break;
      }
    }
  }

  os << "initial " << dense[wave.initial] << '\n';
  if (wave.deadlock_found)
    os << "firstdeadlock " << dense[wave.first_deadlock] << '\n';
  else
    os << "firstdeadlock -\n";
  // End-to-end printer/parser cross-check line (re-parsed on restore).
  os << "initialterm " << printer.ground_term(wave.initial) << '\n';

  const auto emit_list = [&](std::string_view name,
                             const std::vector<TermId>& ids, bool sorted) {
    std::vector<std::uint32_t> out;
    out.reserve(ids.size());
    for (const TermId s : ids) out.push_back(dense[s]);
    if (sorted) std::sort(out.begin(), out.end());
    os << name << ' ' << out.size() << '\n';
    emit_ids(os, out);
  };
  emit_list("frontier", wave.frontier, false);
  emit_list("next", wave.next_frontier, false);
  // The visited set is sorted so serialization does not depend on the
  // enumeration order of the engine's seen-set (byte-stable checkpoints).
  emit_list("visited", wave.visited, true);

  std::string body = os.str();
  body += "digest " + hex64(util::fnv1a(body)) + "\n";
  return body;
}

std::optional<RestoredCheckpoint> parse_checkpoint(std::string_view text,
                                                   std::string& error) {
  const auto reject = [&](std::string msg) -> std::optional<RestoredCheckpoint> {
    error = "checkpoint rejected: " + std::move(msg);
    return std::nullopt;
  };

  // Integrity first: the trailing digest line covers every preceding byte.
  const std::size_t dpos = text.rfind("\ndigest ");
  if (dpos == std::string_view::npos) return reject("no digest line");
  const std::string_view body = text.substr(0, dpos + 1);
  const std::string_view digest_hex =
      text.substr(dpos + 8, text.find('\n', dpos + 8) - (dpos + 8));
  if (digest_hex != hex64(util::fnv1a(body)))
    return reject("digest mismatch (truncated or corrupt)");

  Reader r{std::string(body)};
  r.expect(kMagic);
  {
    const std::string version = r.token("format version");
    if (r.ok() && version != kVersion)
      return reject("stale checkpoint format '" + version + "' (this build "
                    "writes " + std::string(kVersion) +
                    "); re-run cold to capture a fresh checkpoint");
  }
  r.expect("key");
  RestoredCheckpoint out;
  out.key = r.token("key");
  Wavefront& w = out.wave;
  r.expect("stats");
  w.states = r.unum("states");
  w.transitions = r.unum("transitions");
  w.depth = r.unum("depth");
  w.peak_frontier = r.unum("peak_frontier");
  w.deadlock_count = r.unum("deadlock_count");
  w.deadlock_found = r.unum("deadlock_found") != 0;

  r.expect("reduction");
  out.reduction.symmetry = r.unum("reduction symmetry flag") != 0;
  out.reduction.commute = r.unum("reduction commute flag") != 0;
  out.reduction.uniform_dispatch = r.unum("uniform-dispatch flag") != 0;
  for (std::uint64_t i = r.unum("symmetry group count"); r.ok() && i > 0;
       --i) {
    r.expect("group");
    std::vector<std::string> roles;
    for (std::uint64_t k = r.unum("role count"); r.ok() && k > 0; --k)
      roles.push_back(r.token("role name"));
    out.reduction.role_groups.push_back(std::move(roles));
  }

  r.expect("module");
  const std::string module_text = r.raw(r.unum("module bytes"));
  if (!r.ok()) return reject(r.error());

  out.ctx = std::make_unique<acsr::Context>();
  acsr::Context& ctx = *out.ctx;
  util::DiagnosticEngine mdiags("<checkpoint-module>");
  if (!acsr::parse_module(ctx, module_text, mdiags))
    return reject("embedded ACSR module failed to parse: " +
                  mdiags.render_all());

  // Name tables -> new-id maps. Index 0 is the implicit empty symbol.
  std::vector<acsr::Resource> rmap{0};
  r.expect("resources");
  for (std::uint64_t i = r.unum("resource count"); r.ok() && i > 0; --i)
    rmap.push_back(ctx.resource(r.token("resource name")));
  std::vector<acsr::Event> emap{0};
  r.expect("events");
  for (std::uint64_t i = r.unum("event count"); r.ok() && i > 0; --i)
    emap.push_back(ctx.event(r.token("event name")));
  std::vector<acsr::DefId> dmap;
  r.expect("defs");
  for (std::uint64_t i = r.unum("def count"); r.ok() && i > 0; --i) {
    const std::string name = r.token("def name");
    const auto def = ctx.find_definition(name);
    if (!def) return reject("unknown definition '" + name + "'");
    dmap.push_back(*def);
  }

  const auto mapped = [&](const auto& map, std::uint64_t idx,
                          std::string_view what) {
    using V = std::decay_t<decltype(map[0])>;
    if (idx >= map.size()) {
      r.fail("out-of-range " + std::string(what));
      return V{};
    }
    return map[idx];
  };

  std::vector<acsr::ActionId> amap;
  r.expect("actions");
  for (std::uint64_t i = r.unum("action count"); r.ok() && i > 0; --i) {
    std::vector<acsr::ResourceUse> uses;
    for (std::uint64_t k = r.unum("resource-use count"); r.ok() && k > 0;
         --k) {
      const acsr::Resource res =
          mapped(rmap, r.unum("resource id"), "resource id");
      uses.push_back(acsr::ResourceUse{
          res, static_cast<acsr::Priority>(r.num("priority"))});
    }
    amap.push_back(ctx.actions().intern(std::move(uses)));
  }
  std::vector<acsr::EventSetId> esmap;
  r.expect("eventsets");
  for (std::uint64_t i = r.unum("event-set count"); r.ok() && i > 0; --i) {
    std::vector<acsr::Event> events;
    for (std::uint64_t k = r.unum("event-set size"); r.ok() && k > 0; --k)
      events.push_back(mapped(emap, r.unum("event id"), "event id"));
    esmap.push_back(ctx.event_sets().intern(std::move(events)));
  }

  // Term DAG, children-before-parents: every reference below must point at
  // an already-reconstructed node.
  acsr::TermTable& tt = ctx.terms();
  std::vector<TermId> tmap;
  r.expect("terms");
  const std::uint64_t nterms = r.unum("term count");
  if (!r.ok()) return reject(r.error());
  tmap.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(nterms, 1u << 24)));
  const auto term_at = [&](std::int64_t idx) -> TermId {
    if (idx < 0 || static_cast<std::uint64_t>(idx) >= tmap.size()) {
      r.fail("out-of-range term reference");
      return acsr::kNil;
    }
    return tmap[static_cast<std::size_t>(idx)];
  };
  const auto oversized = [](std::uint64_t i) {
    return "term " + std::to_string(i) + " exceeds the " +
           std::to_string(acsr::TermTable::kMaxPayload) +
           "-word term payload limit";
  };
  for (std::uint64_t i = 0; r.ok() && i < nterms; ++i) {
    const std::string tag = r.token("term tag");
    if (tag == "N") {
      tmap.push_back(tt.nil());
    } else if (tag == "A") {
      const acsr::ActionId a =
          mapped(amap, r.unum("action id"), "action id");
      tmap.push_back(tt.act(a, term_at(r.num("continuation"))));
    } else if (tag == "E") {
      const acsr::Event e = mapped(emap, r.unum("event id"), "event id");
      const bool send = r.num("send flag") != 0;
      const auto prio = static_cast<acsr::Priority>(r.num("priority"));
      tmap.push_back(tt.evt(e, send, prio, term_at(r.num("continuation"))));
    } else if (tag == "C" || tag == "P") {
      std::vector<TermId> children;
      for (std::uint64_t k = r.unum("child count"); r.ok() && k > 0; --k)
        children.push_back(term_at(r.num("child")));
      if (!tt.fits_payload(tag == "C" ? acsr::TermKind::Choice
                                      : acsr::TermKind::Parallel,
                           children))
        return reject(oversized(i));
      tmap.push_back(tag == "C" ? tt.choice(std::move(children))
                                : tt.parallel(std::move(children)));
    } else if (tag == "R") {
      const acsr::EventSetId es =
          mapped(esmap, r.unum("event-set id"), "event-set id");
      tmap.push_back(tt.restrict(es, term_at(r.num("body"))));
    } else if (tag == "S") {
      acsr::ScopeParts p;
      p.body = term_at(r.num("scope body"));
      p.time_left = static_cast<acsr::TimeValue>(r.num("scope time"));
      p.exception_label =
          mapped(emap, r.unum("exception label"), "exception label");
      const auto opt = [&](std::string_view what) -> TermId {
        const std::int64_t idx = r.num(what);
        return idx < 0 ? kInvalidTerm : term_at(idx);
      };
      p.exception_cont = opt("exception continuation");
      p.interrupt_handler = opt("interrupt handler");
      p.timeout_handler = opt("timeout handler");
      tmap.push_back(tt.scope(p));
    } else if (tag == "L") {
      const acsr::DefId d = mapped(dmap, r.unum("def id"), "def id");
      std::vector<acsr::ParamValue> args;
      for (std::uint64_t k = r.unum("arg count"); r.ok() && k > 0; --k)
        args.push_back(static_cast<acsr::ParamValue>(r.num("arg")));
      if (r.ok() && args.size() != ctx.definition(d).params.size())
        return reject("arity mismatch calling '" + ctx.definition(d).name +
                      "'");
      if (args.size() > acsr::TermTable::kMaxPayload)
        return reject(oversized(i));
      tmap.push_back(tt.call(d, args));
    } else {
      return reject("unknown term tag '" + tag + "'");
    }
  }

  r.expect("initial");
  w.initial = term_at(r.num("initial index"));
  r.expect("firstdeadlock");
  {
    const std::string t = r.token("first deadlock");
    if (t != "-") {
      std::int64_t idx = -1;
      try {
        idx = std::stoll(t);
      } catch (...) {
        r.fail("malformed first-deadlock index");
      }
      w.first_deadlock = term_at(idx);
    }
  }

  r.expect("initialterm");
  const std::string initial_line = r.line("initial term");
  if (!r.ok()) return reject(r.error());

  // Printer/parser cross-check: the restored DAG's initial state must print
  // to the recorded line, and the line must re-parse to a term that prints
  // identically (full ground-term round-trip through the ACSR syntax).
  acsr::Printer printer(ctx);
  if (printer.ground_term(w.initial) != initial_line)
    return reject("initial term does not match the restored term DAG");
  util::DiagnosticEngine gdiags("<checkpoint-initial>");
  const TermId reparsed = acsr::parse_ground_term(ctx, initial_line, gdiags);
  if (reparsed == kInvalidTerm ||
      printer.ground_term(reparsed) != initial_line)
    return reject("initial term failed the printer/parser round-trip");

  const auto read_list = [&](std::string_view name,
                             std::vector<TermId>& into) {
    r.expect(name);
    for (std::uint64_t i = r.unum("list length"); r.ok() && i > 0; --i)
      into.push_back(term_at(r.num("list entry")));
  };
  read_list("frontier", w.frontier);
  read_list("next", w.next_frontier);
  read_list("visited", w.visited);

  if (!r.ok()) return reject(r.error());
  return out;
}

}  // namespace aadlsched::versa
