// Ground ACSR process terms, hash-consed.
//
// A *ground* term has no free parameters: every priority, guard and timeout
// has been evaluated. States of the exploration are ground terms, so state
// identity is TermId equality. Constructors normalize:
//   * Choice is flattened, sorted, deduplicated, and drops NIL summands
//     (P + NIL ~ P, P + P ~ P);
//   * Parallel is flattened and sorted (associativity/commutativity) but
//     keeps duplicates (P || P is not P);
//   * a Scope whose timeout reached 0 collapses to its timeout handler;
// which canonicalizes semantically-equal states and measurably shrinks the
// explored space. Nodes are found by content through a util::HashIndex.
// A term wider than kMaxPayload cannot be built: the constructor throws
// std::length_error, which the explorer reports as a fault.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acsr/ids.hpp"
#include "util/chunked_vector.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::acsr {

enum class TermKind : std::uint8_t {
  Nil,       // deadlocked process, no transitions
  Act,       // A : P        (timed action prefix)
  Evt,       // (e!,p).P or (e?,p).P
  Choice,    // P1 + ... + Pn        (n >= 2)
  Parallel,  // P1 || ... || Pn      (n >= 2)
  Restrict,  // P \ F
  Scope,     // P Δt_a (Q, R, S)     (temporal scope, §3)
  Call,      // D[v1, ..., vk]       (instantiated definition call)
};

struct TermNode {
  TermKind kind = TermKind::Nil;
  std::uint8_t flag = 0;   // Evt: 1 = send, 0 = receive
  std::uint32_t a = 0;     // Act: ActionId | Evt: Event | Restrict: EventSetId
                           // Scope: body | Call: DefId
  std::uint32_t b = 0;     // Act/Evt: continuation | Restrict: body
                           // Scope: time left (cast; kInfiniteTime = -1)
  std::uint32_t c = 0;     // Evt: priority | Scope: exception label (0=none)
  std::uint32_t extra = 0;      // offset into the extra arena
  std::uint32_t extra_len = 0;  // number of u32 payload words

  friend bool operator==(const TermNode&, const TermNode&) = default;
};

/// Scope extra payload layout (extra_len == 3):
///   [0] exception continuation (kInvalidTerm if no exception exit)
///   [1] interrupt handler      (kInvalidTerm if none)
///   [2] timeout handler        (kInvalidTerm means time out to NIL)
struct ScopeParts {
  TermId body = kNil;
  TimeValue time_left = kInfiniteTime;
  Event exception_label = 0;  // 0 = no exception exit
  TermId exception_cont = kInvalidTerm;
  TermId interrupt_handler = kInvalidTerm;
  TermId timeout_handler = kInvalidTerm;
};

class TermTable {
  using Arena = util::ChunkedVector<std::uint32_t, 14>;

 public:
  TermTable();

  TermId nil() const { return kNil; }
  TermId act(ActionId action, TermId cont);
  TermId evt(Event e, bool send, Priority priority, TermId cont);
  TermId choice(std::vector<TermId> alts);
  TermId parallel(const std::vector<TermId>& procs);
  TermId restrict(EventSetId events, TermId body);
  TermId scope(const ScopeParts& parts);
  TermId call(DefId def, std::span<const ParamValue> args);

  const TermNode& node(TermId id) const { return nodes_[id]; }
  TermKind kind(TermId id) const { return nodes_[id].kind; }

  /// Children / argument payload of a node. Storage is chunked and append-
  /// only, so the returned span stays valid across further construction.
  std::span<const std::uint32_t> payload(TermId id) const;

  ScopeParts scope_parts(TermId id) const;

  std::size_t size() const { return nodes_.size(); }

  /// Footprint of the nodes, the payload arena and the index slots, for
  /// the resource-governance memory estimate (util/budget.hpp).
  std::size_t approx_bytes() const {
    return nodes_.size() * sizeof(TermNode) +
           arena_.size() * sizeof(std::uint32_t) + index_bytes();
  }
  std::size_t index_bytes() const { return index_.approx_bytes(); }

  /// Longest payload a node can carry (one arena chunk). Untrusted input
  /// (checkpoints, parsed ground terms) checks it before constructing.
  static constexpr std::size_t kMaxPayload = Arena::kChunkSize;
  /// Whether choice()/parallel() of `children` (kind Choice or Parallel)
  /// fits in one node once nested terms of the same kind are flattened.
  bool fits_payload(TermKind kind, std::span<const TermId> children) const;

 private:
  TermId intern(TermNode proto, std::span<const std::uint32_t> payload);

  // Chunked so node references and payload spans stay valid while more
  // terms are interned (see chunked_vector.hpp).
  util::ChunkedVector<TermNode, 13> nodes_;
  Arena arena_;
  util::HashIndex index_;
  std::vector<TermId> flat_;  // parallel()'s flattening buffer, reused
};

}  // namespace aadlsched::acsr
