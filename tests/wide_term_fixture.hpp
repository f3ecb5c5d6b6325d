// A process whose first timed step flattens into a Parallel wider than
// acsr::TermTable::kMaxPayload. L0 idles forever and Lk runs two copies of
// L(k-1), so one step of Lk yields a Parallel of 2^k calls of L0: L14 fills
// the payload limit exactly, L15 is twice too wide. Shared by the explorer,
// checkpoint and service suites, which check that such a term stops the
// run with a fault instead of aborting the process.
#pragma once

#include <string>
#include <string_view>

#include "acsr/context.hpp"
#include "acsr/parser.hpp"
#include "util/diagnostics.hpp"
#include "versa/checkpoint.hpp"

namespace aadlsched::wide_term {

inline std::string doubling_module(int k) {
  std::string src = "L0 = {} : L0\n";
  for (int i = 1; i <= k; ++i) {
    const std::string prev = "L" + std::to_string(i - 1);
    src += "L" + std::to_string(i) + " = " + prev + " || " + prev + "\n";
  }
  return src;
}

/// The call Lk in `ctx`, after parsing doubling_module(k) into it;
/// kInvalidTerm when the module does not parse.
inline acsr::TermId doubling_call(acsr::Context& ctx, int k) {
  util::DiagnosticEngine diags("<wide_term>");
  if (!acsr::parse_module(ctx, doubling_module(k), diags))
    return acsr::kInvalidTerm;
  return ctx.terms().call(*ctx.find_definition("L" + std::to_string(k)), {});
}

/// A valid, sealed checkpoint whose embedded module is doubling_module(k)
/// and whose wavefront holds only the unexpanded state Lk.
inline std::string doubling_checkpoint(
    int k, std::string_view key, const versa::CheckpointReduction& reduction) {
  acsr::Context ctx;
  versa::Wavefront wave;
  wave.initial = doubling_call(ctx, k);
  wave.frontier = {wave.initial};
  wave.visited = {wave.initial};
  wave.states = 1;
  wave.peak_frontier = 1;
  return versa::serialize_checkpoint(ctx, wave, key, reduction);
}

}  // namespace aadlsched::wide_term
