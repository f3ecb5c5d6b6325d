#include "replay.hpp"

#include <algorithm>

#include "aadl/fingerprint.hpp"
#include "aadl/parser.hpp"
#include "acsr/semantics.hpp"
#include "core/result_json.hpp"
#include "core/symbolic_extract.hpp"
#include "server/protocol.hpp"
#include "translate/translator.hpp"
#include "versa/checkpoint.hpp"
#include "versa/explorer.hpp"
#include "versa/reduction.hpp"
#include "versa/symbolic.hpp"

namespace perfbench {

using namespace aadlsched;

namespace {

bool captures_on(util::StopReason stop) {
  switch (stop) {
    case util::StopReason::MaxStates:
    case util::StopReason::Deadline:
    case util::StopReason::MemoryBudget:
    case util::StopReason::Cancelled:
      return true;
    default:
      return false;
  }
}

/// The exploration half of analyze_instance, shared by the cold and the
/// resumed path: reduction setup, explore, checkpoint capture, teardown.
/// Takes ownership of the Context so its destruction can be timed.
void explore_owned(Tracer& t, LayerCounts& c,
                   std::unique_ptr<acsr::Context> ctx, acsr::TermId initial,
                   versa::ExploreOptions eopts,
                   const std::vector<std::vector<std::string>>& role_groups,
                   bool uniform_dispatch, const core::AnalyzerOptions& opts,
                   core::AnalysisResult& result) {
  versa::Wavefront captured;
  if (opts.checkpoint_out) eopts.capture = &captured;

  versa::SymmetryModel sym;
  versa::CheckpointReduction red;
  {
    const auto s = t.span("versa.reduction_setup");
    if (opts.no_reduction) {
      eopts.reduction = versa::ReductionOptions{false, false};
      eopts.symmetry_model = nullptr;
    } else {
      sym = versa::SymmetryModel::build(*ctx, role_groups, uniform_dispatch);
      eopts.symmetry_model = &sym;
      red.symmetry = eopts.reduction.symmetry;
      red.commute = eopts.reduction.commute;
      red.uniform_dispatch = sym.uniform_dispatch();
      red.role_groups = sym.role_names();
    }
  }

  std::unique_ptr<acsr::Semantics> sem;
  versa::ExploreResult er;
  {
    const auto s = t.span("versa.explore");
    if (opts.parallel.workers == 1) {
      sem = std::make_unique<acsr::Semantics>(*ctx);
      er = versa::explore(*sem, initial, eopts);
    } else {
      er = versa::explore_parallel(*ctx, initial, eopts, opts.parallel);
    }
  }

  result.states = er.states;
  result.transitions = er.transitions;
  result.exhaustive = er.complete;
  result.schedulable = er.schedulable();
  result.ok = true;
  result.outcome = er.deadlock_found ? core::Outcome::NotSchedulable
                   : er.complete     ? core::Outcome::Schedulable
                                     : core::Outcome::Inconclusive;
  result.stop_reason = er.stop;
  result.trace_dropped = er.trace_dropped;
  result.depth = er.depth;
  result.explore_ms = er.wall_ms;
  result.peak_frontier = er.peak_frontier;
  result.fans_computed = er.sem_stats.computed;
  result.memo_hits = er.sem_stats.memo_hits;
  result.worker_states = er.worker_states;

  c.fans_computed += er.sem_stats.computed;
  c.memo_hits += er.sem_stats.memo_hits;
  c.states += er.states;
  c.transitions += er.transitions;
  c.peak_frontier = std::max(c.peak_frontier, er.peak_frontier);
  c.acsr_bytes += double(ctx->approx_bytes() + (sem ? sem->approx_bytes() : 0));
  if (!er.worker_states.empty()) {
    double sum = 0, max = 0;
    for (const std::uint64_t w : er.worker_states) {
      sum += double(w);
      max = std::max(max, double(w));
    }
    if (sum > 0)
      c.worker_imbalance.push_back(max * double(er.worker_states.size()) /
                                   sum);
  }

  if (opts.checkpoint_out && !er.deadlock_found && !captured.empty() &&
      captures_on(er.stop)) {
    const auto s = t.span("versa.serialize_checkpoint");
    *opts.checkpoint_out = versa::serialize_checkpoint(
        *ctx, captured,
        opts.checkpoint_key.empty() ? "-" : opts.checkpoint_key, red);
    result.checkpoint_captured = true;
    c.checkpoint_bytes += opts.checkpoint_out->size();
  }

  const auto s = t.span("acsr.teardown");
  sem.reset();
  captured = versa::Wavefront{};
  sym = versa::SymmetryModel{};
  ctx.reset();
}

}  // namespace

std::unique_ptr<FrontEnd> replay_front_end(Tracer& t, std::string_view source,
                                           std::string_view root) {
  auto fe = std::make_unique<FrontEnd>();
  util::DiagnosticEngine diags("<aadl>");
  {
    const auto s = t.span("aadl.parse");
    if (!aadl::parse_aadl(fe->model, source, diags)) return nullptr;
  }
  const auto s = t.span("aadl.instantiate");
  fe->instance = aadl::instantiate(fe->model, root, diags);
  if (!fe->instance || diags.has_errors()) return nullptr;
  return fe;
}

core::AnalysisResult replay_analysis(Tracer& t, LayerCounts& c,
                                     const aadl::InstanceModel& instance,
                                     const core::AnalyzerOptions& opts) {
  core::AnalysisResult result;
  util::DiagnosticEngine diags("<model>");

  core::SymbolicExtraction sx;
  bool use_symbolic = false;
  if (opts.engine != core::Engine::Enumerative) {
    const auto s = t.span("core.extract_symbolic");
    sx = core::extract_symbolic(instance, opts.translation);
    use_symbolic = sx.applicable;
    if (use_symbolic) result.engine = "symbolic";
  }

  if (!use_symbolic && opts.resume_checkpoint &&
      !opts.resume_checkpoint->empty()) {
    std::string why;
    std::optional<versa::RestoredCheckpoint> restored;
    {
      const auto s = t.span("versa.parse_checkpoint");
      restored = versa::parse_checkpoint(*opts.resume_checkpoint, why);
    }
    if (restored) {
      versa::ExploreOptions eopts = opts.exploration;
      eopts.resume = &restored->wave;
      const acsr::TermId initial = restored->wave.initial;
      explore_owned(t, c, std::move(restored->ctx), initial, eopts,
                    restored->reduction.role_groups,
                    restored->reduction.uniform_dispatch, opts, result);
      result.resumed = true;
      result.resumed_from_depth = restored->wave.depth;
      result.resumed_from_states = restored->wave.states;
      return result;
    }
    result.diagnostics = why;  // the analyzer would fall back to a cold run
    return result;
  }

  if (opts.run_lint) {
    lint::Options lopts = opts.lint;
    lopts.translation = opts.translation;
    lopts.diags = &diags;
    {
      const auto s = t.span("lint.run");
      result.lint_report = lint::run(instance, lopts);
    }
    ++c.lint_runs;
    const lint::Report& report = *result.lint_report;
    if (report.translated && report.verdict != lint::StaticVerdict::None &&
        opts.skip_exploration_on_conclusive) {
      ++c.lint_decided;
      result.ok = true;
      result.exhaustive = true;
      result.schedulable = report.verdict == lint::StaticVerdict::Schedulable;
      result.outcome = result.schedulable ? core::Outcome::Schedulable
                                          : core::Outcome::NotSchedulable;
      result.decided_by = report.decided_by;
      return result;
    }
    if (report.fails(opts.lint.fail_on)) return result;
  }

  if (use_symbolic) {
    versa::SymbolicOptions sopts;
    sopts.max_classes = opts.exploration.max_states;
    sopts.budget = opts.exploration.budget;
    versa::SymbolicResult sr;
    {
      const auto s = t.span("versa.explore_symbolic");
      sr = versa::explore_symbolic(sx.model, sopts);
    }
    c.zones += sr.classes;
    result.states = sr.classes;
    result.transitions = sr.transitions;
    result.depth = sr.depth;
    result.explore_ms = sr.wall_ms;
    result.peak_frontier = sr.peak_frontier;
    result.zone_subsumptions = sr.subsumptions;
    result.dbm_dimension = sr.dbm_dimension;
    if (sr.stop == util::StopReason::Fault) return result;
    result.ok = true;
    result.exhaustive = sr.complete || sr.miss_found;
    result.schedulable = sr.complete && !sr.miss_found;
    result.outcome = sr.miss_found  ? core::Outcome::NotSchedulable
                     : sr.complete ? core::Outcome::Schedulable
                                   : core::Outcome::Inconclusive;
    result.stop_reason = sr.stop;
    return result;
  }

  auto ctx = std::make_unique<acsr::Context>();
  std::optional<translate::Translation> tr;
  {
    const auto s = t.span("translate.translate");
    tr = translate::translate(*ctx, instance, diags, opts.translation);
  }
  if (!tr) return result;
  c.definitions += ctx->definition_count();
  result.threads = tr->threads;

  std::vector<std::vector<std::string>> role_groups;
  for (const translate::SymmetryGroup& g : tr->symmetry.groups)
    role_groups.push_back(g.roles);
  explore_owned(t, c, std::move(ctx), tr->initial, opts.exploration,
                role_groups, tr->symmetry.uniform_dispatch, opts, result);
  return result;
}

std::string replay_render(Tracer& t, const core::AnalysisResult& r) {
  const auto s = t.span("core.render_result_json");
  return core::render_result_json(r);
}

std::string replay_request(Tracer& t, LayerCounts& c,
                           server::ResultCache& cache,
                           const std::string& line) {
  ++c.requests;
  std::string error;
  std::optional<server::Request> req;
  {
    const auto s = t.span("server.parse_request");
    req = server::parse_request(line, error);
  }
  if (!req) return {};
  const auto fe = replay_front_end(t, req->model, req->root);
  if (!fe) return {};
  aadl::Fingerprint fp;
  {
    const auto s = t.span("aadl.fingerprint");
    fp = aadl::instance_fingerprint(*fe->instance);
  }
  // The fleet varies only lint and engine; the rest of the options are
  // fixed, so they need no place in this replay's own key.
  const server::RequestOptions& ro = req->options;
  const std::string key = fp.hex() + (ro.run_lint ? "-lint-" : "-nolint-") +
                          std::string(core::to_string(ro.engine));

  server::Response resp;
  resp.op = server::Op::Analyze;
  resp.ok = true;
  resp.id = req->id;
  resp.fingerprint = fp.hex();
  resp.cache_tier = "none";
  std::optional<server::ResultCache::Hit> hit;
  {
    const auto s = t.span("server.cache_lookup");
    hit = cache.lookup(key);
  }
  if (hit) {
    ++c.hits;
    resp.cached = true;
    resp.cache_tier = "memory";
    resp.outcome = hit->outcome;
    resp.result_json = std::move(hit->result_json);
  } else {
    core::AnalyzerOptions opts;
    opts.translation.quantum_ns = ro.quantum_ns;
    opts.run_lint = ro.run_lint;
    opts.no_reduction = ro.no_reduction;
    opts.engine = ro.engine;
    opts.exploration.max_states = ro.max_states;
    opts.parallel.workers = std::max<std::size_t>(1, ro.workers);
    const core::AnalysisResult r = replay_analysis(t, c, *fe->instance, opts);
    resp.outcome = r.outcome;
    resp.result_json = replay_render(t, r);
    if (server::cacheable(r.outcome)) {
      const auto s = t.span("server.cache_store");
      cache.store(key, r.outcome, resp.result_json);
    }
  }
  {
    const auto s = t.span("server.render_response");
    const std::string out = server::render_response(resp);
    if (out.empty()) return {};
  }
  return resp.result_json;
}

}  // namespace perfbench
