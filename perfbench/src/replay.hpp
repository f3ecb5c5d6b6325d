// Traced replay: a workload's operations re-run by calling each layer's
// public functions one after another, with a span around every call.
//
// The replay mirrors core::analyze_source / analyze_instance and the
// service's request path for the options the workloads use (lint on or
// off, enumerative or auto engine, serial or parallel, checkpoint capture
// and resume). Its results are checked against the untraced run's, so a
// replay that drifts from the real path shows as a failure, not as wrong
// layer numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "aadl/ast.hpp"
#include "aadl/instance.hpp"
#include "core/analyzer.hpp"
#include "server/cache.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Work counted at the layer boundaries over one traced pass.
struct LayerCounts {
  std::uint64_t lint_runs = 0;
  std::uint64_t lint_decided = 0;
  std::uint64_t definitions = 0;  // ACSR definitions of every translation
  std::uint64_t fans_computed = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t states = 0;  // enumerative
  std::uint64_t transitions = 0;
  std::uint64_t peak_frontier = 0;  // max over explorations
  double acsr_bytes = 0;  // Context (+ serial Semantics) bytes after explore
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t zones = 0;  // symbolic state classes
  std::vector<double> worker_imbalance;  // max / mean worker states
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
};

/// The declarative model plus its instance (the instance points into it).
struct FrontEnd {
  aadlsched::aadl::Model model;
  std::unique_ptr<aadlsched::aadl::InstanceModel> instance;
};

/// aadl::parse_aadl + aadl::instantiate; null on a front-end error.
std::unique_ptr<FrontEnd> replay_front_end(Tracer& t, std::string_view source,
                                           std::string_view root);

/// core::analyze_instance, layer by layer, including the teardown of the
/// exploration's Semantics and Context (span "acsr.teardown").
aadlsched::core::AnalysisResult replay_analysis(
    Tracer& t, LayerCounts& c, const aadlsched::aadl::InstanceModel& instance,
    const aadlsched::core::AnalyzerOptions& opts);

/// core::render_result_json under a span.
std::string replay_render(Tracer& t,
                          const aadlsched::core::AnalysisResult& r);

/// One analyze request line through the service path: protocol parse,
/// front end, fingerprint, cache lookup, analysis and cache store on a
/// miss, protocol render. Returns the result JSON ("" on a protocol error).
std::string replay_request(Tracer& t, LayerCounts& c,
                           aadlsched::server::ResultCache& cache,
                           const std::string& line);

}  // namespace perfbench
