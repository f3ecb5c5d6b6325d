// Serial/parallel equivalence of the state-space explorer.
//
// explore_parallel runs explore()'s loop on a Semantics of its own, so
// every result field must match the serial run exactly — counts, depth,
// peak frontier, first deadlock, trace and memo counters — on the shipped
// example models, on seeded random workloads, with or without stopping at
// the first deadlock, and across repeated runs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "core/taskset_aadl.hpp"
#include "sched/workload.hpp"
#include "translate/translator.hpp"
#include "versa/explorer.hpp"

using namespace aadlsched;
using versa::ExploreOptions;
using versa::ExploreResult;
using versa::ParallelExploreOptions;

namespace {

std::string read_model(const std::string& name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// AADL source -> ACSR initial term, on a caller-owned Context.
acsr::TermId build_initial(acsr::Context& ctx, const std::string& src,
                           std::string_view root, std::int64_t quantum_ns) {
  util::DiagnosticEngine diags("test.aadl");
  aadl::Model model;
  if (!aadl::parse_aadl(model, src, diags)) {
    ADD_FAILURE() << diags.render_all();
    return acsr::kNil;
  }
  auto inst = aadl::instantiate(model, root, diags);
  if (!inst || diags.has_errors()) {
    ADD_FAILURE() << diags.render_all();
    return acsr::kNil;
  }
  translate::TranslateOptions topts;
  topts.quantum_ns = quantum_ns;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) {
    ADD_FAILURE() << diags.render_all();
    return acsr::kNil;
  }
  return tr->initial;
}

void expect_equivalent(const ExploreResult& a, const ExploreResult& b,
                       const std::string& what) {
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.deadlock_found, b.deadlock_found) << what;
  EXPECT_EQ(a.schedulable(), b.schedulable()) << what;
  EXPECT_EQ(a.states, b.states) << what;
  EXPECT_EQ(a.transitions, b.transitions) << what;
  EXPECT_EQ(a.deadlock_count, b.deadlock_count) << what;
  EXPECT_EQ(a.depth, b.depth) << what;
  EXPECT_EQ(a.peak_frontier, b.peak_frontier) << what;
  EXPECT_EQ(a.first_deadlock, b.first_deadlock) << what;
  EXPECT_EQ(a.sem_stats.computed, b.sem_stats.computed) << what;
  EXPECT_EQ(a.sem_stats.memo_hits, b.sem_stats.memo_hits) << what;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << what << " (trace length)";
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].label, b.trace[i].label) << what << " step " << i;
    EXPECT_EQ(a.trace[i].target, b.trace[i].target) << what << " step " << i;
  }
}

ExploreResult run_serial(const std::string& src, std::string_view root,
                         std::int64_t quantum_ns, const ExploreOptions& opts) {
  acsr::Context ctx;
  acsr::Semantics sem(ctx);
  return versa::explore(sem, build_initial(ctx, src, root, quantum_ns), opts);
}

ExploreResult run_parallel(const std::string& src, std::string_view root,
                           std::int64_t quantum_ns, const ExploreOptions& opts,
                           std::size_t workers) {
  acsr::Context ctx;
  ParallelExploreOptions popts;
  popts.workers = workers;
  return versa::explore_parallel(
      ctx, build_initial(ctx, src, root, quantum_ns), opts, popts);
}

struct ExampleModel {
  const char* file;
  const char* root;
  std::int64_t quantum_ns;
};

const ExampleModel kExamples[] = {
    {"cruise_control.aadl", "CruiseControlSystem.impl", 10'000'000},
    {"avionics.aadl", "Avionics.impl", 1'000'000},
    {"symmetric.aadl", "Symmetric.impl", 10'000'000},
};

TEST(ParallelExplorer, MatchesSerialOnExampleModels) {
  for (const ExampleModel& m : kExamples) {
    const std::string src = read_model(m.file);
    // Exhaustive exploration and the default stop at the first deadlock:
    // both stop on the same state whatever the worker count.
    ExploreOptions full;
    full.stop_at_first_deadlock = false;
    for (const ExploreOptions& opts : {full, ExploreOptions{}}) {
      const ExploreResult serial = run_serial(src, m.root, m.quantum_ns, opts);
      for (const std::size_t workers : {std::size_t{2}, std::size_t{4}})
        expect_equivalent(
            serial, run_parallel(src, m.root, m.quantum_ns, opts, workers),
            std::string(m.file) + " with " + std::to_string(workers) +
                " workers" + (opts.stop_at_first_deadlock ? "" : ", full"));
    }
  }
}

sched::TaskSet random_workload(std::uint64_t seed, std::size_t n, double u) {
  sched::WorkloadSpec spec;
  spec.task_count = n;
  spec.total_utilization = u;
  spec.periods = {3, 4, 5, 6};
  sched::TaskSet ts = sched::generate_workload(spec, seed);
  sched::assign_rate_monotonic(ts);
  return ts;
}

TEST(ParallelExplorer, WorkerCountsAgreeOnRandomWorkloads) {
  // Mix of schedulable and overloaded sets; every count must match the
  // serial run, also when stopping at the first deadlock.
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    for (double u : {0.7, 1.15}) {
      const std::string src = core::taskset_to_aadl(
          random_workload(seed, 3, u), sched::SchedulingPolicy::FixedPriority);
      const std::string what =
          "seed " + std::to_string(seed) + " u " + std::to_string(u);
      expect_equivalent(run_serial(src, "Root.impl", 1'000'000, {}),
                        run_parallel(src, "Root.impl", 1'000'000, {}, 4),
                        what);

      // And on the fully explored space.
      ExploreOptions full;
      full.stop_at_first_deadlock = false;
      expect_equivalent(run_serial(src, "Root.impl", 1'000'000, full),
                        run_parallel(src, "Root.impl", 1'000'000, full, 4),
                        what + " (exhaustive)");
    }
  }
}

TEST(ParallelExplorer, DeterministicAcrossRuns) {
  const std::string src = read_model("cruise_control.aadl");
  const ExploreResult a =
      run_parallel(src, "CruiseControlSystem.impl", 10'000'000, {}, 4);
  const ExploreResult b =
      run_parallel(src, "CruiseControlSystem.impl", 10'000'000, {}, 4);
  expect_equivalent(a, b, "two parallel runs");
}

TEST(ParallelExplorer, HardwareWorkerCountRuns) {
  const std::string src = read_model("cruise_control.aadl");
  acsr::Context ctx;
  ParallelExploreOptions popts;
  popts.workers = 0;  // hardware concurrency
  const ExploreResult r = versa::explore_parallel(
      ctx, build_initial(ctx, src, "CruiseControlSystem.impl", 10'000'000),
      {}, popts);
  EXPECT_TRUE(r.complete);
  ASSERT_GE(r.worker_states.size(), 1u);
  // Schedulable: every state expanded once, all of them by the one loop.
  EXPECT_EQ(r.worker_states[0], r.states);
  for (std::size_t w = 1; w < r.worker_states.size(); ++w)
    EXPECT_EQ(r.worker_states[w], 0u);
  EXPECT_GT(r.sem_stats.computed, 0u);
  EXPECT_GE(r.wall_ms, 0.0);
  EXPECT_GE(r.peak_frontier, 1u);
}

TEST(ParallelExplorer, AnalyzerPlumbsWorkersAndObservability) {
  const std::string src = read_model("cruise_control.aadl");
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 10'000'000;
  opts.parallel.workers = 4;
  const auto r =
      core::analyze_source(src, "CruiseControlSystem.impl", opts);
  ASSERT_TRUE(r.ok) << r.diagnostics;
  EXPECT_TRUE(r.schedulable) << r.summary();
  EXPECT_EQ(r.worker_states.size(), 4u);
  EXPECT_GT(r.fans_computed, 0u);
  EXPECT_GE(r.peak_frontier, 1u);
  EXPECT_NE(r.summary().find("exploration:"), std::string::npos);

  // Serial analyzer reports the same verdict and counts.
  core::AnalyzerOptions serial = opts;
  serial.parallel.workers = 1;
  const auto rs = core::analyze_source(src, "CruiseControlSystem.impl", serial);
  EXPECT_EQ(rs.states, r.states);
  EXPECT_EQ(rs.transitions, r.transitions);
  EXPECT_EQ(rs.schedulable, r.schedulable);
}

}  // namespace
