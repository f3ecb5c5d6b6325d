// End-to-end reproduction tests for the paper's running example (Fig. 1):
// the cruise-control system analyzed through the full pipeline.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "acsr/parser.hpp"
#include "acsr/semantics.hpp"
#include "core/analyzer.hpp"
#include "versa/explorer.hpp"

using namespace aadlsched;
using namespace aadlsched::core;

namespace {

std::string model_source(const std::string& file = "cruise_control.aadl") {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + file);
  EXPECT_TRUE(in);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

AnalyzerOptions ten_ms() {
  AnalyzerOptions opts;
  opts.translation.quantum_ns = 10'000'000;
  return opts;
}

TEST(CruiseControl, IsSchedulable) {
  const auto r = analyze_source(model_source(), "CruiseControlSystem.impl",
                                ten_ms());
  EXPECT_TRUE(r.ok) << r.diagnostics;
  EXPECT_TRUE(r.schedulable) << r.summary();
  EXPECT_TRUE(r.exhaustive);
  EXPECT_GT(r.states, 10u);
  ASSERT_EQ(r.threads.size(), 6u);
}

TEST(CruiseControl, RmPrioritiesFollowPeriods) {
  const auto r = analyze_source(model_source(), "CruiseControlSystem.impl",
                                ten_ms());
  ASSERT_TRUE(r.ok);
  const auto prio = [&](std::string_view path) {
    for (const auto& t : r.threads)
      if (t.path == path) return t.static_priority;
    ADD_FAILURE() << "no thread " << path;
    return -1;
  };
  // On hci_processor: 50 ms threads above 100 ms threads.
  EXPECT_GT(prio("hci.buttonpanel"), prio("hci.drivermodelogic"));
  EXPECT_GT(prio("hci.refspeed"), prio("hci.instrumentpanel"));
  // On ccl_processor: cruise1 (50 ms) above cruise2 (100 ms).
  EXPECT_GT(prio("ccl.cruise1"), prio("ccl.cruise2"));
}

TEST(CruiseControl, TranslationMatchesPaperCounts) {
  // §4.1: "the translation produces six ACSR processes that represent
  // threads and six ACSR processes that represent dispatchers for each
  // thread. All connections in the example are data connections, thus no
  // queue processes are introduced."
  std::string diagnostics;
  const std::string acsr = render_acsr(
      model_source(), "CruiseControlSystem.impl", diagnostics,
      ten_ms().translation);
  ASSERT_FALSE(acsr.empty()) << diagnostics;
  int skeletons = 0, dispatchers = 0, queues = 0;
  std::istringstream is(acsr);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("T_", 0) == 0 &&
        line.find("_Compute[e, t") != std::string::npos &&
        line.find("] =") != std::string::npos)
      ++skeletons;
    if (line.rfind("D_", 0) == 0 && line.find("_Idle[t] =") !=
                                        std::string::npos)
      ++dispatchers;
    if (line.rfind("Q_", 0) == 0) ++queues;
  }
  EXPECT_EQ(skeletons, 6);
  EXPECT_EQ(dispatchers, 6);
  EXPECT_EQ(queues, 0);
  // The bus shows up as a shared resource in the two bus-bound threads.
  EXPECT_NE(acsr.find("bus_vme"), std::string::npos);
}

TEST(CruiseControl, OverloadedVariantProducesScenario) {
  // Halve Cruise1's period: 2 quanta of work every 2 quanta plus Cruise2's
  // 2 quanta every 10 exceeds the ccl processor.
  std::string src = model_source();
  const std::string find = "    Period => 50 ms;\n"
                           "    Compute_Execution_Time => 10 ms .. 20 ms;\n"
                           "    Deadline => 50 ms;\n"
                           "  end Cruise1.impl;";
  const auto pos = src.find(find);
  ASSERT_NE(pos, std::string::npos);
  src.replace(pos, find.size(),
              "    Period => 20 ms;\n"
              "    Compute_Execution_Time => 20 ms .. 20 ms;\n"
              "    Deadline => 20 ms;\n"
              "  end Cruise1.impl;");
  const auto r =
      analyze_source(src, "CruiseControlSystem.impl", ten_ms());
  EXPECT_TRUE(r.ok) << r.diagnostics;
  EXPECT_FALSE(r.schedulable);
  ASSERT_TRUE(r.scenario.has_value());
  // The failing scenario names a ccl thread.
  ASSERT_FALSE(r.scenario->missed_threads.empty());
  bool ccl_missed = false;
  for (const auto& m : r.scenario->missed_threads)
    ccl_missed |= m.rfind("ccl.", 0) == 0;
  EXPECT_TRUE(ccl_missed) << r.summary();
  // The timeline covers all six threads.
  EXPECT_EQ(r.scenario->timeline.size(), 6u);
  EXPECT_GT(r.scenario->quanta, 0);
}

TEST(CruiseControl, FinerQuantumGrowsStateSpace) {
  // §4.1: "Precision of the timing analysis can be improved by making
  // scheduling quanta smaller, which tends to increase the size of the
  // state space."
  struct Row {
    std::int64_t quantum_ms;
    bool schedulable;
    std::uint64_t states;
  };
  for (const Row& row : {Row{10, true, 197}, Row{5, true, 470},
                         Row{2, true, 6113}}) {
    AnalyzerOptions opts;
    opts.translation.quantum_ns = row.quantum_ms * 1'000'000;
    const auto r =
        analyze_source(model_source(), "CruiseControlSystem.impl", opts);
    ASSERT_TRUE(r.ok) << r.diagnostics;
    EXPECT_EQ(r.schedulable, row.schedulable) << row.quantum_ms << " ms";
    EXPECT_EQ(r.states, row.states) << row.quantum_ms << " ms";
  }

  // Precision (EXPERIMENTS.md E2, E14): 12 ms + 8 ms of work per 20 ms.
  // At a 10 ms quantum the demand rounds up to 2 + 1 quanta against a
  // 2-quantum period, and at 5 ms to 3 + 2 against 4: spurious misses.
  // 4, 2 and 1 ms quantize exactly and accept it.
  const std::string ladder = model_source("quantum_ladder.aadl");
  for (const Row& row : {Row{10, false, 19}, Row{5, false, 28},
                         Row{4, true, 11}, Row{2, true, 16},
                         Row{1, true, 26}}) {
    AnalyzerOptions opts;
    opts.translation.quantum_ns = row.quantum_ms * 1'000'000;
    const auto r = analyze_source(ladder, "QuantumLadder.impl", opts);
    ASSERT_TRUE(r.ok) << r.diagnostics;
    EXPECT_EQ(r.schedulable, row.schedulable)
        << row.quantum_ms << " ms: " << r.summary();
    EXPECT_EQ(r.states, row.states) << row.quantum_ms << " ms";
  }
}

TEST(CruiseControl, AcsrDumpIsSelfContained) {
  // The printed ACSR module ends in a "System" definition; parsing it back
  // into a fresh context and exploring System reproduces the verdict —
  // printer, parser, semantics and explorer close the loop, exactly like
  // feeding the paper's generated model to VERSA.
  std::string diagnostics;
  const std::string acsr =
      render_acsr(model_source(), "CruiseControlSystem.impl", diagnostics,
                  ten_ms().translation);
  ASSERT_FALSE(acsr.empty()) << diagnostics;

  acsr::Context ctx;
  util::DiagnosticEngine diags("dump.acsr");
  ASSERT_TRUE(acsr::parse_module(ctx, acsr, diags)) << diags.render_all();
  const auto system = ctx.find_definition("System");
  ASSERT_TRUE(system.has_value());

  acsr::Semantics sem(ctx);
  const auto r =
      versa::explore(sem, ctx.terms().call(*system, {}));
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.deadlock_found);

  // Same state count as the direct pipeline.
  const auto direct = analyze_source(model_source(),
                                     "CruiseControlSystem.impl", ten_ms());
  EXPECT_EQ(r.states, direct.states);
}

TEST(CruiseControl, OneMsPreemptionWorkScalesWithLabelsNotTransitions) {
  // At the CLI-default 1 ms quantum one fan holds 19,965 timed transitions
  // over 15 distinct actions. prioritize() decides the labels pairwise, so
  // the preemption work per state stays small.
  translate::TranslateOptions one_ms;
  one_ms.quantum_ns = 1'000'000;
  std::string diagnostics;
  const std::string acsr = render_acsr(
      model_source(), "CruiseControlSystem.impl", diagnostics, one_ms);
  ASSERT_FALSE(acsr.empty()) << diagnostics;
  acsr::Context ctx;
  util::DiagnosticEngine diags("dump.acsr");
  ASSERT_TRUE(acsr::parse_module(ctx, acsr, diags)) << diags.render_all();
  const auto system = ctx.find_definition("System");
  ASSERT_TRUE(system.has_value());

  acsr::Semantics sem(ctx);
  const auto r = versa::explore(sem, ctx.terms().call(*system, {}));
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.states, 65'098u);
  EXPECT_EQ(r.sem_stats.raw_transitions, 531'158u);
  EXPECT_EQ(r.sem_stats.kept_transitions, 67'464u);
  EXPECT_EQ(r.transitions, r.sem_stats.kept_transitions);
  // About 43 per state (2.79M in all); the pairwise scan made 2,900.
  EXPECT_LE(r.sem_stats.preemption_checks, 50 * r.states);
}

TEST(CruiseControl, SummaryRendersHumanReadable) {
  const auto r = analyze_source(model_source(), "CruiseControlSystem.impl",
                                ten_ms());
  const std::string s = r.summary();
  EXPECT_NE(s.find("SCHEDULABLE"), std::string::npos);
  EXPECT_NE(s.find("states"), std::string::npos);
}

}  // namespace
