// Untraced end-to-end runs of the benchmark's workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--bench-dir d]
//   perfbench --write-expected [--bench-dir d]
//
// Each run pins itself to one CPU, sets up several times (median reported
// as setup_s), then repeats the workload's operation until --seconds have
// passed, timing the reference kernel next to each one (op_cost) and
// checking every output against the expected files under
// <bench-dir>/expected. The last stdout line is the result object; a
// `detail` line before it carries the workload's own breakdown (wall-time
// latencies, raw CPU times, sample counts, exact work counts).
#include <iostream>
#include <map>
#include <set>

#include "aadl/fingerprint.hpp"
#include "aadl/parser.hpp"
#include "core/result_json.hpp"
#include "sched/analysis.hpp"
#include "sched/simulator.hpp"
#include "sched/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aadlsched;

/// Set-ups before the first operation, and between two operations. The
/// reported setup_s is the median of all of them, so it samples the whole
/// run rather than its first milliseconds.
constexpr int kSetupRepeats = 11;
constexpr int kSetupBetweenOps = 3;

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

struct Measured {
  bool ok = true;
  std::vector<double> setup_s;      // CPU time of each set-up
  std::vector<double> rss_mb;       // peak resident set of each operation
  std::vector<double> cpu_s;        // CPU time of each operation
  std::vector<double> reference_s;  // the reference kernel between them
  std::vector<double> cost;  // cpu_s over the reference time around it
};

/// The measured phase shared by every workload: set up kSetupRepeats
/// times, then alternate one operation with the reference kernel and
/// kSetupBetweenOps set-ups while another operation, as long as the last
/// one, still ends within `seconds` (at least one operation). `op` returns
/// the CPU seconds of one unit of its work; `setup` returns false on
/// unusable inputs, which ends the run.
template <class Setup, class Op>
Measured measure(double seconds, Setup&& setup, Op&& op) {
  Measured m;
  ReferenceKernel reference;
  const auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const double t0 = process_cpu_s();
      if (!setup()) return false;
      m.setup_s.push_back(process_cpu_s() - t0);
    }
    return true;
  };
  m.ok = set_up(kSetupRepeats);
  m.reference_s.push_back(reference.cpu_s());
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (m.ok) {
    reset_peak_rss();
    const Clock::time_point t0 = Clock::now();
    const double cpu = op();
    const Clock::duration last = Clock::now() - t0;
    // The reference table stays resident all run; it is not the program's.
    m.rss_mb.push_back(peak_rss_mb() - reference.table_mb());
    const double before = m.reference_s.back();
    m.reference_s.push_back(reference.cpu_s());
    m.cpu_s.push_back(cpu);
    m.cost.push_back(cpu / ((before + m.reference_s.back()) / 2));
    m.ok = set_up(kSetupBetweenOps);
    if (Clock::now() + last >= end) break;
  }
  return m;
}

/// The gated metrics.
std::vector<Metric> end_to_end(const Measured& m) {
  return {{"setup_s", median(m.setup_s), "s"},
          {"op_cost", median(m.cost), "ref"},
          {"peak_rss_mb", median(m.rss_mb), "MB"}};
}

/// The workload's `detail` metrics, then the raw timings behind op_cost.
void print_detail(const std::string& workload, std::vector<Metric> detail,
                  const Measured& m, const char* op_name) {
  detail.push_back(
      {std::string(op_name) + "_cpu_ms_p50", median(m.cpu_s) * 1e3, "ms"});
  detail.push_back({"reference_ms_p50", median(m.reference_s) * 1e3, "ms"});
  print_detail(workload, detail);
}

double failed_ratio(const Checker& c) {
  return c.attempted() ? double(c.failed()) / double(c.attempted()) : 1.0;
}

int fail_setup(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n";
  return 1;
}

// ---------------------------------------------------------------------------

int run_cruise(const Args& a) {
  const std::string path = cruise_model_path(a);
  const core::AnalyzerOptions opts = cli_options(1);
  std::optional<std::string> expected;
  Checker check;
  std::vector<double> op_s;
  std::optional<core::AnalysisResult> first;
  const Measured m = measure(
      a.seconds,
      [&] {
        expected = load_cruise_expected(a);
        return expected && warm_up_model(path, kCruiseRoot);
      },
      [&] {
        CruiseOp op = run_cruise_op(path, opts, *expected);
        op_s.push_back(op.seconds);
        const core::AnalysisResult& r = op.result;
        if (!first) {
          first = std::move(op.result);
        } else if ((r.fans_computed != first->fans_computed ||
                    r.memo_hits != first->memo_hits ||
                    r.peak_frontier != first->peak_frontier)) {
          op.problems += "work counters drifted between runs; ";
        }
        check.op(op.problems);
        return op.cpu_s;
      });
  if (!m.ok) return fail_setup("cruise inputs missing or unusable");

  print_detail(a.workload,
               {{"verdict_s_p50", median(op_s), "s"},
                {"verdicts_per_s", double(op_s.size()) / sum(op_s), "1/s"},
                {"verdict_samples", double(op_s.size()), "count"},
                {"failed_ratio", failed_ratio(check), "ratio"},
                {"states", double(first->states), "count"},
                {"transitions", double(first->transitions), "count"},
                {"fans_computed", double(first->fans_computed), "count"},
                {"memo_hits", double(first->memo_hits), "count"},
                {"peak_frontier", double(first->peak_frontier), "count"}},
               m, "verdict");
  print_result(check, end_to_end(m));
  return 0;
}

// ---------------------------------------------------------------------------

int run_storm(const Args& a) {
  const std::string path = storm_model_path(a);
  std::optional<StormExpected> expected;
  Checker check;
  std::vector<double> capture_s, resume_s;
  std::size_t checkpoint_bytes = 0;
  const Measured m = measure(
      a.seconds,
      [&] {
        expected = load_storm_expected(a);
        return expected && warm_up_model(path, kStormRoot);
      },
      [&] {
        StormPair p = run_storm_pair(path, *expected);
        capture_s.push_back(p.capture_s);
        resume_s.push_back(p.resume_s);
        if (checkpoint_bytes == 0) checkpoint_bytes = p.checkpoint_bytes;
        if (p.checkpoint_bytes != checkpoint_bytes)
          p.problems += "checkpoint size drifted between runs; ";
        check.op(p.problems);
        return p.cpu_s;
      });
  if (!m.ok) return fail_setup("storm inputs missing or unusable");

  print_detail(a.workload,
               {{"capture_s_p50", median(capture_s), "s"},
                {"resume_s_p50", median(resume_s), "s"},
                {"pair_samples", double(capture_s.size()), "count"},
                {"failed_ratio", failed_ratio(check), "ratio"},
                {"checkpoint_bytes", double(checkpoint_bytes), "count"}},
               m, "pair");
  print_result(check, end_to_end(m));
  return 0;
}

// ---------------------------------------------------------------------------

/// Renders every model of the plan into its request line, then starts and
/// stops a Service the way each epoch does. False on any render error.
bool fleet_setup(FleetPlan& plan) {
  for (FleetModel& m : plan.models) {
    std::string error;
    const auto aadl = render_fleet_model(m, error);
    if (!aadl) {
      std::cerr << "perfbench: cannot render " << m.id << ": " << error
                << "\n";
      return false;
    }
    m.request_line = fleet_request_line(m, *aadl);
  }
  return warm_up_fleet_service(plan);
}

int run_fleet(const Args& a) {
  std::string error;
  FleetPlan plan;
  Checker check;
  std::vector<double> static_ms, explored_ms, hit_ms, rates;
  std::optional<FleetCounts> first;
  std::uint64_t coalesced = 0;
  const Measured m = measure(
      a.seconds,
      [&] {
        const auto table = load_fleet_expected(a, error);
        if (!table) return false;
        plan = plan_fleet(a.seed, *table);
        return fleet_setup(plan);
      },
      [&] {
        const FleetEpoch e = run_fleet_epoch(plan, check);
        rates.push_back(double(e.counts.requests) / e.wall_s);
        coalesced += e.coalesced;
        for (const FleetSample& s : e.samples) {
          (s.hit         ? hit_ms
           : s.is_static ? static_ms
                         : explored_ms)
              .push_back(s.ms);
        }
        if (!first) first = e.counts;
        check.op(e.counts == *first
                     ? ""
                     : "fleet work counts drifted between epochs");
        return e.cpu_s / double(e.counts.requests);
      });
  if (!m.ok) return fail_setup("fleet inputs unusable: " + error);

  const auto p99 = [](const std::vector<double>& v, double scale) {
    return v.size() >= 1000 ? percentile(v, 99) * scale : 0.0;
  };
  print_detail(
      a.workload,
      {{"models_per_s", median(rates), "1/s"},
       {"static_ms_p50", median(static_ms), "ms"},
       {"static_ms_p99", p99(static_ms, 1), "ms"},
       {"explored_ms_p50", median(explored_ms), "ms"},
       {"explored_ms_p99", p99(explored_ms, 1), "ms"},
       {"hit_us_p50", median(hit_ms) * 1e3, "us"},
       {"hit_us_p99", p99(hit_ms, 1e3), "us"},
       {"static_samples", double(static_ms.size()), "count"},
       {"explored_samples", double(explored_ms.size()), "count"},
       {"hit_samples", double(hit_ms.size()), "count"},
       {"epochs", double(rates.size()), "count"},
       {"failed_ratio", failed_ratio(check), "ratio"},
       {"epoch_requests", double(first->requests), "count"},
       {"epoch_hits", double(first->hits), "count"},
       {"epoch_static_decided", double(first->static_decided), "count"},
       {"epoch_enumerative_states", double(first->enumerative_states),
        "count"},
       {"epoch_zones", double(first->zones), "count"},
       {"coalesced", double(coalesced), "count"}},
      m, "request");
  print_result(check, end_to_end(m));
  return 0;
}

// ---------------------------------------------------------------------------
// --write-expected: the answers every run is checked against.

std::optional<sched::TaskSet> fleet_taskset(const FleetCell& cell,
                                            std::uint64_t seed,
                                            sched::SchedulingPolicy& policy) {
  sched::WorkloadSpec ws;
  ws.task_count = cell.tasks;
  ws.total_utilization = cell.utilization;
  ws.deadline_fraction = cell.deadline_fraction;
  ws.periods = fleet_spec().periods;
  std::string error;
  auto ts = sched::try_generate_workload(ws, seed, error);
  if (!ts) return std::nullopt;
  for (std::size_t i = 0; i < ts->tasks.size(); ++i)
    ts->tasks[i].processor = static_cast<int>(i % cell.processors);
  policy = sched::SchedulingPolicy::Edf;
  if (cell.policy == "rm") {
    sched::assign_rate_monotonic(*ts);
    policy = sched::SchedulingPolicy::FixedPriority;
  } else if (cell.policy == "dm") {
    sched::assign_deadline_monotonic(*ts);
    policy = sched::SchedulingPolicy::FixedPriority;
  } else if (cell.policy == "llf") {
    policy = sched::SchedulingPolicy::Llf;
  }
  return ts;
}

/// Simulation over the hyperperiod on each processor, cross-checked by the
/// exact closed-form test where one applies. nullopt when they disagree.
std::optional<bool> reference_verdict(const sched::TaskSet& ts,
                                      sched::SchedulingPolicy policy,
                                      int processors) {
  bool all = true;
  for (int cpu = 0; cpu < processors; ++cpu) {
    const sched::TaskSet part = ts.on_processor(cpu);
    if (part.tasks.empty()) continue;
    sched::SimOptions so;
    so.policy = policy;
    const bool sim = sched::simulate(part, so).schedulable;
    if (policy == sched::SchedulingPolicy::FixedPriority &&
        (sched::response_time_analysis(part).verdict ==
         sched::Verdict::Schedulable) != sim)
      return std::nullopt;
    if (policy == sched::SchedulingPolicy::Edf &&
        (sched::edf_qpa(part).verdict == sched::Verdict::Schedulable) != sim)
      return std::nullopt;
    all = all && sim;
  }
  return all;
}

int write_expected(const Args& a) {
  // cruise_control: the canonical result of the CLI-default analysis.
  const core::AnalysisResult cruise =
      core::analyze_file(cruise_model_path(a), kCruiseRoot, cli_options(1));
  if (cruise.outcome != core::Outcome::Schedulable)
    return fail_setup("cruise control did not analyze as schedulable");
  write_file(a.bench_dir + "/expected/cruise_control.json",
             normalize_result(core::render_result_json(cruise)) + "\n");

  // storm_resume: both legs, and a cold run at the larger bound.
  StormExpected storm;
  std::string checkpoint;
  core::AnalyzerOptions opts = cli_options(1);
  opts.exploration.max_states = kStormBound;
  opts.checkpoint_out = &checkpoint;
  const auto c = core::analyze_file(storm_model_path(a), kStormRoot, opts);
  opts = cli_options(1);
  opts.exploration.max_states = 2 * kStormBound;
  const auto cold = core::analyze_file(storm_model_path(a), kStormRoot, opts);
  opts.resume_checkpoint = &checkpoint;
  const auto r = core::analyze_file(storm_model_path(a), kStormRoot, opts);
  storm.capture = {std::string(util::to_string(c.stop_reason)), c.depth,
                   c.states};
  storm.resume = {std::string(util::to_string(r.stop_reason)), r.depth,
                  r.states};
  storm.cold_json = normalize_result(core::render_result_json(cold));
  if (!r.resumed ||
      normalize_result(core::render_result_json(r)) != storm.cold_json)
    return fail_setup("storm resume does not match the cold run");
  write_file(a.bench_dir + "/expected/storm_resume.txt",
             render_storm_expected(storm));

  // fleet_service: reference verdicts from the simulator (never from the
  // analyzer), one char per universe model; duplicates are excluded.
  const std::vector<FleetCell> cells = fleet_cells();
  VerdictTable table(cells.size());
  std::set<std::string> instances;
  std::map<char, int> tally;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    for (std::uint64_t seed = 1; seed <= kModelsPerCell; ++seed) {
      char v = '-';
      sched::SchedulingPolicy policy{};
      if (const auto ts = fleet_taskset(cells[ci], seed, policy)) {
        const auto ref = reference_verdict(*ts, policy, cells[ci].processors);
        if (!ref)
          return fail_setup("simulator and closed-form test disagree on " +
                            describe(cells[ci]) + " seed " +
                            std::to_string(seed));
        FleetModel m;
        m.cell = ci;
        m.model_seed = seed;
        std::string error;
        const auto text = render_fleet_model(m, error);
        aadl::Model model;
        util::DiagnosticEngine diags;
        if (!text || !aadl::parse_aadl(model, *text, diags))
          return fail_setup("cannot render/parse fleet model " + error);
        const auto inst = aadl::instantiate(model, "Root.impl", diags);
        if (!inst) return fail_setup("cannot instantiate fleet model");
        if (instances.insert(aadl::instance_fingerprint(*inst).hex()).second)
          v = *ref ? 'S' : 'N';
      }
      table[ci].push_back(v);
      ++tally[v];
    }
  }
  write_file(a.bench_dir + "/expected/fleet_verdicts.txt",
             render_fleet_expected(table));
  std::cerr << "fleet universe: " << tally['S'] << " schedulable, "
            << tally['N'] << " not schedulable, " << tally['-']
            << " excluded\n";
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string error;
  const auto args = parse_args(argc, argv, error);
  if (!args || args->trace) {
    std::cerr << "perfbench: "
              << (args ? "traced runs are perfbench_trace's job" : error)
              << "\n";
    return 2;
  }
  const Args& a = *args;
  if (a.write_expected) return write_expected(a);
  if (!pin_to_one_cpu())
    return fail_setup("cannot restrict the process to one CPU");
  if (a.workload == "cruise_cold") return run_cruise(a);
  if (a.workload == "storm_resume") return run_storm(a);
  if (a.workload == "fleet_service") return run_fleet(a);
  std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
  return 2;
}
