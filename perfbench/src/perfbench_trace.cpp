// Traced per-layer runs of the benchmark's workloads.
//
//   perfbench_trace --workload <name> --seed <n> --seconds <s> --trace 1
//                   [--bench-dir d] [--out-dir d]
//
// A traced run first repeats the workload's operation untraced for a third
// of --seconds (at least once), then replays one pass of it through the
// layers' public functions (replay.hpp): once with spans off, once with a
// span around every call. The replayed results must match the untraced
// ones. It writes <out-dir>/<workload>-<seed>.trace.json (Chrome trace
// events, viewable in Perfetto) and <out-dir>/<workload>-<seed>.summary.json
// (self time and count per span name), and prints the per-layer metrics as
// the result line. trace.overhead_ms is the traced replay's wall time minus
// the untraced replay's; core.unattributed_ms is the real operation's time
// minus the time inside layer spans.
#include <filesystem>
#include <functional>
#include <iostream>

#include "replay.hpp"
#include "server/cache.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aadlsched;

/// Everything a traced run reports besides the span-derived timings.
struct PassFacts {
  LayerCounts counts;
  double untraced_s = 0;  // median time of the real (untraced) operation
  double untraced_replay_s = 0;  // the replay with spans off
  double traced_s = 0;           // the replay with spans on
  double par_speedup = 0;  // serial / parallel explore (cruise_cold only)
  std::uint64_t coalesced = 0;
  std::size_t first_pass_span = 0;  // spans before it belong to setup
};

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> layer_metrics(const Tracer& t, const PassFacts& f) {
  const auto us = [&](const char* name) {
    return median(t.self_times(name, 1e-3));
  };
  const auto ms = [&](const char* name) {
    return median(t.self_times(name, 1e-6));
  };
  const LayerCounts& c = f.counts;
  const double explore_s = [&] {
    double s = 0;
    for (const double x : t.self_times("versa.explore", 1e-9)) s += x;
    return s;
  }();
  return {
      {"aadl.parse_us", us("aadl.parse"), "us"},
      {"aadl.instantiate_us", us("aadl.instantiate"), "us"},
      {"aadl.fingerprint_us", us("aadl.fingerprint"), "us"},
      {"lint.run_us", us("lint.run"), "us"},
      {"lint.decide_rate", ratio(double(c.lint_decided), double(c.lint_runs)),
       "ratio"},
      {"translate.us", us("translate.translate"), "us"},
      {"translate.definitions", double(c.definitions), "count"},
      {"acsr.fans_computed", double(c.fans_computed), "count"},
      {"acsr.memo_hits", double(c.memo_hits), "count"},
      {"acsr.memo_hit_rate",
       ratio(double(c.memo_hits), double(c.memo_hits + c.fans_computed)),
       "ratio"},
      {"acsr.bytes_per_state", ratio(c.acsr_bytes, double(c.states)), "B"},
      {"acsr.teardown_ms", ms("acsr.teardown"), "ms"},
      {"versa.explore_ms", ms("versa.explore"), "ms"},
      {"versa.states", double(c.states), "count"},
      {"versa.transitions", double(c.transitions), "count"},
      {"versa.states_per_s", ratio(double(c.states), explore_s), "1/s"},
      {"versa.peak_frontier", double(c.peak_frontier), "count"},
      {"versa.checkpoint_serialize_ms", ms("versa.serialize_checkpoint"),
       "ms"},
      {"versa.checkpoint_parse_ms", ms("versa.parse_checkpoint"), "ms"},
      {"versa.checkpoint_bytes", double(c.checkpoint_bytes), "count"},
      {"versa.symbolic_us", us("versa.explore_symbolic"), "us"},
      {"versa.zones", double(c.zones), "count"},
      {"versa.par_speedup", f.par_speedup, "ratio"},
      {"versa.worker_imbalance", median(c.worker_imbalance), "ratio"},
      {"core.extract_symbolic_us", us("core.extract_symbolic"), "us"},
      {"core.render_us", us("core.render_result_json"), "us"},
      {"core.unattributed_ms",
       (f.untraced_s - t.child_total_s(f.first_pass_span)) * 1e3, "ms"},
      {"server.protocol_us",
       us("server.parse_request") + us("server.render_response"), "us"},
      {"server.cache_lookup_us", us("server.cache_lookup"), "us"},
      {"server.cache_store_us", us("server.cache_store"), "us"},
      {"server.hit_rate", ratio(double(c.hits), double(c.requests)), "ratio"},
      {"server.coalesced", double(f.coalesced), "count"},
      {"exp.render_us", us("exp.render_model"), "us"},
      {"trace.overhead_ms", (f.traced_s - f.untraced_replay_s) * 1e3, "ms"},
      {"trace.spans", double(t.spans().size()), "count"},
  };
}

int fail_setup(const std::string& why) {
  std::cerr << "perfbench_trace: " << why << "\n";
  return 1;
}

// ---------------------------------------------------------------------------

/// A workload's replayed pass; returns the mismatches it found.
using Pass = std::function<std::string(Tracer&, LayerCounts&)>;

/// Runs the pass once with spans off (the overhead reference) and once
/// traced into `t`, whose spans and counts the metrics come from.
void run_passes(Tracer& t, PassFacts& f, Checker& check, const Pass& pass) {
  Tracer off(false);
  LayerCounts scratch;
  const Clock::time_point t0 = Clock::now();
  check.op(pass(off, scratch));
  const Clock::time_point t1 = Clock::now();
  check.op(pass(t, f.counts));
  f.untraced_replay_s = seconds_between(t0, t1);
  f.traced_s = seconds_since(t1);
}

/// One cruise verdict, replayed: front end, analysis, render.
std::string replay_cruise(Tracer& t, LayerCounts& c, const std::string& path,
                          const core::AnalyzerOptions& opts) {
  const auto root = t.span("op");
  const auto text = read_file(path);
  if (!text) return {};
  const auto fe = replay_front_end(t, *text, kCruiseRoot);
  if (!fe) return {};
  return replay_render(t, replay_analysis(t, c, *fe->instance, opts));
}

int trace_cruise(const Args& a, Tracer& t, PassFacts& f, Checker& check) {
  const std::string path = cruise_model_path(a);
  const auto expected = load_cruise_expected(a);
  if (!expected) return fail_setup("cruise inputs missing");
  const core::AnalyzerOptions opts = cli_options(1);

  std::vector<double> untraced;
  const Clock::time_point end = deadline_after(a.seconds / 3);
  do {
    const CruiseOp op = run_cruise_op(path, opts, *expected);
    untraced.push_back(op.seconds);
    check.op(op.problems);
  } while (Clock::now() < end);
  f.untraced_s = median(untraced);

  run_passes(t, f, check, [&](Tracer& tr, LayerCounts& c) {
    return compare_json("replayed cruise", replay_cruise(tr, c, path, opts),
                        *expected);
  });

  // The parallel explorer on kParallelWorkers, replayed into a scratch
  // tracer so it leaves the serial pass untouched: its speedup over the
  // serial pass and how evenly the workers shared the states.
  Tracer par;
  LayerCounts pc;
  check.op(compare_json(
      "parallel replay",
      replay_cruise(par, pc, path, cli_options(kParallelWorkers)),
      *expected));
  f.par_speedup = ratio(median(t.self_times("versa.explore", 1)),
                        median(par.self_times("versa.explore", 1)));
  f.counts.worker_imbalance = pc.worker_imbalance;
  return 0;
}

// ---------------------------------------------------------------------------

/// One capture + resume pair, replayed. Returns the problems found.
std::string replay_storm(Tracer& t, LayerCounts& c, const std::string& text,
                         const StormExpected& expected) {
  std::string checkpoint;
  std::string problems;
  {
    t.set_request(1);
    const auto root = t.span("op");
    core::AnalyzerOptions cold = cli_options(1);
    cold.exploration.max_states = kStormBound;
    cold.checkpoint_out = &checkpoint;
    const auto fe = replay_front_end(t, text, kStormRoot);
    if (!fe) return "storm front end failed";
    const core::AnalysisResult r = replay_analysis(t, c, *fe->instance, cold);
    replay_render(t, r);
    problems += compare_leg("replayed capture", r, expected.capture);
  }
  {
    t.set_request(2);
    const auto root = t.span("op");
    core::AnalyzerOptions warm = cli_options(1);
    warm.exploration.max_states = 2 * kStormBound;
    warm.resume_checkpoint = &checkpoint;
    const auto fe = replay_front_end(t, text, kStormRoot);
    if (!fe) return "storm front end failed";
    const core::AnalysisResult r = replay_analysis(t, c, *fe->instance, warm);
    if (!r.resumed) problems += "replayed resume did not resume; ";
    problems += compare_leg("replayed resume", r, expected.resume);
    problems += compare_json("replayed resume", replay_render(t, r),
                             expected.cold_json);
  }
  return problems;
}

int trace_storm(const Args& a, Tracer& t, PassFacts& f, Checker& check) {
  const std::string path = storm_model_path(a);
  const auto expected = load_storm_expected(a);
  const auto text = read_file(path);
  if (!expected || !text) return fail_setup("storm inputs missing");

  std::vector<double> untraced;
  const Clock::time_point end = deadline_after(a.seconds / 3);
  do {
    const StormPair p = run_storm_pair(path, *expected);
    untraced.push_back(p.capture_s + p.resume_s);
    check.op(p.problems);
  } while (Clock::now() < end);
  f.untraced_s = median(untraced);

  run_passes(t, f, check, [&](Tracer& tr, LayerCounts& c) {
    return replay_storm(tr, c, *text, *expected);
  });
  return 0;
}

// ---------------------------------------------------------------------------

/// Both client streams of the plan, interleaved, on one thread, against a
/// fresh cache. Each result must match the untraced run's.
std::string replay_fleet(Tracer& t, LayerCounts& c, const FleetPlan& plan,
                         const std::vector<std::string>& miss_json) {
  server::CacheConfig cc;
  cc.memory_capacity = 4 * plan.models.size() + 64;
  cc.checkpoints = false;
  server::ResultCache cache(cc);
  std::string problems;
  std::uint64_t request = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& stream : plan.streams) {
      if (i >= stream.size()) continue;
      any = true;
      const FleetModel& m = plan.models[stream[i]];
      t.set_request(++request);
      std::string json;
      {
        const auto root = t.span("request");
        json = replay_request(t, c, cache, m.request_line);
      }
      if (json.empty())
        problems += m.id + ": replayed request failed; ";
      else if (normalize_result(json) !=
               normalize_result(miss_json[stream[i]]))
        problems += m.id + ": replayed result " + json +
                    " differs from untraced " + miss_json[stream[i]] + "; ";
    }
    if (!any) break;
  }
  return problems;
}

int trace_fleet(const Args& a, Tracer& t, PassFacts& f, Checker& check) {
  std::string error;
  const auto table = load_fleet_expected(a, error);
  if (!table) return fail_setup(error);
  FleetPlan plan = plan_fleet(a.seed, *table);
  {
    const auto root = t.span("setup");
    for (FleetModel& m : plan.models) {
      std::optional<std::string> aadl;
      {
        const auto s = t.span("exp.render_model");
        aadl = render_fleet_model(m, error);
      }
      if (!aadl) return fail_setup("cannot render " + m.id + ": " + error);
      m.request_line = fleet_request_line(m, *aadl);
    }
  }
  // Setup is not part of the pass compared with the untraced run.
  f.first_pass_span = t.spans().size();

  // Untraced epochs through the real service path. The sum of request
  // latencies is the time one sequential client would have waited.
  std::vector<double> busy;
  std::vector<std::string> miss_json(plan.models.size());
  const Clock::time_point end = deadline_after(a.seconds / 3);
  do {
    const FleetEpoch e = run_fleet_epoch(plan, check);
    double sum = 0;
    for (const FleetSample& s : e.samples) {
      sum += s.ms * 1e-3;
      if (!s.hit) miss_json[s.model] = s.result_json;
    }
    busy.push_back(sum);
    f.coalesced += e.coalesced;
  } while (Clock::now() < end);
  f.untraced_s = median(busy);

  run_passes(t, f, check, [&](Tracer& tr, LayerCounts& c) {
    return replay_fleet(tr, c, plan, miss_json);
  });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string error;
  const auto args = parse_args(argc, argv, error);
  if (!args || !args->trace || args->write_expected) {
    std::cerr << "perfbench_trace: "
              << (args ? "runs only with --trace 1" : error) << "\n";
    return 2;
  }
  const Args& a = *args;
  Tracer t;
  PassFacts f;
  Checker check;
  int rc = 2;
  if (a.workload == "cruise_cold") rc = trace_cruise(a, t, f, check);
  else if (a.workload == "storm_resume") rc = trace_storm(a, t, f, check);
  else if (a.workload == "fleet_service") rc = trace_fleet(a, t, f, check);
  else std::cerr << "perfbench_trace: unknown workload '" << a.workload
                 << "'\n";
  if (rc != 0) return rc;

  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string stem =
      a.out_dir + "/" + a.workload + "-" + std::to_string(a.seed);
  if (!write_file(stem + ".trace.json", t.chrome_trace_json()) ||
      !write_file(stem + ".summary.json", t.summary_json()))
    return fail_setup("cannot write trace files under " + a.out_dir);
  print_result(check, layer_metrics(t, f));
  return 0;
}
