// E7c — single-model parallel exploration: serial BFS vs the
// level-synchronous parallel explorer on the largest example model and on a
// generated 8-thread set. Table: wall time, speedup over serial, states/sec
// as the worker count grows; workers=1 doubles as the serial-fallback
// overhead measurement.
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"

namespace {

using namespace aadlsched;

std::string read_model(const char* name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Prepared {
  acsr::Context ctx;
  acsr::TermId initial = acsr::kNil;
  bool ok = false;
};

void prepare(Prepared& p, const std::string& src, std::string_view root,
             std::int64_t quantum_ns) {
  util::DiagnosticEngine diags("bench.aadl");
  aadl::Model model;
  if (!aadl::parse_aadl(model, src, diags)) return;
  auto inst = aadl::instantiate(model, root, diags);
  if (!inst || diags.has_errors()) return;
  translate::TranslateOptions topts;
  topts.quantum_ns = quantum_ns;
  auto tr = translate::translate(p.ctx, *inst, diags, topts);
  if (!tr) return;
  p.initial = tr->initial;
  p.ok = true;
}

// Tasks with bcet < wcet: the committed-demand model branches on every
// dispatch, so the frontier is wide enough for the level-parallel engine to
// have per-level work to distribute (peak frontier in the hundreds).
sched::TaskSet branching_tasks() {
  sched::TaskSet ts;
  const sched::Time periods[] = {8, 12, 16, 16, 24, 24};
  for (std::size_t i = 0; i < 6; ++i) {
    sched::Task t;
    t.name = "t" + std::to_string(i);
    t.period = t.deadline = periods[i];
    t.wcet = std::max<sched::Time>(2, t.period / 6);
    t.bcet = 1;
    ts.tasks.push_back(t);
  }
  sched::assign_rate_monotonic(ts);
  return ts;
}

void print_model_table(const char* title, const std::string& src,
                       std::string_view root, std::int64_t quantum_ns) {
  versa::ExploreOptions eopts;
  eopts.stop_at_first_deadlock = false;  // exhaustive: identical work per run

  // Serial baseline (fresh Context: exploration cost includes interning).
  Prepared s;
  prepare(s, src, root, quantum_ns);
  if (!s.ok) {
    std::printf("%s: model failed to translate\n", title);
    return;
  }
  acsr::Semantics sem(s.ctx);
  const auto serial = versa::explore(sem, s.initial, eopts);

  std::printf("%s (%llu states, %llu transitions)\n", title,
              static_cast<unsigned long long>(serial.states),
              static_cast<unsigned long long>(serial.transitions));
  std::printf("%10s %12s %10s %14s %14s\n", "engine", "time_ms", "speedup",
              "states/sec", "peak_frontier");
  std::printf("%10s %12.2f %9.2fx %14.0f %14llu\n", "serial", serial.wall_ms,
              1.0, serial.states / (serial.wall_ms / 1e3),
              static_cast<unsigned long long>(serial.peak_frontier));

  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    Prepared p;
    prepare(p, src, root, quantum_ns);
    versa::ParallelExploreOptions popts;
    popts.workers = workers;
    const auto r = versa::explore_parallel(p.ctx, p.initial, eopts, popts);
    std::printf("%9zuw %12.2f %9.2fx %14.0f %14llu\n", workers, r.wall_ms,
                serial.wall_ms / r.wall_ms, r.states / (r.wall_ms / 1e3),
                static_cast<unsigned long long>(r.peak_frontier));
    if (r.states != serial.states || r.transitions != serial.transitions)
      std::printf("  !! MISMATCH vs serial (states %llu, transitions %llu)\n",
                  static_cast<unsigned long long>(r.states),
                  static_cast<unsigned long long>(r.transitions));
  }
  std::printf("\n");
}

void print_table() {
  bench::print_header(
      "E7c: single-model parallel exploration",
      "level-synchronous parallel BFS with striped visited set and shared "
      "hash-consing; workers=1 measures the serial-fallback overhead");
  std::printf("hardware_concurrency = %u\n\n",
              std::thread::hardware_concurrency());
  print_model_table("avionics.aadl (1 ms quantum)", read_model("avionics.aadl"),
                    "Avionics.impl", 1'000'000);
  print_model_table(
      "generated 6-task RM set, bcet<wcet (1 ms quantum)",
      core::taskset_to_aadl(branching_tasks(),
                            sched::SchedulingPolicy::FixedPriority),
      "Root.impl", 1'000'000);
}

void BM_SerialExplore(benchmark::State& state) {
  const std::string src = read_model("avionics.aadl");
  versa::ExploreOptions eopts;
  eopts.stop_at_first_deadlock = false;
  for (auto _ : state) {
    Prepared p;
    prepare(p, src, "Avionics.impl", 1'000'000);
    acsr::Semantics sem(p.ctx);
    benchmark::DoNotOptimize(versa::explore(sem, p.initial, eopts));
  }
}
BENCHMARK(BM_SerialExplore);

void BM_ParallelExplore(benchmark::State& state) {
  const std::string src = read_model("avionics.aadl");
  versa::ExploreOptions eopts;
  eopts.stop_at_first_deadlock = false;
  versa::ParallelExploreOptions popts;
  popts.workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Prepared p;
    prepare(p, src, "Avionics.impl", 1'000'000);
    benchmark::DoNotOptimize(
        versa::explore_parallel(p.ctx, p.initial, eopts, popts));
  }
}
BENCHMARK(BM_ParallelExplore)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
