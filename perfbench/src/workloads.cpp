#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "core/result_json.hpp"
#include "exp/runner.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"

namespace perfbench {

using namespace aadlsched;

namespace {

/// splitmix64, owned by the benchmark so the population a seed selects
/// does not depend on the program's own RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

}  // namespace

// ---------------------------------------------------------------------------
// cruise / storm

std::string cruise_model_path(const Args& a) {
  return a.bench_dir + "/models/cruise_control.aadl";
}
std::string storm_model_path(const Args& a) {
  return a.bench_dir + "/models/storm.aadl";
}

core::AnalyzerOptions cli_options(std::size_t workers) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  opts.parallel.workers = workers;
  return opts;
}

namespace {

std::string cruise_expected_path(const Args& a) {
  return a.bench_dir + "/expected/cruise_control.json";
}
std::string storm_expected_path(const Args& a) {
  return a.bench_dir + "/expected/storm_resume.txt";
}
std::string fleet_expected_path(const Args& a) {
  return a.bench_dir + "/expected/fleet_verdicts.txt";
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                        s.back() == ' '))
    s.pop_back();
  return s;
}

bool parse_leg(std::istringstream& is, StormLeg& leg) {
  return static_cast<bool>(is >> leg.stop_reason >> leg.depth >> leg.states);
}

}  // namespace

std::optional<std::string> load_cruise_expected(const Args& a) {
  auto text = read_file(cruise_expected_path(a));
  if (!text) return std::nullopt;
  return trim(*text);
}

std::optional<StormExpected> load_storm_expected(const Args& a) {
  auto text = read_file(storm_expected_path(a));
  if (!text) return std::nullopt;
  StormExpected e;
  bool have_capture = false, have_resume = false, have_json = false;
  std::istringstream lines(*text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream is(line);
    std::string tag;
    is >> tag;
    if (tag == "capture") {
      have_capture = parse_leg(is, e.capture);
    } else if (tag == "resume") {
      have_resume = parse_leg(is, e.resume);
    } else if (tag == "cold_json") {
      std::getline(is >> std::ws, e.cold_json);
      have_json = !e.cold_json.empty();
    }
  }
  if (!have_capture || !have_resume || !have_json) return std::nullopt;
  return e;
}

std::string render_storm_expected(const StormExpected& e) {
  std::ostringstream os;
  os << "# storm_resume: stop reason, BFS depth and states of the cold run to "
     << kStormBound << " states\n# and of its resumption to "
     << 2 * kStormBound
     << "; cold_json is a cold run at the larger bound.\n";
  os << "capture " << e.capture.stop_reason << ' ' << e.capture.depth << ' '
     << e.capture.states << '\n';
  os << "resume " << e.resume.stop_reason << ' ' << e.resume.depth << ' '
     << e.resume.states << '\n';
  os << "cold_json " << e.cold_json << '\n';
  return os.str();
}

std::string compare_json(const std::string& what, const std::string& json,
                         const std::string& expected) {
  const std::string got = normalize_result(json);
  if (got == expected) return {};
  return what + ": result " + got + " differs from expected " + expected;
}

std::string compare_leg(const std::string& what,
                        const core::AnalysisResult& r,
                        const StormLeg& expected) {
  const std::string stop(util::to_string(r.stop_reason));
  if (stop == expected.stop_reason && r.depth == expected.depth &&
      r.states == expected.states)
    return {};
  std::ostringstream os;
  os << what << ": got " << stop << '/' << r.depth << '/' << r.states
     << ", expected " << expected.stop_reason << '/' << expected.depth << '/'
     << expected.states << "; ";
  return os.str();
}

CruiseOp run_cruise_op(const std::string& path,
                       const core::AnalyzerOptions& opts,
                       const std::string& expected) {
  CruiseOp op;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  op.result = core::analyze_file(path, kCruiseRoot, opts);
  const std::string json = core::render_result_json(op.result);
  op.seconds = seconds_since(t0);
  op.cpu_s = process_cpu_s() - cpu0;
  op.problems = compare_json("cruise", json, expected);
  return op;
}

StormPair run_storm_pair(const std::string& path,
                         const StormExpected& expected) {
  std::string checkpoint;
  core::AnalyzerOptions cold = cli_options(1);
  cold.exploration.max_states = kStormBound;
  cold.checkpoint_out = &checkpoint;
  core::AnalyzerOptions warm = cli_options(1);
  warm.exploration.max_states = 2 * kStormBound;
  warm.resume_checkpoint = &checkpoint;

  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  const core::AnalysisResult c = core::analyze_file(path, kStormRoot, cold);
  core::render_result_json(c);
  const Clock::time_point t1 = Clock::now();
  const core::AnalysisResult r = core::analyze_file(path, kStormRoot, warm);
  const std::string json = core::render_result_json(r);

  StormPair p;
  p.cpu_s = process_cpu_s() - cpu0;
  p.resume_s = seconds_since(t1);
  p.capture_s = seconds_between(t0, t1);
  p.checkpoint_bytes = checkpoint.size();
  p.problems = compare_leg("capture", c, expected.capture) +
               compare_leg("resume", r, expected.resume) +
               compare_json("resumed storm", json, expected.cold_json);
  if (!c.checkpoint_captured || checkpoint.empty())
    p.problems += "no checkpoint captured; ";
  if (!r.resumed) p.problems += "resume fell back to a cold run; ";
  return p;
}

bool warm_up_model(const std::string& path, const char* root) {
  core::AnalyzerOptions opts = cli_options(1);
  opts.exploration.max_states = 1;
  return core::analyze_file(path, root, opts).ok;
}

// ---------------------------------------------------------------------------
// fleet_service

std::vector<FleetCell> fleet_cells() {
  std::vector<FleetCell> cells;
  for (const char* policy : {"rm", "dm", "edf", "llf"})
    for (const double u : {0.6, 0.75, 0.9, 1.05})
      for (const std::size_t n : {3, 4, 5})
        for (const double f : {0.6, 1.0})
          for (const int cpus : {1, 2})
            cells.push_back(FleetCell{policy, u, n, f, cpus});
  return cells;
}

exp::ExperimentSpec fleet_spec() {
  exp::ExperimentSpec spec;
  spec.name = "perfbench-fleet";
  spec.engines = {"auto"};
  spec.max_states = 200'000;
  return spec;
}

namespace {

exp::Cell to_exp_cell(const FleetCell& c) {
  exp::Cell cell;
  cell.policy = c.policy;
  cell.utilization = c.utilization;
  cell.task_count = c.tasks;
  cell.deadline_fraction = c.deadline_fraction;
  cell.quantum_ms = 1;
  cell.engine = "auto";
  cell.processors = c.processors;
  return cell;
}

}  // namespace

std::string describe(const FleetCell& c) {
  std::ostringstream os;
  os << c.policy << " U=" << c.utilization << " n=" << c.tasks
     << " f=" << c.deadline_fraction << " cpus=" << c.processors;
  return os.str();
}

std::optional<VerdictTable> load_fleet_expected(const Args& a,
                                                std::string& error) {
  const auto text = read_file(fleet_expected_path(a));
  if (!text) {
    error = "cannot read " + fleet_expected_path(a);
    return std::nullopt;
  }
  const std::vector<FleetCell> cells = fleet_cells();
  VerdictTable t(cells.size());
  std::istringstream lines(*text);
  std::string line;
  std::size_t seen = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<cell index>|<description>|<verdicts>"
    const std::size_t p1 = line.find('|');
    const std::size_t p2 = line.find('|', p1 + 1);
    if (p1 == std::string::npos || p2 == std::string::npos) break;
    const std::size_t idx = std::stoul(line.substr(0, p1));
    const std::string verdicts = trim(line.substr(p2 + 1));
    if (idx >= cells.size() || line.substr(p1 + 1, p2 - p1 - 1) !=
                                   describe(cells[idx]) ||
        verdicts.size() != kModelsPerCell) {
      error = "expected verdict table does not match the fleet grid at: " +
              line;
      return std::nullopt;
    }
    t[idx] = verdicts;
    ++seen;
  }
  if (seen != cells.size()) {
    error = "expected verdict table is incomplete";
    return std::nullopt;
  }
  return t;
}

std::string render_fleet_expected(const VerdictTable& t) {
  const std::vector<FleetCell> cells = fleet_cells();
  std::ostringstream os;
  os << "# fleet_service expected verdicts, one line per grid cell:\n"
     << "# <cell>|<description>|<one char per model seed 1.."
     << kModelsPerCell << ">\n"
     << "# S schedulable, N not schedulable, - excluded (generator refused "
        "it, or an earlier model has the same instance).\n"
     << "# Decided by sched::simulate over the hyperperiod, per processor,\n"
     << "# and cross-checked with exact RTA (rm/dm) or QPA (edf).\n";
  for (std::size_t i = 0; i < cells.size(); ++i)
    os << i << '|' << describe(cells[i]) << '|' << t[i] << '\n';
  return os.str();
}

FleetPlan plan_fleet(std::uint64_t seed, const VerdictTable& table) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0x1F);
  // Candidate universe models, then a partial Fisher-Yates draw.
  std::vector<std::pair<std::size_t, std::uint64_t>> universe;
  for (std::size_t c = 0; c < table.size(); ++c)
    for (std::uint64_t s = 1; s <= kModelsPerCell; ++s)
      if (table[c][s - 1] != '-') universe.emplace_back(c, s);
  const std::size_t n = std::min(kFleetPopulation, universe.size());
  for (std::size_t i = 0; i < n; ++i)
    std::swap(universe[i], universe[i + rng.below(universe.size() - i)]);

  // Exactly half the models lint on.
  std::vector<char> lint(n, 0);
  for (std::size_t i = 0; i < n / 2; ++i) lint[i] = 1;
  for (std::size_t i = n; i > 1; --i)
    std::swap(lint[i - 1], lint[rng.below(i)]);

  FleetPlan plan;
  for (std::size_t i = 0; i < n; ++i) {
    FleetModel m;
    m.cell = universe[i].first;
    m.model_seed = universe[i].second;
    m.lint = lint[i] != 0;
    m.expected = table[m.cell][m.model_seed - 1];
    m.id = "c" + std::to_string(m.cell) + "-s" + std::to_string(m.model_seed) +
           (m.lint ? "-lint" : "-nolint");
    plan.models.push_back(std::move(m));
  }

  // Client k owns models k, k + clients, ...; its stream places each cold
  // request among kRequestsPerModel - 1 replays per model, drawn Zipf(1)
  // over the models it has already served (earliest served = most popular).
  for (std::size_t k = 0; k < kFleetClients; ++k) {
    std::vector<std::size_t> cold;
    for (std::size_t i = k; i < n; i += kFleetClients) cold.push_back(i);
    std::vector<std::size_t>& stream = plan.streams[k];
    std::vector<std::size_t> served;
    std::size_t next_cold = 0;
    const std::size_t total = cold.size() * kRequestsPerModel;
    for (std::size_t slot = 0; slot < total; ++slot) {
      const std::size_t cold_left = cold.size() - next_cold;
      const bool send_cold =
          cold_left > 0 &&
          (served.empty() || rng.below(total - slot) < cold_left);
      if (send_cold) {
        served.push_back(cold[next_cold++]);
        stream.push_back(served.back());
        continue;
      }
      double norm = 0;
      for (std::size_t r = 0; r < served.size(); ++r) norm += 1.0 / (r + 1);
      double x = rng.unit() * norm;
      std::size_t pick = served.size() - 1;
      for (std::size_t r = 0; r < served.size(); ++r) {
        x -= 1.0 / (r + 1);
        if (x < 0) {
          pick = r;
          break;
        }
      }
      stream.push_back(served[pick]);
    }
  }
  return plan;
}

std::optional<std::string> render_fleet_model(const FleetModel& m,
                                              std::string& error) {
  static const std::vector<FleetCell> cells = fleet_cells();
  return exp::render_model(fleet_spec(), to_exp_cell(cells[m.cell]), m.cell,
                           m.model_seed, error);
}

std::string fleet_request_line(const FleetModel& m, const std::string& aadl) {
  server::Request req;
  req.op = server::Op::Analyze;
  req.id = m.id;
  req.model = aadl;
  req.root = "Root.impl";
  req.options.quantum_ns = 1'000'000;
  req.options.max_states = fleet_spec().max_states;
  req.options.workers = 1;
  req.options.run_lint = m.lint;
  req.options.engine = core::Engine::Auto;
  req.no_checkpoint = true;
  return server::render_request(req);
}

namespace {

std::string expected_outcome(char verdict) {
  return verdict == 'S' ? "schedulable" : "not-schedulable";
}

}  // namespace

namespace {

server::ServiceConfig fleet_service_config(const FleetPlan& plan) {
  server::ServiceConfig cfg;
  cfg.workers = kFleetClients;
  cfg.maintenance_interval_ms = 0;
  cfg.cache.memory_capacity = 4 * plan.models.size() + 64;
  cfg.cache.checkpoints = false;
  return cfg;
}

}  // namespace

bool warm_up_fleet_service(const FleetPlan& plan) {
  server::Service service(fleet_service_config(plan));
  server::Request ping;
  ping.op = server::Op::Ping;
  const bool ok = service.handle_line(server::render_request(ping))
                      .find("\"ok\": true") != std::string::npos;
  service.shutdown();
  return ok;
}

FleetEpoch run_fleet_epoch(const FleetPlan& plan, Checker& check) {
  server::Service service(fleet_service_config(plan));

  FleetEpoch epoch;
  std::array<std::vector<FleetSample>, kFleetClients> per_client;
  std::vector<std::string> miss_json(plan.models.size());

  // Clients only send and time; responses are checked after the epoch so
  // that its CPU time is the service's work, not the benchmark's.
  std::array<std::vector<std::pair<std::string, double>>, kFleetClients>
      responses;
  const auto client = [&](std::size_t k) {
    responses[k].reserve(plan.streams[k].size());
    for (const std::size_t idx : plan.streams[k]) {
      const Clock::time_point t0 = Clock::now();
      std::string line = service.handle_line(plan.models[idx].request_line);
      responses[k].emplace_back(std::move(line), seconds_since(t0) * 1e3);
    }
  };

  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (std::size_t k = 0; k < kFleetClients; ++k)
      clients.emplace_back(client, k);
  }
  epoch.wall_s = seconds_since(t0);
  epoch.cpu_s = process_cpu_s() - cpu0;

  for (std::size_t k = 0; k < kFleetClients; ++k) {
    std::vector<bool> seen(plan.models.size(), false);
    for (std::size_t i = 0; i < plan.streams[k].size(); ++i) {
      const std::size_t idx = plan.streams[k][i];
      const FleetModel& m = plan.models[idx];
      FleetSample s;
      s.ms = responses[k][i].second;
      s.model = idx;
      std::string err;
      const auto resp = server::parse_response(responses[k][i].first, err);
      if (!resp || !resp->ok) {
        s.problems = m.id + ": bad response: " + (resp ? resp->error : err);
      } else {
        s.hit = resp->cached;
        s.result_json = resp->result_json;
        s.is_static = !s.hit && json_string(s.result_json, "decided_by");
        const std::string outcome(core::to_string(resp->outcome));
        if (outcome != expected_outcome(m.expected))
          s.problems += m.id + ": outcome " + outcome + ", expected " +
                        expected_outcome(m.expected) + "; ";
        if (!seen[idx]) {
          if (s.hit) s.problems += m.id + ": cold request hit the cache; ";
          miss_json[idx] = s.result_json;
        } else {
          if (!s.hit) s.problems += m.id + ": replay missed the cache; ";
          if (s.result_json != miss_json[idx])
            s.problems += m.id + ": hit differs from its miss; ";
        }
      }
      seen[idx] = true;
      per_client[k].push_back(std::move(s));
    }
  }

  server::Request stats_req;
  stats_req.op = server::Op::Stats;
  const std::string stats =
      service.handle_line(server::render_request(stats_req));
  epoch.coalesced = json_uint(stats, "coalesced").value_or(0);
  service.shutdown();

  for (auto& samples : per_client) {
    for (FleetSample& s : samples) {
      check.op(s.problems);
      FleetCounts& c = epoch.counts;
      ++c.requests;
      if (s.hit) {
        ++c.hits;
      } else if (s.is_static) {
        ++c.static_decided;
      } else {
        const std::uint64_t states =
            json_uint(s.result_json, "states").value_or(0);
        if (json_string(s.result_json, "engine") == "symbolic") {
          c.zones += states;
        } else {
          c.enumerative_states += states;
          c.enumerative_transitions +=
              json_uint(s.result_json, "transitions").value_or(0);
        }
      }
      epoch.samples.push_back(std::move(s));
    }
  }
  return epoch;
}

}  // namespace perfbench
