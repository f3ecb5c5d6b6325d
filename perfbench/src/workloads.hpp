// The benchmark's four workloads: their inputs, the options they run with,
// the expected answers they are checked against, and the untraced fleet
// epoch (the in-process service driven by closed-loop clients).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/analyzer.hpp"
#include "exp/spec.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// cruise_cold / storm_resume

inline constexpr const char* kCruiseRoot = "CruiseControlSystem.impl";
inline constexpr const char* kStormRoot = "Storm.impl";
/// storm_resume: the cold run stops here and captures a checkpoint; the
/// resumed run continues it to twice the bound.
inline constexpr std::uint64_t kStormBound = 20'000;
/// Workers of the parallel explorer in the traced cruise_cold run.
inline constexpr std::size_t kParallelWorkers = 4;

std::string cruise_model_path(const Args& a);
std::string storm_model_path(const Args& a);

/// The `aadlsched` CLI defaults: 1 ms quantum, lint on, reductions on,
/// enumerative engine; `workers` > 1 selects the parallel explorer.
aadlsched::core::AnalyzerOptions cli_options(std::size_t workers);

/// One leg of storm_resume as the expected file records it.
struct StormLeg {
  std::string stop_reason;
  std::uint64_t depth = 0;
  std::uint64_t states = 0;
};

struct StormExpected {
  StormLeg capture;
  StormLeg resume;
  /// Normalized canonical JSON of a cold run at 2 * kStormBound; the
  /// resumed run must render identically.
  std::string cold_json;
};

/// Normalized canonical result JSON of the cruise-control analysis.
std::optional<std::string> load_cruise_expected(const Args& a);
std::optional<StormExpected> load_storm_expected(const Args& a);
std::string render_storm_expected(const StormExpected& e);

/// Mismatches of a result against an expected normalized JSON ("" = none).
std::string compare_json(const std::string& what, const std::string& json,
                         const std::string& expected);
/// Mismatches of a storm leg's result against its expected facts.
std::string compare_leg(const std::string& what,
                        const aadlsched::core::AnalysisResult& r,
                        const StormLeg& expected);

/// One cruise verdict through the real path: core::analyze_file, then
/// core::render_result_json, checked against the expected JSON.
struct CruiseOp {
  double seconds = 0;
  double cpu_s = 0;  // process CPU time, all threads
  aadlsched::core::AnalysisResult result;
  std::string problems;
};
CruiseOp run_cruise_op(const std::string& path,
                       const aadlsched::core::AnalyzerOptions& opts,
                       const std::string& expected);

/// One storm_resume operation through the real path: the cold run to
/// kStormBound capturing a checkpoint, then its resumption to twice the
/// bound, each rendered and checked.
struct StormPair {
  double capture_s = 0;
  double resume_s = 0;
  double cpu_s = 0;  // process CPU time of both legs
  std::size_t checkpoint_bytes = 0;
  std::string problems;
};
StormPair run_storm_pair(const std::string& path,
                         const StormExpected& expected);

/// Front-end warm-up: analyzes the model with a one-state budget (parse,
/// instantiate, lint, translate, one expansion, teardown). False on error.
bool warm_up_model(const std::string& path, const char* root);

// ---------------------------------------------------------------------------
// fleet_service

/// One grid point of the fleet universe.
struct FleetCell {
  std::string policy;  // rm | dm | edf | llf
  double utilization = 0;
  std::size_t tasks = 0;
  double deadline_fraction = 1;
  int processors = 1;
};

/// rm/dm/edf/llf x U 0.6..1.05 x 3..5 tasks x deadline fraction x 1..2 CPUs.
std::vector<FleetCell> fleet_cells();
/// Models per cell in the universe (model seeds 1..kModelsPerCell).
inline constexpr std::uint64_t kModelsPerCell = 16;
/// Distinct models a seed draws from the universe (each sent once cold).
inline constexpr std::size_t kFleetPopulation = 1024;
inline constexpr std::size_t kFleetClients = 2;
/// Requests per distinct model: one cold, the rest Zipf replays.
inline constexpr std::size_t kRequestsPerModel = 4;

/// The experiment spec every fleet model is rendered under (engine auto).
aadlsched::exp::ExperimentSpec fleet_spec();
std::string describe(const FleetCell& c);

/// Expected verdict per universe model: 'S' schedulable, 'N' not
/// schedulable, '-' excluded (generator rejects it, or it duplicates an
/// earlier model).
using VerdictTable = std::vector<std::string>;  // [cell][seed - 1]
std::optional<VerdictTable> load_fleet_expected(const Args& a,
                                                std::string& error);
std::string render_fleet_expected(const VerdictTable& t);

struct FleetModel {
  std::size_t cell = 0;
  std::uint64_t model_seed = 0;
  bool lint = false;
  char expected = '-';
  std::string id;
  std::string request_line;  // fleet_request_line() of the rendered model
};

struct FleetPlan {
  std::vector<FleetModel> models;
  /// Per client: indices into `models`, in send order. A model's first
  /// occurrence is its cold request; later ones are replays.
  std::array<std::vector<std::size_t>, kFleetClients> streams;
};

/// Population, lint-on/off split and Zipf replay order, all from `seed`.
FleetPlan plan_fleet(std::uint64_t seed, const VerdictTable& table);

/// Renders one model's AADL (exp::render_model). nullopt + error on failure.
std::optional<std::string> render_fleet_model(const FleetModel& m,
                                              std::string& error);
/// The analyze request line for a rendered model.
std::string fleet_request_line(const FleetModel& m, const std::string& aadl);

/// Starts the epoch's Service configuration, pings it and stops it.
bool warm_up_fleet_service(const FleetPlan& plan);

/// What one request of an epoch returned.
struct FleetSample {
  std::size_t model = 0;
  double ms = 0;
  bool hit = false;
  bool is_static = false;  // decided by a lint pass, no exploration
  std::string result_json;
  std::string problems;
};

/// Deterministic work of one epoch; must repeat exactly across epochs.
struct FleetCounts {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t static_decided = 0;
  std::uint64_t enumerative_states = 0;
  std::uint64_t enumerative_transitions = 0;
  std::uint64_t zones = 0;

  bool operator==(const FleetCounts&) const = default;
};

struct FleetEpoch {
  std::vector<FleetSample> samples;  // in completion order per client
  double wall_s = 0;
  double cpu_s = 0;  // process CPU time while the clients ran
  FleetCounts counts;
  std::uint64_t coalesced = 0;
};

/// One epoch: a fresh in-process Service (2 workers, memory cache only, no
/// maintenance thread) driven closed loop by one thread per client stream.
/// Every response is checked against the expected verdict, and every cache
/// hit against its miss's result JSON.
FleetEpoch run_fleet_epoch(const FleetPlan& plan, Checker& check);

}  // namespace perfbench
