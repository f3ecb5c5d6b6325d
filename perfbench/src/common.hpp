// Shared plumbing of the benchmark executables: command line, clocks,
// order statistics, process memory, result-JSON field access and the final
// result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// CPU time of the whole process (every thread) in seconds. On a virtual
/// machine it leaves out the time the host gave to other guests (steal),
/// which wall time does not: the gated timings use it so that they measure
/// the program rather than the load on the host.
double process_cpu_s();

/// A fixed piece of work that depends on no code outside the benchmark:
/// for about half its time a chain of dependent reads over a 64 MiB table,
/// far larger than the caches, and for the other half dependent integer
/// arithmetic. The analyses both wait on memory and compute, and a host
/// whose other guests contend for memory slows them less than it slows
/// pure pointer chasing. Timed next to every operation, the kernel
/// measures how fast the host serves this process right now, so an
/// operation's CPU time divided by the kernel's (its cost in reference
/// units) stays put when the host slows both, while a change to the
/// program moves it in full.
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Median CPU time in seconds of kPasses passes.
  double cpu_s();
  /// Resident size of the table, which stays allocated all run.
  double table_mb() const;

 private:
  static constexpr int kPasses = 3;
  double pass();
  std::vector<std::uint64_t> table_;
  std::uint64_t sink_ = 0;
};

/// Restricts this thread, and every thread it starts later, to the last
/// CPU it may run on (the first usually takes most device interrupts,
/// whose time is charged to whatever runs there). With all of a run's
/// threads on one CPU, a hand-off between two of them costs the same
/// whether the other CPUs are idle or busy, so process_cpu_s() does not
/// depend on the rest of the machine.
bool pin_to_one_cpu();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding models/ and expected/ (the benchmark package).
  std::string bench_dir = "perfbench";
  /// Where traced runs write their trace files.
  std::string out_dir = ".bench_build/perfbench/out";
  /// Regenerate expected/ instead of running a workload.
  bool write_expected = false;
};

/// Parses `--workload w --seed n --seconds s --trace 0|1 --bench-dir d
/// --out-dir d [--write-expected]`. Returns nullopt with a message on bad
/// input.
std::optional<Args> parse_args(int argc, char** argv, std::string& error);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]; 0 when empty.
double percentile(std::vector<double> v, double p);

/// Peak resident set size of this process (VmHWM) in MiB.
double peak_rss_mb();
/// Resets the peak to the current resident set size (Linux clear_refs), so
/// the next peak_rss_mb() covers only what ran in between.
void reset_peak_rss();

/// Whole file, or nullopt when it cannot be read.
std::optional<std::string> read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& text);

/// The canonical result JSON with its one timing field ("explore_ms")
/// zeroed, so results from different runs compare byte for byte.
std::string normalize_result(std::string_view json);

/// Unsigned integer field `"key": N` of a flat JSON object.
std::optional<std::uint64_t> json_uint(std::string_view json,
                                       std::string_view key);
/// String field `"key": "v"` of a flat JSON object (no escapes in v).
std::optional<std::string> json_string(std::string_view json,
                                       std::string_view key);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Counts attempted operations and the ones whose output did not match
/// the expected answer; the first few problems are printed to stderr.
class Checker {
 public:
  /// One attempted operation; `problems` lists its mismatches ("" = ok).
  void op(const std::string& problems);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One human-readable `detail` line (all metrics with units), then the
/// result object as the last line of stdout.
void print_detail(std::string_view label, const std::vector<Metric>& metrics);
void print_result(const Checker& check, const std::vector<Metric>& metrics);

}  // namespace perfbench
