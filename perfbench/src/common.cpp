#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sched.h>

namespace perfbench {

namespace {

bool parse_u64(std::string_view s, std::uint64_t& out) {
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && p == s.data() + s.size();
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : "0";
}

void append_metrics(std::string& out, const std::vector<Metric>& metrics) {
  out += '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += '"' + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += '}';
}

}  // namespace

std::optional<Args> parse_args(int argc, char** argv, std::string& error) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--write-expected") {
      a.write_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + std::string(arg);
      return std::nullopt;
    }
    const std::string_view val = argv[++i];
    if (arg == "--workload") {
      a.workload = val;
    } else if (arg == "--seed") {
      if (!parse_u64(val, a.seed)) {
        error = "bad --seed";
        return std::nullopt;
      }
    } else if (arg == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(val, s) || s == 0 || s > 3600) {
        error = "bad --seconds";
        return std::nullopt;
      }
      a.seconds = static_cast<double>(s);
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") {
        error = "--trace takes 0 or 1";
        return std::nullopt;
      }
      a.trace = val == "1";
    } else if (arg == "--bench-dir") {
      a.bench_dir = val;
    } else if (arg == "--out-dir") {
      a.out_dir = val;
    } else {
      error = "unknown argument " + std::string(arg);
      return std::nullopt;
    }
  }
  if (a.workload.empty() && !a.write_expected) {
    error = "--workload is required";
    return std::nullopt;
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

ReferenceKernel::ReferenceKernel() : table_(std::size_t(1) << 23) {
  for (std::size_t i = 0; i < table_.size(); ++i)
    table_[i] = i * 0x9e3779b97f4a7c15ULL;
  pass();  // warm-up, not timed
}

double ReferenceKernel::pass() {
  const double t0 = process_cpu_s();
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t i = sink_ | 1;
  // About half the pass: each read's address depends on the previous
  // read, so every step waits for memory.
  for (int k = 0; k < (1 << 16); ++k)
    i = ((table_[i & mask] ^ i) * 0x2545f4914f6cdd1dULL) >> 17;
  // The other half: dependent arithmetic on one register.
  for (int k = 0; k < (1 << 23); ++k) i = (i * 0x100000001b3ULL) ^ (i >> 29);
  sink_ = i;
  return process_cpu_s() - t0;
}

double ReferenceKernel::cpu_s() {
  std::vector<double> t;
  for (int i = 0; i < kPasses; ++i) t.push_back(pass());
  return median(std::move(t));
}

double ReferenceKernel::table_mb() const {
  return double(table_.size() * sizeof(std::uint64_t)) / (1024.0 * 1024.0);
}

bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

std::string normalize_result(std::string_view json) {
  static constexpr std::string_view kKey = "\"explore_ms\": ";
  std::string out(json);
  const std::size_t at = out.find(kKey);
  if (at == std::string::npos) return out;
  const std::size_t begin = at + kKey.size();
  std::size_t end = begin;
  while (end < out.size() && out[end] != ',' && out[end] != '}') ++end;
  out.replace(begin, end - begin, "0");
  return out;
}

std::optional<std::uint64_t> json_uint(std::string_view json,
                                       std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t end = at + needle.size();
  while (end < json.size() && json[end] >= '0' && json[end] <= '9') ++end;
  std::uint64_t v = 0;
  if (!parse_u64(json.substr(at + needle.size(), end - at - needle.size()),
                 v))
    return std::nullopt;
  return v;
}

std::optional<std::string> json_string(std::string_view json,
                                       std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\": \"";
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t begin = at + needle.size();
  const std::size_t end = json.find('"', begin);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(json.substr(begin, end - begin));
}

void Checker::op(const std::string& problems) {
  ++attempted_;
  if (problems.empty()) return;
  if (failed_ < 5) std::cerr << "perfbench: mismatch: " << problems << "\n";
  ++failed_;
}

void print_detail(std::string_view label,
                  const std::vector<Metric>& metrics) {
  std::string out = "detail ";
  out += label;
  out += ' ';
  append_metrics(out, metrics);
  std::cout << out << std::endl;
}

void print_result(const Checker& check, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += check.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted());
  out += ", \"failed\": " + std::to_string(check.failed());
  out += ", \"metrics\": ";
  append_metrics(out, metrics);
  out += '}';
  std::cout << out << std::endl;
}

}  // namespace perfbench
