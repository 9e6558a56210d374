// Shared plumbing of the ftdiag benchmark: clocks, the seeded input
// stream, percentile rules, the result record and the host fingerprint.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/diagnosis.hpp"

namespace ftbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The benchmark's own SplitMix64 input stream.  Inputs are drawn here,
/// not from the library's generator, so a change to the library cannot
/// change what the benchmark feeds it.  (seed, tag) pairs give
/// independent streams: one per input family.
class Stream {
public:
  Stream(std::uint64_t seed, std::uint64_t tag);
  std::uint64_t next();
  double uniform();                           ///< [0, 1)
  double uniform(double lo, double hi);       ///< [lo, hi)
  std::size_t below(std::size_t n);           ///< [0, n)
  double exponential(double mean);

private:
  std::uint64_t state_;
};

/// Nearest-rank percentile \p q of \p samples, or nothing when fewer than
/// ten samples lie beyond it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);
[[nodiscard]] double median(std::vector<double> samples);
[[nodiscard]] double lowest(const std::vector<double>& samples);
[[nodiscard]] double highest(const std::vector<double>& samples);

/// True when two diagnoses are bit-identical: every field of every ranked
/// match, doubles by bit pattern.
[[nodiscard]] bool identical(const ftdiag::core::Diagnosis& a,
                             const ftdiag::core::Diagnosis& b);

/// Parsed command line.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".bench_build/ftbench-run";
  /// Where the traced run writes its spans.
  std::string trace_path = ".bench_build/ftbench-traces/trace.jsonl";
  std::string source_id = "unknown";
};

/// One run's record: operation counts, correctness, and named metrics.
/// A wrong answer is a failed operation and also makes the run incorrect.
class Result {
public:
  void attempted(std::size_t n = 1) { attempted_ += n; }
  void failed(const std::string& what, std::size_t n = 1);
  /// A check on the program's output; false marks the run incorrect.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  /// A percentile metric; a missing value (too few samples) is a defect
  /// of the run, reported as incorrect rather than silently dropped.
  void metric(const std::string& name, std::optional<double> value,
              const std::string& unit);

  [[nodiscard]] std::size_t attempted_count() const { return attempted_; }
  [[nodiscard]] std::size_t failed_count() const { return failed_; }
  [[nodiscard]] bool correct() const { return problems_.empty(); }
  [[nodiscard]] const std::vector<std::string>& problems() const {
    return problems_;
  }

  /// The final line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;

private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
  std::vector<Metric> metrics_;
};

/// Host and build fingerprint as a one-line JSON object.
[[nodiscard]] std::string fingerprint_json(const Args& args);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// JSON string literal with escapes.
[[nodiscard]] std::string quoted(const std::string& text);

}  // namespace ftbench
