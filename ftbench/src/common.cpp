#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "linalg/simd.hpp"

namespace ftbench {

Stream::Stream(std::uint64_t seed, std::uint64_t tag)
    : state_(seed * 0x9e3779b97f4a7c15ULL ^ (tag + 0x632be59bd9b4e019ULL)) {
  (void)next();
}

std::uint64_t Stream::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Stream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Stream::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::size_t Stream::below(std::size_t n) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

double Stream::exponential(double mean) {
  return -mean * std::log1p(-uniform());
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Nearest rank k (1-based); n - k samples lie beyond it.
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (q > 0.5 && n - k < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (k - 1), samples.end());
  return samples[k - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value_or(0.0);
}

double lowest(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

double highest(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::max_element(samples.begin(), samples.end());
}

namespace {
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
}  // namespace

bool identical(const ftdiag::core::Diagnosis& a,
               const ftdiag::core::Diagnosis& b) {
  if (a.ranking.size() != b.ranking.size()) return false;
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    const auto& x = a.ranking[i];
    const auto& y = b.ranking[i];
    if (x.site != y.site || x.segment_index != y.segment_index ||
        !same_bits(x.distance, y.distance) || !same_bits(x.t, y.t) ||
        !same_bits(x.estimated_deviation, y.estimated_deviation)) {
      return false;
    }
  }
  return true;
}

void Result::failed(const std::string& what, std::size_t n) {
  failed_ += n;
  check(false, what);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  // Keep the first few distinct problems; the count is in `failed`.
  if (problems_.size() < 8 &&
      std::find(problems_.begin(), problems_.end(), what) == problems_.end()) {
    problems_.push_back(what);
  }
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::metric(const std::string& name, std::optional<double> value,
                    const std::string& unit) {
  if (!value) {
    check(false, "too few samples for " + name);
    return;
  }
  metric(name, *value, unit);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}
}  // namespace

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics_[i].name) + ": {\"value\": " +
           number(metrics_[i].value) +
           ", \"unit\": " + quoted(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

namespace {
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}
}  // namespace

std::string fingerprint_json(const Args& args) {
  std::string out = "{\"host\": {";
  out += "\"cpu\": " + quoted(cpu_model());
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_width\": " +
         std::to_string(ftdiag::linalg::simd::DefaultPack::width);
  out += ", \"compiler\": " + quoted(FTBENCH_COMPILER);
  out += ", \"flags\": " + quoted(FTBENCH_FLAGS);
  out += ", \"build_type\": " + quoted(FTBENCH_BUILD_TYPE);
  out += ", \"source\": " + quoted(args.source_id);
  out += "}, \"workload\": " + quoted(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0") + "}";
  return out;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace ftbench
