// In-memory span recorder for the traced run.  Spans are recorded around
// calls into the library's public functions, from the benchmark's own
// code; a span's layer is its name up to the first '.'.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"

namespace ftbench {

class Tracer {
public:
  /// A disabled tracer records nothing and costs one branch per span.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; its parent is the innermost span
  /// the same thread has open.
  class Scope {
  public:
    Scope(Tracer* tracer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t id = 0) {
    return Scope(enabled_ ? this : nullptr, name, id);
  }

  /// Record a span timed elsewhere (e.g. a reply awaited on another
  /// thread than the one that sent the request).  No parent.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id);

  /// Durations of every span called \p name, in microseconds.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  /// Sum of self time (duration minus the time child spans cover) per
  /// layer, in milliseconds.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

private:
  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;
    std::uint64_t id;
  };

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace ftbench
