#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace ftbench {

namespace {
/// Open spans of the calling thread, innermost last.
thread_local std::vector<std::size_t> t_open;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  const std::int64_t parent =
      t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  const auto start = Clock::now();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back({name, start, start, parent, id});
  t_open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const auto end = Clock::now();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[index_].end = end;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, end, -1, id});
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(us_between(span.start, span.end));
  }
  return out;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> self_us(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self_us[i] = us_between(spans_[i].start, spans_[i].end);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self_us[static_cast<std::size_t>(span.parent)] -=
          us_between(span.start, span.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    const std::string layer(name.substr(0, name.find('.')));
    out[layer] += std::max(0.0, self_us[i]) / 1000.0;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"span\": " << i << ", \"name\": " << quoted(span.name)
        << ", \"start_us\": " << us_between(origin_, span.start)
        << ", \"end_us\": " << us_between(origin_, span.end)
        << ", \"parent\": " << span.parent << ", \"id\": " << span.id
        << "}\n";
  }
}

}  // namespace ftbench
