#include "mna/response.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ftdiag::mna {

void check_frequency_grid(std::span<const double> frequencies_hz,
                          const std::string& what) {
  for (std::size_t i = 0; i < frequencies_hz.size(); ++i) {
    if (!std::isfinite(frequencies_hz[i])) {
      throw ParseError(what + ": frequency " + std::to_string(i) +
                       " is not finite");
    }
    if (i > 0 && frequencies_hz[i] < frequencies_hz[i - 1]) {
      throw ParseError(what + ": frequencies must ascend (sample " +
                       std::to_string(i) + ")");
    }
  }
}

AcResponse::AcResponse(std::vector<double> frequencies_hz,
                       std::vector<Complex> values)
    : freq_hz_(std::move(frequencies_hz)), values_(std::move(values)) {
  FTDIAG_ASSERT(freq_hz_.size() == values_.size(),
                "response frequency/value length mismatch");
  FTDIAG_ASSERT(std::is_sorted(freq_hz_.begin(), freq_hz_.end()),
                "response frequencies must ascend");
  re_.resize(values_.size());
  im_.resize(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    re_[i] = values_[i].real();
    im_[i] = values_[i].imag();
  }
}

AcResponse::AcResponse(std::vector<double> frequencies_hz,
                       linalg::simd::AlignedVector re,
                       linalg::simd::AlignedVector im)
    : freq_hz_(std::move(frequencies_hz)),
      re_(std::move(re)),
      im_(std::move(im)) {
  FTDIAG_ASSERT(freq_hz_.size() == re_.size() && re_.size() == im_.size(),
                "response frequency/plane length mismatch");
  FTDIAG_ASSERT(std::is_sorted(freq_hz_.begin(), freq_hz_.end()),
                "response frequencies must ascend");
  values_.resize(re_.size());
  for (std::size_t i = 0; i < re_.size(); ++i) {
    values_[i] = Complex(re_[i], im_[i]);
  }
}

double AcResponse::magnitude(std::size_t i) const {
  return std::abs(values_[i]);
}

double AcResponse::magnitude_db(std::size_t i) const {
  return linalg::to_db(values_[i]);
}

double AcResponse::phase_deg(std::size_t i) const {
  return linalg::phase_deg(values_[i]);
}

AcResponse::GridPosition AcResponse::locate(double frequency_hz) const {
  if (empty()) throw NumericError("interpolation on an empty response");
  if (frequency_hz <= freq_hz_.front()) return {0, 0, 0.0};
  if (frequency_hz >= freq_hz_.back()) {
    return {freq_hz_.size() - 1, freq_hz_.size() - 1, 0.0};
  }

  const auto upper =
      std::upper_bound(freq_hz_.begin(), freq_hz_.end(), frequency_hz);
  const std::size_t hi = static_cast<std::size_t>(upper - freq_hz_.begin());
  const std::size_t lo = hi - 1;

  const double f_lo = freq_hz_[lo];
  const double f_hi = freq_hz_[hi];
  // Interpolation parameter in log-frequency (grids are log-spaced); guard
  // against non-positive frequencies on linear grids.
  double t;
  if (f_lo > 0.0 && f_hi > 0.0) {
    t = (std::log(frequency_hz) - std::log(f_lo)) /
        (std::log(f_hi) - std::log(f_lo));
  } else {
    t = (frequency_hz - f_lo) / (f_hi - f_lo);
  }
  return {lo, hi, t};
}

Complex AcResponse::interpolate(double frequency_hz) const {
  return interpolate(locate(frequency_hz));
}

Complex AcResponse::interpolate(const GridPosition& position) const {
  if (empty()) throw NumericError("interpolation on an empty response");
  if (position.lo == position.hi) return values_[position.lo];
  const double t = position.t;

  const Complex a = values_[position.lo];
  const Complex b = values_[position.hi];
  const double mag_a = std::abs(a);
  const double mag_b = std::abs(b);
  // Magnitude: geometric interpolation when both are positive (straight
  // line on a Bode plot), linear otherwise.
  double mag;
  if (mag_a > 0.0 && mag_b > 0.0) {
    mag = std::exp((1.0 - t) * std::log(mag_a) + t * std::log(mag_b));
  } else {
    mag = (1.0 - t) * mag_a + t * mag_b;
  }
  // Phase: shortest-arc linear interpolation.
  const double ph_a = std::arg(a);
  double ph_b = std::arg(b);
  constexpr double kPi = 3.14159265358979323846;
  while (ph_b - ph_a > kPi) ph_b -= 2.0 * kPi;
  while (ph_b - ph_a < -kPi) ph_b += 2.0 * kPi;
  const double ph = (1.0 - t) * ph_a + t * ph_b;
  return Complex(mag * std::cos(ph), mag * std::sin(ph));
}

double AcResponse::magnitude_at(double frequency_hz) const {
  return std::abs(interpolate(frequency_hz));
}

double AcResponse::magnitude_db_at(double frequency_hz) const {
  return linalg::to_db(interpolate(frequency_hz));
}

double AcResponse::max_deviation(const AcResponse& other) const {
  if (freq_hz_ != other.freq_hz_) {
    throw NumericError("max_deviation requires identical frequency grids");
  }
  double max_dev = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    max_dev = std::max(max_dev, std::abs(values_[i] - other.values_[i]));
  }
  return max_dev;
}

std::size_t AcResponse::peak_index() const {
  FTDIAG_ASSERT(!empty(), "peak of an empty response");
  std::size_t best = 0;
  for (std::size_t i = 1; i < values_.size(); ++i) {
    if (std::abs(values_[i]) > std::abs(values_[best])) best = i;
  }
  return best;
}

}  // namespace ftdiag::mna
