/// \file response.hpp
/// \brief Frequency-response container with interpolation helpers.
///
/// An AcResponse is what fault simulation stores per circuit: the complex
/// transfer value at each grid frequency.  The spectral sampler evaluates
/// responses at arbitrary (GA-chosen) frequencies via log-frequency
/// interpolation, so the dictionary does not need to be rebuilt per GA step.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/complex_utils.hpp"
#include "linalg/simd.hpp"

namespace ftdiag::mna {

using linalg::Complex;

/// Complex response samples over an ascending frequency grid.
///
/// Storage is structure-of-arrays: contiguous 64-byte-aligned re/im
/// planes (frequency-major), which is what the SIMD sweep and scoring
/// kernels read and what the simulation engine writes pack-at-a-time.
/// The interleaved values() vector is kept alongside as the API/wire
/// view (serialization, interpolation and every legacy caller); both
/// views always hold identical values.
class AcResponse {
public:
  AcResponse() = default;
  AcResponse(std::vector<double> frequencies_hz, std::vector<Complex> values);

  /// Build directly from split re/im planes (the engine's native output —
  /// no interleave round-trip on the hot path's side).
  AcResponse(std::vector<double> frequencies_hz,
             linalg::simd::AlignedVector re, linalg::simd::AlignedVector im);

  [[nodiscard]] std::size_t size() const { return freq_hz_.size(); }
  [[nodiscard]] bool empty() const { return freq_hz_.empty(); }

  [[nodiscard]] const std::vector<double>& frequencies() const {
    return freq_hz_;
  }
  [[nodiscard]] const std::vector<Complex>& values() const { return values_; }

  /// The SoA planes: re/im of the sample at grid index i, 64-byte aligned.
  [[nodiscard]] std::span<const double> reals() const { return re_; }
  [[nodiscard]] std::span<const double> imags() const { return im_; }

  [[nodiscard]] double frequency(std::size_t i) const { return freq_hz_[i]; }
  [[nodiscard]] const Complex& value(std::size_t i) const { return values_[i]; }

  /// Linear magnitude at grid index i.
  [[nodiscard]] double magnitude(std::size_t i) const;

  /// Magnitude in dB at grid index i.
  [[nodiscard]] double magnitude_db(std::size_t i) const;

  /// Phase in degrees at grid index i.
  [[nodiscard]] double phase_deg(std::size_t i) const;

  /// Where an arbitrary frequency falls on a response grid: the bracketing
  /// indices and the log-frequency interpolation parameter.  lo == hi
  /// marks an exact grid hit or an out-of-band clamp.  Responses sharing
  /// one grid (every dictionary entry) can locate once and interpolate
  /// many — see interpolate(const GridPosition&).
  struct GridPosition {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double t = 0.0;
  };

  /// Locate \p frequency_hz on this grid.  \throws NumericError if empty.
  [[nodiscard]] GridPosition locate(double frequency_hz) const;

  /// Complex value at an arbitrary frequency by interpolating magnitude
  /// (log-log) and unwrapped phase (linear in log f) between neighbouring
  /// grid points.  Clamps outside the grid.  \throws NumericError if empty.
  /// Exactly interpolate(locate(f)).
  [[nodiscard]] Complex interpolate(double frequency_hz) const;

  /// Interpolate at a precomputed position (valid for any response on the
  /// same grid).  Bit-identical to interpolate(frequency).
  [[nodiscard]] Complex interpolate(const GridPosition& position) const;

  /// Linear magnitude at an arbitrary frequency (via interpolate()).
  [[nodiscard]] double magnitude_at(double frequency_hz) const;

  /// Magnitude in dB at an arbitrary frequency.
  [[nodiscard]] double magnitude_db_at(double frequency_hz) const;

  /// Largest |difference| to another response on the common grid.
  /// \throws NumericError if grids differ.
  [[nodiscard]] double max_deviation(const AcResponse& other) const;

  /// Index of the maximum-magnitude sample.
  [[nodiscard]] std::size_t peak_index() const;

private:
  std::vector<double> freq_hz_;
  std::vector<Complex> values_;          ///< interleaved API/wire view
  linalg::simd::AlignedVector re_, im_;  ///< SoA planes (kernel view)
};

/// The grid invariant AcResponse asserts, checked on untrusted input:
/// \throws ParseError (naming \p what) unless every frequency is finite
/// and the list ascends.  Decoders of wire frames, CSV files and .fdx
/// images call it before they construct a response.
void check_frequency_grid(std::span<const double> frequencies_hz,
                          const std::string& what);

}  // namespace ftdiag::mna
