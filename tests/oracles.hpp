/// \file oracles.hpp
/// \brief Plain scalar reference implementations that the differential
/// tests pin the production kernels against.
///
/// Each oracle is the naive loop of the formulas its kernel documents,
/// written without packs, SoA planes or dispatch, so a disagreement points
/// at the kernel's vectorization rather than at shared code.  They live
/// here, not in src/: the runtime scalar path of every SIMD kernel is its
/// ScalarPack instantiation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "core/diagnosis.hpp"
#include "core/geometry.hpp"

namespace ftdiag::oracle {

/// Reference for linalg::sherman_morrison_sweep_simd: the same inputs,
/// outputs and refusal semantics, one frequency per iteration.
inline std::size_t sherman_morrison_sweep(
    std::size_t count, const double* scale_re, const double* scale_im,
    const double* v_x0_re, const double* v_x0_im, const double* v_w_re,
    const double* v_w_im, const double* x0_re, const double* x0_im,
    const double* w_re, const double* w_im, double max_growth,
    double* out_re, double* out_im, unsigned char* refused) {
  std::size_t refusals = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double sr = scale_re[i];
    const double si = scale_im[i];
    const double scaled_re = sr * v_w_re[i] - si * v_w_im[i];
    const double scaled_im = sr * v_w_im[i] + si * v_w_re[i];
    const double denom_re = 1.0 + scaled_re;
    const double denom_im = scaled_im;
    const double growth =
        1.0 + std::sqrt(scaled_re * scaled_re + scaled_im * scaled_im);
    const double denom_sq = denom_re * denom_re + denom_im * denom_im;
    const double denom_abs = std::sqrt(denom_sq);
    // Fail closed: non-finite scales/denominators refuse rather than NaN.
    if (!std::isfinite(growth) || !std::isfinite(denom_abs) ||
        denom_abs * max_growth < growth) {
      refused[i] = 1;
      ++refusals;
      continue;
    }
    refused[i] = 0;
    const double u_re = sr * v_x0_re[i] - si * v_x0_im[i];
    const double u_im = sr * v_x0_im[i] + si * v_x0_re[i];
    const double inv = 1.0 / denom_sq;
    const double coef_re = (u_re * denom_re + u_im * denom_im) * inv;
    const double coef_im = (u_im * denom_re - u_re * denom_im) * inv;
    out_re[i] = x0_re[i] - (coef_re * w_re[i] - coef_im * w_im[i]);
    out_im[i] = x0_im[i] - (coef_re * w_im[i] + coef_im * w_re[i]);
  }
  return refusals;
}

/// Reference for core::DiagnosisEngine::diagnose: project_point() against
/// every segment of every trajectory, first minimal segment wins, ranking
/// sorted by distance.
inline core::Diagnosis diagnose(const core::DiagnosisEngine& engine,
                                const core::Point& observed) {
  core::Diagnosis diagnosis;
  for (const auto& trajectory : engine.trajectories()) {
    const std::vector<core::Segment> segments = trajectory.segments();
    core::TrajectoryMatch match;
    match.site = trajectory.site();
    match.distance = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const core::Projection proj = core::project_point(observed, segments[i]);
      if (proj.distance < match.distance) {
        match.distance = proj.distance;
        match.segment_index = i;
        match.t = proj.t;
      }
    }
    match.estimated_deviation =
        trajectory.deviation_on_segment(match.segment_index, match.t);
    diagnosis.ranking.push_back(std::move(match));
  }
  std::sort(diagnosis.ranking.begin(), diagnosis.ranking.end(),
            [](const core::TrajectoryMatch& a, const core::TrajectoryMatch& b) {
              return a.distance < b.distance;
            });
  return diagnosis;
}

}  // namespace ftdiag::oracle
