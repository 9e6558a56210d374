/// \file rank1.hpp
/// \brief Sherman–Morrison rank-1 update solves against a cached
/// factorization.
///
/// For A' = A + scale * u * v^T the Sherman–Morrison identity gives
///
///   A'^{-1} b = x0 - scale * (v.x0) / (1 + scale * (v.w)) * w
///
/// with x0 = A^{-1} b and w = A^{-1} u.  The fault-simulation engine
/// factors the golden MNA matrix once per frequency and produces every
/// faulty solution from (x0, w) in O(n) — u and v are the structural stamp
/// vectors of the perturbed component, scale carries the deviation.
///
/// The update is refused (std::nullopt) when the denominator signals an
/// ill-conditioned perturbed system: the error of the update grows like
/// (1 + |scale * (v.w)|) / |1 + scale * (v.w)|, so callers fall back to a
/// full refactorization when that growth exceeds \p max_growth.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/simd.hpp"
#include "util/error.hpp"

namespace ftdiag::linalg {

/// Sparse vector as (index, value) pairs; indices need not be sorted but
/// must be unique.
template <typename T>
struct SparseVector {
  std::vector<std::pair<std::size_t, T>> entries;

  void add(std::size_t index, const T& value) {
    if (value == T{}) return;
    entries.push_back({index, value});
  }

  [[nodiscard]] bool empty() const { return entries.empty(); }

  /// Dense copy of length \p n.
  [[nodiscard]] std::vector<T> densify(std::size_t n) const {
    std::vector<T> dense(n, T{});
    for (const auto& [index, value] : entries) {
      FTDIAG_ASSERT(index < n, "sparse vector index out of range");
      dense[index] += value;
    }
    return dense;
  }
};

/// Unconjugated dot product v . x of a sparse vector with a dense span.
template <typename T>
[[nodiscard]] T sparse_dot(const SparseVector<T>& v, std::span<const T> x) {
  T acc{};
  for (const auto& [index, value] : v.entries) {
    FTDIAG_ASSERT(index < x.size(), "sparse dot index out of range");
    acc += value * x[index];
  }
  return acc;
}

/// Unconjugated dot product v . x of a sparse vector with a dense one.
template <typename T>
[[nodiscard]] T sparse_dot(const SparseVector<T>& v, const std::vector<T>& x) {
  return sparse_dot(v, std::span<const T>(x));
}

/// Default growth bound above which a rank-1 update is refused.
inline constexpr double kRank1MaxGrowth = 1e8;

/// The Sherman–Morrison correction coefficient scale*(v.x0)/(1+scale*(v.w)),
/// or std::nullopt when the update would amplify rounding error by more
/// than \p max_growth (the perturbed matrix is near-singular).
template <typename T>
[[nodiscard]] std::optional<T> sherman_morrison_coefficient(
    const T& v_dot_x0, const T& v_dot_w, const T& scale,
    double max_growth = kRank1MaxGrowth) {
  const T scaled = scale * v_dot_w;
  const T denominator = T{1} + scaled;
  const double growth = 1.0 + std::abs(scaled);
  // Fail closed: a non-finite scale or denominator (e.g. a deviation that
  // zeroes a component value) must refuse the update rather than emit NaN.
  if (!std::isfinite(growth) || !std::isfinite(std::abs(denominator)) ||
      std::abs(denominator) * max_growth < growth) {
    return std::nullopt;
  }
  return (scale * v_dot_x0) / denominator;
}

/// One component of the updated solution: x_i = x0_i - coefficient * w_i.
/// The engine extracts only the observed output unknown this way, making a
/// whole deviation sweep O(1) per (site, frequency) after w is solved once.
template <typename T>
[[nodiscard]] std::optional<T> sherman_morrison_component(
    const T& x0_i, const T& w_i, const T& v_dot_x0, const T& v_dot_w,
    const T& scale, double max_growth = kRank1MaxGrowth) {
  const std::optional<T> coefficient =
      sherman_morrison_coefficient(v_dot_x0, v_dot_w, scale, max_growth);
  if (!coefficient) return std::nullopt;
  return x0_i - *coefficient * w_i;
}

/// Split real/imaginary SoA sweep of sherman_morrison_component over a
/// frequency block: for every i in [0, count)
///
///   scaled = scale_i * (v.w)_i          denom = 1 + scaled
///   out_i  = x0_i - (scale_i * (v.x0)_i / denom) * w_i
///
/// with the same growth refusal as sherman_morrison_coefficient: the
/// entry is refused (refused[i] = 1, out slot untouched) when the result
/// is non-finite or |denom| * max_growth < 1 + |scaled|.  Returns the
/// number of refused entries.
///
/// This is the per-(site, fault) inner loop of the simulation engine,
/// written as straight-line arithmetic over parallel re/im arrays and
/// allocation-free by construction.  The block is processed P::width
/// frequencies per pack; the remainder runs through this kernel's own
/// ScalarPack instantiation, so any count (including 0 and counts below
/// the pack width) is valid and no padding is required of the caller.
/// Pointers may sit at any 8-byte boundary.  Every lane evaluates the same
/// formulas in the same order (including the fail-closed non-finite
/// refusal, via a lane mask), so the ScalarPack instantiation is the
/// runtime scalar path of a SIMD build.  Values agree with
/// sherman_morrison_component up to re/im evaluation-order rounding (that
/// path uses std::complex division); magnitudes beyond ~1e154 overflow the
/// unscaled |.|^2 here and refuse conservatively, which only trades a
/// rank-1 update for an exact refactorization.  tests/oracles.hpp keeps a
/// plain loop of these formulas as the differential reference.
template <typename P = simd::DefaultPack>
inline std::size_t sherman_morrison_sweep_simd(
    std::size_t count, const double* scale_re, const double* scale_im,
    const double* v_x0_re, const double* v_x0_im, const double* v_w_re,
    const double* v_w_im, const double* x0_re, const double* x0_im,
    const double* w_re, const double* w_im, double max_growth,
    double* out_re, double* out_im, unsigned char* refused) {
  constexpr std::size_t kW = P::width;
  const std::size_t full = count - count % kW;
  std::size_t refusals = 0;
  const P one = P::broadcast(1.0);
  const P growth_bound = P::broadcast(max_growth);
  for (std::size_t i = 0; i < full; i += kW) {
    const simd::CPack<P> scale{P::load(scale_re + i), P::load(scale_im + i)};
    const simd::CPack<P> v_w{P::load(v_w_re + i), P::load(v_w_im + i)};
    const simd::CPack<P> scaled = scale * v_w;
    const simd::CPack<P> denom{one + scaled.re, scaled.im};
    const P growth = one + simd::sqrt(scaled.norm());
    const P denom_sq = denom.norm();
    const P denom_abs = simd::sqrt(denom_sq);
    // Fail closed per lane: non-finite scales/denominators refuse.
    const auto ok = simd::finite_mask(growth) && simd::finite_mask(denom_abs) &&
                    !(denom_abs * growth_bound < growth);
    const simd::CPack<P> v_x0{P::load(v_x0_re + i), P::load(v_x0_im + i)};
    const simd::CPack<P> u = scale * v_x0;
    const P inv = one / denom_sq;
    const simd::CPack<P> coef{(u.re * denom.re + u.im * denom.im) * inv,
                              (u.im * denom.re - u.re * denom.im) * inv};
    const simd::CPack<P> w{P::load(w_re + i), P::load(w_im + i)};
    const simd::CPack<P> x0{P::load(x0_re + i), P::load(x0_im + i)};
    const simd::CPack<P> updated = x0 - coef * w;
    for (std::size_t lane = 0; lane < kW; ++lane) {
      if (ok[lane]) {
        refused[i + lane] = 0;
        out_re[i + lane] = updated.re[lane];
        out_im[i + lane] = updated.im[lane];
      } else {
        refused[i + lane] = 1;  // out slot untouched
        ++refusals;
      }
    }
  }
  if constexpr (!std::is_same_v<P, simd::ScalarPack>) {
    if (full < count) {
      refusals += sherman_morrison_sweep_simd<simd::ScalarPack>(
          count - full, scale_re + full, scale_im + full, v_x0_re + full,
          v_x0_im + full, v_w_re + full, v_w_im + full, x0_re + full,
          x0_im + full, w_re + full, w_im + full, max_growth,
          out_re + full, out_im + full, refused + full);
    }
  }
  return refusals;
}

/// Full updated solution of (A + scale*u*v^T) x = b from x0 = A^{-1}b and
/// w = A^{-1}u.  std::nullopt when the update is ill-conditioned.
template <typename T>
[[nodiscard]] std::optional<std::vector<T>> sherman_morrison_solve(
    const std::vector<T>& x0, const std::vector<T>& w,
    const SparseVector<T>& v, const T& scale,
    double max_growth = kRank1MaxGrowth) {
  FTDIAG_ASSERT(x0.size() == w.size(), "x0/w size mismatch in rank-1 solve");
  const std::optional<T> coefficient = sherman_morrison_coefficient(
      sparse_dot(v, x0), sparse_dot(v, w), scale, max_growth);
  if (!coefficient) return std::nullopt;
  std::vector<T> x = x0;
  for (std::size_t i = 0; i < x.size(); ++i) x[i] -= *coefficient * w[i];
  return x;
}

}  // namespace ftdiag::linalg
