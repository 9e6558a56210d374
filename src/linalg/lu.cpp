#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ftdiag::linalg {

namespace {

/// Singularity threshold relative to the largest pivot candidate seen.
constexpr double kPivotTolerance = 1e-13;

/// Column-panel width of the blocked multi-RHS solve: the factor row and
/// the active RHS rows stay resident while a panel's columns advance.
constexpr std::size_t kSolvePanel = 48;

/// acc - a*b, the one multiply-subtract of both triangular solves.  Spelled
/// out so the single-RHS and blocked loops round identically however the
/// compiler schedules them: gcc's vectorizer turns a std::complex
/// `x -= f * y` into a fused complex multiply-add (vfmaddsub) even under
/// -ffp-contract=off, while the scalar loop rounds the product on its own.
/// The complex product is therefore formed with explicit fma where the
/// target has it (which is exactly what a vfmaddsub lane computes) and
/// with plain multiplies where it does not (no fused instruction exists to
/// be picked).  It stays off the accumulator chain either way.
inline double mul_sub(double acc, double a, double b) { return acc - a * b; }

inline std::complex<double> mul_sub(std::complex<double> acc,
                                    std::complex<double> a,
                                    std::complex<double> b) {
  const double ar = a.real(), ai = a.imag(), br = b.real(), bi = b.imag();
#ifdef FP_FAST_FMA
  const double pr = std::fma(ar, br, -(ai * bi));
  const double pi = std::fma(ar, bi, ai * br);
#else
  const double pr = ar * br - ai * bi;
  const double pi = ar * bi + ai * br;
#endif
  return {acc.real() - pr, acc.imag() - pi};
}

}  // namespace

template <typename T>
LuFactorization<T>::LuFactorization(Matrix<T> a) : lu_(std::move(a)) {
  factor();
}

template <typename T>
void LuFactorization<T>::factor_in_place(Matrix<T>& a) {
  lu_.swap(a);
  factor();
}

template <typename T>
void LuFactorization<T>::factor() {
  if (!lu_.square()) {
    throw NumericError("LU requires a square matrix");
  }
  const std::size_t n = lu_.rows();
  swaps_ = 0;
  perm_.resize(n);  // allocates only when n grows past previous factors
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  // Scale reference for the singularity test.
  double max_entry = lu_.max_abs();
  if (max_entry == 0.0) {
    throw NumericError("LU of the zero matrix");
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= kPivotTolerance * max_entry) {
      throw NumericError(str::format(
          "singular matrix in LU at column %zu (pivot %.3e, scale %.3e)", k,
          pivot_mag, max_entry));
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(lu_(k, c), lu_(pivot_row, c));
      }
      std::swap(perm_[k], perm_[pivot_row]);
      ++swaps_;
    }
    const T pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const T factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == T{}) continue;
      const T* krow = lu_.row_data(k);
      T* rrow = lu_.row_data(r);
      for (std::size_t c = k + 1; c < n; ++c) rrow[c] -= factor * krow[c];
    }
  }
}

template <typename T>
void LuFactorization<T>::solve_into(std::span<const T> b,
                                    std::span<T> x) const {
  const std::size_t n = size();
  FTDIAG_ASSERT(b.size() == n && x.size() == n,
                "rhs/solution size mismatch in LU solve");
  // Apply permutation, then forward substitution (L unit diagonal).
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  for (std::size_t i = 0; i < n; ++i) {
    const T* row = lu_.row_data(i);
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc = mul_sub(acc, row[j], x[j]);
    x[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    const T* row = lu_.row_data(ii);
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc = mul_sub(acc, row[j], x[j]);
    x[ii] = acc / row[ii];
  }
}

template <typename T>
void LuFactorization<T>::solve_into(const Matrix<T>& b, Matrix<T>& x) const {
  const std::size_t n = size();
  const std::size_t m = b.cols();
  FTDIAG_ASSERT(b.rows() == n, "rhs row count mismatch in LU solve");
  if (x.rows() != n || x.cols() != m) x.reshape(n, m);

  // X = P B: row i of X is row perm_[i] of B.
  for (std::size_t i = 0; i < n; ++i) {
    const T* src = b.row_data(perm_[i]);
    T* dst = x.row_data(i);
    for (std::size_t c = 0; c < m; ++c) dst[c] = src[c];
  }

  for (std::size_t panel = 0; panel < m; panel += kSolvePanel) {
    const std::size_t pe = std::min(m, panel + kSolvePanel);
    // Forward substitution, all panel columns in lockstep (L unit
    // diagonal): per column this is exactly solve_into's j-ascending
    // accumulation, just held in memory instead of a register.
    for (std::size_t i = 0; i < n; ++i) {
      const T* row = lu_.row_data(i);
      T* xi = x.row_data(i);
      for (std::size_t j = 0; j < i; ++j) {
        const T factor = row[j];
        if (factor == T{}) continue;
        const T* xj = x.row_data(j);
        for (std::size_t c = panel; c < pe; ++c) {
          xi[c] = mul_sub(xi[c], factor, xj[c]);
        }
      }
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
      const T* row = lu_.row_data(ii);
      T* xi = x.row_data(ii);
      for (std::size_t j = ii + 1; j < n; ++j) {
        const T factor = row[j];
        if (factor == T{}) continue;
        const T* xj = x.row_data(j);
        for (std::size_t c = panel; c < pe; ++c) {
          xi[c] = mul_sub(xi[c], factor, xj[c]);
        }
      }
      const T pivot = row[ii];
      for (std::size_t c = panel; c < pe; ++c) xi[c] /= pivot;
    }
  }
}

template <typename T>
std::vector<T> LuFactorization<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x(size());
  solve_into(b, x);
  return x;
}

template <typename T>
Matrix<T> LuFactorization<T>::solve(const Matrix<T>& b) const {
  Matrix<T> x;
  solve_into(b, x);
  return x;
}

template <typename T>
T LuFactorization<T>::determinant() const {
  T det = (swaps_ % 2 == 0) ? T{1} : T{-1};
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

template <typename T>
Matrix<T> LuFactorization<T>::inverse() const {
  return solve(Matrix<T>::identity(size()));
}

template <typename T>
double LuFactorization<T>::diagonal_condition_estimate() const {
  double max_d = 0.0;
  double min_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < size(); ++i) {
    const double d = std::abs(lu_(i, i));
    max_d = std::max(max_d, d);
    min_d = std::min(min_d, d);
  }
  return min_d > 0.0 ? max_d / min_d
                     : std::numeric_limits<double>::infinity();
}

template class LuFactorization<double>;
template class LuFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
