/// \file sparse_factorization.hpp
/// \brief Pattern-reusing sparse LU: symbolic analysis once per circuit,
/// allocation-free numeric refactorization per frequency point.
///
/// The AC sweep factors the same sparsity pattern at every Laplace point —
/// A(s) = G + s*C has a frequency-invariant structure, so instead of
/// redoing the whole elimination (pivot search, fill discovery, row-list
/// merges) per point, `SparseFactorization` splits the work the way every
/// serious circuit simulator does:
///
///   1. **Symbolic phase** (construction): threshold-Markowitz pivoting
///      over dynamic row lists picks a fill-reducing, numerically
///      acceptable pivot order and records the complete L+U fill pattern.
///      Entries that cancel to exactly 0.0 during elimination are *kept*
///      as explicit zeros, so the pattern depends only on the structure of
///      the input, never on its values — the property every reuse of the
///      pattern rests on.
///   2. **Numeric phase** (`refactor`): scatter the new values into the
///      frozen pattern and run an up-looking elimination with the recorded
///      pivot order.  No searching, no allocation, O(flops of the factor).
///
/// Copies share the immutable symbolic phase (cheap per-lane clones for
/// parallel sweeps); each copy owns its numeric values, so concurrent
/// refactor/solve on different copies is safe.
///
/// `refactor` throws NumericError when the frozen pivot order turns
/// numerically unacceptable at the new values (a pivot collapsing towards
/// zero); callers fall back to a fresh full analysis at that point.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"

namespace ftdiag::linalg {

template <typename T>
class SparseFactorization {
public:
  /// An empty object; assign from an analyzed one before use.
  SparseFactorization() = default;

  /// Symbolic analysis + first numeric factorization of \p a.
  /// \param pivot_threshold in (0,1]: a pivot is acceptable when its
  /// magnitude is at least threshold * (largest candidate in the column);
  /// among acceptable rows the sparsest wins (Markowitz-style fill
  /// control).  \throws NumericError on a non-square or singular matrix.
  explicit SparseFactorization(const CooMatrix<T>& a,
                               double pivot_threshold = 0.1);

  /// Allocation-free numeric refactorization: \p a's entries must lie
  /// within the analyzed pattern (a structural subset is fine — e.g. the
  /// reactive part vanishing at s = 0).  The pivot order and fill pattern
  /// of the analysis are reused unchanged.  \throws NumericError when a
  /// reused pivot is numerically unacceptable for these values or an entry
  /// falls outside the pattern; the factorization is unusable until the
  /// next successful refactor.
  void refactor(const CooMatrix<T>& a);

  /// Solve A x = b into caller-owned \p x (size n, distinct storage from
  /// \p b).  Allocation-free.
  void solve_into(std::span<const T> b, std::span<T> x) const;

  /// Blocked multi-RHS solve A X = B: every column advances through one
  /// forward/backward pass over the factor rows.  \p x is reshaped to b's
  /// shape when needed (no-op when already that shape).  Per column the
  /// source performs solve_into's operations in the same order, but the
  /// result is not bitwise solve_into's: the column loop vectorizes, and
  /// gcc may fuse its complex multiply-subtract where the single-RHS loop
  /// rounds the product separately.  The two agree to rounding (pinned to
  /// 1e-11 by tests/test_sparse.cpp); only the dense LuFactorization
  /// solves are bit-identical by construction.
  void solve_into(const Matrix<T>& b, Matrix<T>& x) const;

  /// Convenience single solve.
  [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const;

  [[nodiscard]] bool analyzed() const { return symbolic_ != nullptr; }
  [[nodiscard]] std::size_t size() const;

  /// Non-zeros (pattern positions) in the combined L+U factors.  Fixed by
  /// the symbolic phase: value-independent by construction.
  [[nodiscard]] std::size_t factor_nnz() const;

private:
  /// The immutable outcome of the symbolic phase, shared across copies.
  struct Symbolic {
    std::size_t n = 0;
    std::vector<std::size_t> row_start;  ///< size n+1, offsets into col
    std::vector<std::size_t> col;        ///< pattern columns, ascending per row
    std::vector<std::size_t> diag;       ///< position of (r, r) per row
    std::vector<std::size_t> perm;       ///< row i of PA is row perm[i] of A
    std::vector<std::size_t> inv_perm;   ///< inverse of perm
  };

  std::shared_ptr<const Symbolic> symbolic_;
  std::vector<T> values_;  ///< factor values in pattern order
  std::vector<T> work_;    ///< dense accumulator of the up-looking refactor
};

extern template class SparseFactorization<double>;
extern template class SparseFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
