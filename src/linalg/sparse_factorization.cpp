#include "linalg/sparse_factorization.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace ftdiag::linalg {

namespace {

/// Singularity threshold relative to the largest input entry (matches the
/// dense LU).
constexpr double kPivotTolerance = 1e-13;

/// Column-panel width of the blocked multi-RHS solve (same as lu.cpp).
constexpr std::size_t kSolvePanel = 48;

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Binary search for a column in an ascending row list; returns index or
/// kNpos.
template <typename RowEntry>
std::size_t find_col(const std::vector<RowEntry>& row, std::size_t col) {
  std::size_t lo = 0, hi = row.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (row[mid].col < col) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < row.size() && row[lo].col == col) return lo;
  return kNpos;
}

/// Binary search for \p c in the ascending pattern slice [lo, hi) of
/// \p cols; returns the absolute index or kNpos.
std::size_t find_pattern(const std::vector<std::size_t>& cols, std::size_t lo,
                         std::size_t hi, std::size_t c) {
  const std::size_t end = hi;  // stay inside the row slice, not the array
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (cols[mid] < c) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < end && cols[lo] == c) return lo;
  return kNpos;
}

}  // namespace

template <typename T>
SparseFactorization<T>::SparseFactorization(const CooMatrix<T>& a,
                                            double pivot_threshold) {
  if (a.rows() != a.cols()) {
    throw NumericError("sparse factorization requires a square matrix");
  }
  FTDIAG_ASSERT(pivot_threshold > 0.0 && pivot_threshold <= 1.0,
                "pivot threshold must lie in (0, 1]");
  const std::size_t n = a.rows();

  // --- Symbolic + first numeric pass: a threshold-pivoted row-list
  // elimination with every entry — including exact zeros — retained, so
  // the resulting pattern is a pure function of the input STRUCTURE and
  // can be refilled with any same-pattern values.
  struct RowEntry {
    std::size_t col;
    T value;
  };
  std::vector<std::vector<RowEntry>> rows(n);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  {
    std::vector<std::map<std::size_t, T>> row_maps(n);
    for (const auto& e : a.entries()) row_maps[e.row][e.col] += e.value;
    for (std::size_t r = 0; r < n; ++r) {
      rows[r].reserve(row_maps[r].size());
      for (const auto& [c, v] : row_maps[r]) rows[r].push_back({c, v});
    }
  }

  double max_entry = 0.0;
  for (const auto& row : rows) {
    for (const auto& e : row) max_entry = std::max(max_entry, std::abs(e.value));
  }
  if (max_entry == 0.0) {
    throw NumericError("sparse factorization of the zero matrix");
  }

  for (std::size_t k = 0; k < n; ++k) {
    double best_mag = 0.0;
    for (std::size_t r = k; r < n; ++r) {
      const std::size_t idx = find_col(rows[r], k);
      if (idx == kNpos) continue;
      best_mag = std::max(best_mag, std::abs(rows[r][idx].value));
    }
    if (best_mag <= kPivotTolerance * max_entry) {
      throw NumericError(str::format(
          "singular matrix in sparse factorization at column %zu", k));
    }
    // Threshold pivoting: the sparsest numerically acceptable row wins
    // (Markowitz-style fill control).
    std::size_t pivot_row = kNpos;
    std::size_t pivot_len = kNpos;
    for (std::size_t r = k; r < n; ++r) {
      const std::size_t idx = find_col(rows[r], k);
      if (idx == kNpos) continue;
      if (std::abs(rows[r][idx].value) >= pivot_threshold * best_mag &&
          rows[r].size() < pivot_len) {
        pivot_row = r;
        pivot_len = rows[r].size();
      }
    }
    FTDIAG_ASSERT(pivot_row != kNpos,
                  "sparse factorization failed to select a pivot");
    if (pivot_row != k) {
      std::swap(rows[k], rows[pivot_row]);
      std::swap(perm[k], perm[pivot_row]);
    }

    const std::size_t pk = find_col(rows[k], k);
    const T pivot = rows[k][pk].value;

    for (std::size_t r = k + 1; r < n; ++r) {
      const std::size_t idx = find_col(rows[r], k);
      if (idx == kNpos) continue;
      const T multiplier = rows[r][idx].value / pivot;
      std::vector<RowEntry> merged;
      merged.reserve(rows[r].size() + rows[k].size());
      std::size_t ir = 0, ik = pk + 1;  // skip pivot col in row k
      const auto& rk = rows[k];
      const auto& rr = rows[r];
      while (ir < rr.size() || ik < rk.size()) {
        if (ir < rr.size() && (ik >= rk.size() || rr[ir].col < rk[ik].col)) {
          RowEntry e = rr[ir++];
          if (e.col == k) e.value = multiplier;
          merged.push_back(e);
        } else if (ik < rk.size() &&
                   (ir >= rr.size() || rk[ik].col < rr[ir].col)) {
          merged.push_back({rk[ik].col, -multiplier * rk[ik].value});
          ++ik;
        } else {
          RowEntry e = rr[ir];
          e.value = rr[ir].value - multiplier * rk[ik].value;
          ++ir;
          ++ik;
          merged.push_back(e);  // exact cancellations stay in the pattern
        }
      }
      rows[r] = std::move(merged);
    }
  }

  // --- Freeze the elimination outcome into an immutable CSR pattern.
  auto sym = std::make_shared<Symbolic>();
  sym->n = n;
  sym->perm = std::move(perm);
  sym->inv_perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) sym->inv_perm[sym->perm[i]] = i;
  sym->row_start.assign(n + 1, 0);
  sym->diag.assign(n, kNpos);
  std::size_t nnz = 0;
  for (const auto& row : rows) nnz += row.size();
  sym->col.reserve(nnz);
  values_.clear();
  values_.reserve(nnz);
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& e : rows[r]) {
      if (e.col == r) sym->diag[r] = sym->col.size();
      sym->col.push_back(e.col);
      values_.push_back(e.value);
    }
    sym->row_start[r + 1] = sym->col.size();
  }
  for (std::size_t r = 0; r < n; ++r) {
    FTDIAG_ASSERT(sym->diag[r] != kNpos,
                  "sparse factorization row lacks a diagonal entry");
  }
  symbolic_ = std::move(sym);
  work_.assign(n, T{});
}

template <typename T>
void SparseFactorization<T>::refactor(const CooMatrix<T>& a) {
  FTDIAG_ASSERT(symbolic_ != nullptr, "refactor before symbolic analysis");
  const Symbolic& sym = *symbolic_;
  const std::size_t n = sym.n;
  if (a.rows() != n || a.cols() != n) {
    throw NumericError("refactor matrix shape differs from the analysis");
  }

  // Scatter the new values into the frozen pattern (duplicates summed, as
  // in COO->row conversion).  The input may be a structural SUBSET of the
  // analyzed pattern — e.g. the reactive part vanishing — but never a
  // superset: a position outside the pattern would change the elimination
  // structure, which is exactly what the symbolic/numeric split forbids.
  std::fill(values_.begin(), values_.end(), T{});
  for (const auto& e : a.entries()) {
    const std::size_t r = sym.inv_perm[e.row];
    const std::size_t idx =
        find_pattern(sym.col, sym.row_start[r], sym.row_start[r + 1], e.col);
    if (idx == kNpos) {
      throw NumericError(
          str::format("entry (%zu, %zu) outside the analyzed sparsity "
                      "pattern in refactor",
                      e.row, e.col));
    }
    values_[idx] += e.value;
  }

  double max_entry = 0.0;
  for (const auto& v : values_) max_entry = std::max(max_entry, std::abs(v));
  if (max_entry == 0.0) {
    throw NumericError("sparse refactorization of the zero matrix");
  }

  // Up-looking elimination into the fixed pattern with the frozen pivot
  // order: for each row, apply the updates of every earlier pivot the row
  // touches (ascending, so the per-position operation order matches the
  // analysis), then gather back.  No searching, no allocation.
  T* const w = work_.data();
  const std::size_t* const cols = sym.col.data();
  T* const vals = values_.data();
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t rb = sym.row_start[r];
    const std::size_t re = sym.row_start[r + 1];
    const std::size_t rd = sym.diag[r];
    for (std::size_t idx = rb; idx < re; ++idx) w[cols[idx]] = vals[idx];
    for (std::size_t idx = rb; idx < rd; ++idx) {
      const std::size_t k = cols[idx];
      const T multiplier = w[k] / vals[sym.diag[k]];
      w[k] = multiplier;
      for (std::size_t j = sym.diag[k] + 1; j < sym.row_start[k + 1]; ++j) {
        w[cols[j]] -= multiplier * vals[j];
      }
    }
    if (std::abs(w[r]) <= kPivotTolerance * max_entry) {
      // The analysis-time pivot order is numerically unacceptable for
      // these values; the caller falls back to a fresh analysis.
      for (std::size_t idx = rb; idx < re; ++idx) w[cols[idx]] = T{};
      throw NumericError(str::format(
          "reused pivot order broke down at row %zu in sparse refactor", r));
    }
    for (std::size_t idx = rb; idx < re; ++idx) {
      vals[idx] = w[cols[idx]];
      w[cols[idx]] = T{};
    }
  }
}

template <typename T>
void SparseFactorization<T>::solve_into(std::span<const T> b,
                                        std::span<T> x) const {
  FTDIAG_ASSERT(symbolic_ != nullptr, "solve before symbolic analysis");
  const Symbolic& sym = *symbolic_;
  const std::size_t n = sym.n;
  FTDIAG_ASSERT(b.size() == n && x.size() == n,
                "rhs/solution size mismatch in sparse solve");
  for (std::size_t i = 0; i < n; ++i) x[i] = b[sym.perm[i]];
  // Structurally-zero prefix skip: rows of the permuted b that are zero
  // before the first nonzero stay exactly zero through forward
  // substitution (L is lower-triangular, and everything they would read
  // is part of the same zero prefix), so the loop starts at the first
  // nonzero row and the prefix is preserved verbatim.  MNA excitations
  // are a handful of source rows, so this skips most of L per solve.
  std::size_t first = 0;
  while (first < n && x[first] == T{}) ++first;
  // Forward substitution: L has unit diagonal, entries at col < row.
  for (std::size_t r = first; r < n; ++r) {
    T acc = x[r];
    for (std::size_t idx = sym.row_start[r]; idx < sym.diag[r]; ++idx) {
      acc -= values_[idx] * x[sym.col[idx]];
    }
    x[r] = acc;
  }
  // Back substitution with U (col >= row, diagonal divides last).
  for (std::size_t rr = n; rr-- > 0;) {
    T acc = x[rr];
    for (std::size_t idx = sym.diag[rr] + 1; idx < sym.row_start[rr + 1];
         ++idx) {
      acc -= values_[idx] * x[sym.col[idx]];
    }
    x[rr] = acc / values_[sym.diag[rr]];
  }
}

template <typename T>
void SparseFactorization<T>::solve_into(const Matrix<T>& b,
                                        Matrix<T>& x) const {
  FTDIAG_ASSERT(symbolic_ != nullptr, "solve before symbolic analysis");
  const Symbolic& sym = *symbolic_;
  const std::size_t n = sym.n;
  const std::size_t m = b.cols();
  FTDIAG_ASSERT(b.rows() == n, "rhs row count mismatch in sparse solve");
  if (x.rows() != n || x.cols() != m) x.reshape(n, m);

  // X = P B: row i of X is row perm[i] of B.
  for (std::size_t i = 0; i < n; ++i) {
    const T* src = b.row_data(sym.perm[i]);
    T* dst = x.row_data(i);
    for (std::size_t c = 0; c < m; ++c) dst[c] = src[c];
  }

  // Shared structurally-zero prefix of the permuted block (rows that are
  // zero in every column before the first nonzero row): forward
  // substitution leaves it exactly zero, so every panel starts below it.
  // See the single-RHS overload for the argument.
  std::size_t first = 0;
  for (; first < n; ++first) {
    const T* row = x.row_data(first);
    bool all_zero = true;
    for (std::size_t c = 0; c < m; ++c) {
      if (!(row[c] == T{})) {
        all_zero = false;
        break;
      }
    }
    if (!all_zero) break;
  }

  for (std::size_t panel = 0; panel < m; panel += kSolvePanel) {
    const std::size_t pe = std::min(m, panel + kSolvePanel);
    // Forward substitution, all panel columns in lockstep; per column the
    // source order is the single-RHS solve_into's (see the header for why
    // the results agree only to rounding).
    for (std::size_t r = first; r < n; ++r) {
      T* xr = x.row_data(r);
      for (std::size_t idx = sym.row_start[r]; idx < sym.diag[r]; ++idx) {
        const T factor = values_[idx];
        if (factor == T{}) continue;
        const T* xj = x.row_data(sym.col[idx]);
        for (std::size_t c = panel; c < pe; ++c) xr[c] -= factor * xj[c];
      }
    }
    // Back substitution with U.
    for (std::size_t rr = n; rr-- > 0;) {
      T* xr = x.row_data(rr);
      for (std::size_t idx = sym.diag[rr] + 1; idx < sym.row_start[rr + 1];
           ++idx) {
        const T factor = values_[idx];
        if (factor == T{}) continue;
        const T* xj = x.row_data(sym.col[idx]);
        for (std::size_t c = panel; c < pe; ++c) xr[c] -= factor * xj[c];
      }
      const T pivot = values_[sym.diag[rr]];
      for (std::size_t c = panel; c < pe; ++c) xr[c] /= pivot;
    }
  }
}

template <typename T>
std::vector<T> SparseFactorization<T>::solve(const std::vector<T>& b) const {
  std::vector<T> x(size());
  solve_into(b, x);
  return x;
}

template <typename T>
std::size_t SparseFactorization<T>::size() const {
  return symbolic_ ? symbolic_->n : 0;
}

template <typename T>
std::size_t SparseFactorization<T>::factor_nnz() const {
  return symbolic_ ? symbolic_->col.size() : 0;
}

template class SparseFactorization<double>;
template class SparseFactorization<std::complex<double>>;

}  // namespace ftdiag::linalg
