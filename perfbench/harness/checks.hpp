// Output checks of the benchmark, computed with plain loops over the CSR
// arrays so they share no kernel code with the library under test.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace perfbench {

/// Relative tolerance of a served product: every entry must satisfy
/// |y_i − ref_i| <= kResponseTol · Σ_j |a_ij·x_j|. The bound sits far
/// above the rounding error of any summation order (≈ N_nzr · 1.1e-16)
/// and far below any wrong product, so a kernel that reorders its sums
/// still passes while a changed value fails.
inline constexpr double kResponseTol = 1e-12;

/// A solve passes when it reports convergence and its true residual
/// ‖b − A·x‖/‖b‖ is within this factor of the requested tolerance (the
/// recursive CG residual drifts slightly from the true one).
inline constexpr double kResidualSlack = 10.0;

/// Reference y = A·x in long double, plus the per-row magnitude
/// Σ_j |a_ij·x_j| that scales the tolerance.
struct Reference {
  std::vector<double> y;
  std::vector<double> mag;
};

inline Reference reference_product(const spmvm::Csr<double>& a,
                                   std::span<const double> x) {
  const auto n = static_cast<std::size_t>(a.n_rows);
  Reference ref;
  ref.y.resize(n);
  ref.mag.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    long double acc = 0.0L, mag = 0.0L;
    for (auto k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const long double term =
          static_cast<long double>(a.val[static_cast<std::size_t>(k)]) *
          x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
      acc += term;
      mag += std::fabs(term);
    }
    ref.y[i] = static_cast<double>(acc);
    ref.mag[i] = static_cast<double>(mag);
  }
  return ref;
}

/// Whether a served y matches its reference within kResponseTol.
inline bool response_matches(std::span<const double> y, const Reference& ref,
                             double tol = kResponseTol) {
  if (y.size() != ref.y.size()) return false;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double err = std::fabs(y[i] - ref.y[i]);
    if (!(err <= tol * ref.mag[i])) return false;  // also rejects NaN
  }
  return true;
}

/// True relative residual ‖b − A·x‖₂ / ‖b‖₂ (long-double accumulation).
inline double true_relative_residual(const spmvm::Csr<double>& a,
                                     std::span<const double> b,
                                     std::span<const double> x) {
  long double rr = 0.0L, bb = 0.0L;
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.n_rows); ++i) {
    long double ax = 0.0L;
    for (auto k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k)
      ax += static_cast<long double>(a.val[static_cast<std::size_t>(k)]) *
            x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
    const long double r = b[i] - ax;
    rr += r * r;
    bb += static_cast<long double>(b[i]) * b[i];
  }
  return bb > 0.0L ? static_cast<double>(std::sqrt(rr / bb))
                   : static_cast<double>(std::sqrt(rr));
}

/// Whether a solve met its tolerance, judged on the true residual.
inline bool solve_passes(bool converged, double true_residual, double tol) {
  return converged && true_residual <= kResidualSlack * tol;
}

}  // namespace perfbench
