// The sanctioned raw-kernel entry points (DESIGN.md §13).
//
// After the exec refactor, no code outside src/exec names the host
// kernel entry points or the device runtime directly; layers that need
// a bare product without a full Backend bind — the distributed
// local/non-local products, the solver's plan operator — go through
// these inline wrappers. They add nothing on top of the plan's entry
// points (which carry the one kernel probe, formats/format_plan.hpp);
// their value is that the kernel-dispatch surface greps to exactly one
// directory.
#pragma once

#include <span>

#include "formats/format_plan.hpp"

namespace spmvm::exec {

/// y = A·x in the plan's own basis (see formats::FormatPlan).
template <class T>
inline void plan_spmv(const formats::FormatPlan<T>& plan,
                      std::span<const T> x, std::span<T> y,
                      int n_threads = 1) {
  plan.spmv(x, y, n_threads);
}

/// Fused plan update; returns false (y untouched) when the format has
/// no native kernel — callers fall back to plan_spmv + a BLAS-1 pass.
template <class T>
inline bool plan_spmv_axpby(const formats::FormatPlan<T>& plan,
                            std::span<const T> x, std::span<T> y, T alpha,
                            T beta, int n_threads = 1) {
  return plan.spmv_axpby(x, y, alpha, beta, n_threads);
}

}  // namespace spmvm::exec
