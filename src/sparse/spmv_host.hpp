// Host (CPU) spMVM kernels for every storage format.
//
// These are the reference implementations: the GPU simulator executes the
// same data structures, and every test cross-checks formats against the
// CSR kernel. Basis convention for row-sorted formats (JDS, sliced-ELL,
// and pJDS in core/): the kernel produces the *permuted* result vector
// y_perm; when the format was built with PermuteColumns::yes the input
// vector must be in the permuted basis as well.
#pragma once

#include <span>

#include "sparse/csr.hpp"
#include "sparse/ellpack.hpp"
#include "sparse/jds.hpp"
#include "sparse/sliced_ell.hpp"

namespace spmvm {

/// y = A·x (CSR). `n_threads` > 1 splits rows across threads.
template <class T>
void spmv(const Csr<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1);

/// y = β·y + α·A·x (CSR) — the solver building block.
template <class T>
void spmv_axpby(const Csr<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads = 1);

/// y = A·x with the plain ELLPACK kernel: every thread iterates the full
/// width including zero fill (Fig. 2a).
template <class T>
void spmv_ellpack(const Ellpack<T>& a, std::span<const T> x, std::span<T> y,
                  int n_threads = 1);

/// y = A·x with the ELLPACK-R kernel (Listing 1): rows stop at rowmax[i].
template <class T>
void spmv_ellpack_r(const Ellpack<T>& a, std::span<const T> x, std::span<T> y,
                    int n_threads = 1);

/// y_perm = A_perm·x — classic JDS, iterating diagonal-by-diagonal (the
/// vector-computer loop order) within each thread's block of rows.
template <class T>
void spmv(const Jds<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1);

/// y_perm = A_perm·x — sliced ELLPACK, slice-by-slice. The inner loop
/// runs chunk-column-major across the C (slice height) dimension — the
/// SELL-C-σ loop order for wide-SIMD CPUs.
template <class T>
void spmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads = 1);

/// y_perm = β·y_perm + α·A_perm·x — fused sliced-ELLPACK update, so
/// solvers in the permuted basis need no separate BLAS-1 pass.
template <class T>
void spmv_axpby(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads = 1);

#define SPMVM_EXTERN_HOST_KERNELS(T)                                        \
  extern template void spmv(const Csr<T>&, std::span<const T>,              \
                            std::span<T>, int);                             \
  extern template void spmv_axpby(const Csr<T>&, std::span<const T>,        \
                                  std::span<T>, T, T, int);                 \
  extern template void spmv_ellpack(const Ellpack<T>&, std::span<const T>,  \
                                    std::span<T>, int);                     \
  extern template void spmv_ellpack_r(const Ellpack<T>&, std::span<const T>,\
                                      std::span<T>, int);                   \
  extern template void spmv(const Jds<T>&, std::span<const T>,              \
                            std::span<T>, int);                             \
  extern template void spmv(const SlicedEll<T>&, std::span<const T>,        \
                            std::span<T>, int);                             \
  extern template void spmv_axpby(const SlicedEll<T>&, std::span<const T>,  \
                                  std::span<T>, T, T, int)

SPMVM_EXTERN_HOST_KERNELS(float);
SPMVM_EXTERN_HOST_KERNELS(double);
#undef SPMVM_EXTERN_HOST_KERNELS

}  // namespace spmvm
