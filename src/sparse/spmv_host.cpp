#include "sparse/spmv_host.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace spmvm {

namespace {
template <class T>
void check_shapes(index_t n_rows, index_t n_cols, std::span<const T> x,
                  std::span<T> y) {
  SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(n_cols),
                "input vector too short");
  SPMVM_REQUIRE(y.size() >= static_cast<std::size_t>(n_rows),
                "output vector too short");
}

// All bulk arrays come out of AlignedVector (128-byte aligned storage);
// telling the compiler lets it pick aligned vector loads for the
// streaming val/col_idx accesses.
template <class T>
const T* aligned(const AlignedVector<T>& v) {
  return std::assume_aligned<kDeviceAlignment>(v.data());
}

/// One CSR row as a 4-way unrolled dot product. Four independent
/// accumulators break the FP add dependency chain; the combine order is
/// fixed, so the result is identical for every thread partition. The
/// unroll only pays off once a row is long enough for the add chain to
/// dominate; short rows (the common case on sAMG-like matrices, where
/// the x[] gathers dominate instead) take the plain loop, and on such
/// matrices the branch is perfectly predicted.
template <class T>
T csr_row_dot(const T* __restrict val, const index_t* __restrict col,
              const T* __restrict x, offset_t b, offset_t e) {
  if (e - b < 32) {
    T acc{0};
    for (offset_t k = b; k < e; ++k) acc += val[k] * x[col[k]];
    return acc;
  }
  T a0{0}, a1{0}, a2{0}, a3{0};
  offset_t k = b;
  for (; k + 4 <= e; k += 4) {
    a0 += val[k] * x[col[k]];
    a1 += val[k + 1] * x[col[k + 1]];
    a2 += val[k + 2] * x[col[k + 2]];
    a3 += val[k + 3] * x[col[k + 3]];
  }
  T acc = (a0 + a1) + (a2 + a3);
  for (; k < e; ++k) acc += val[k] * x[col[k]];
  return acc;
}

/// Sliced-ELL slices [begin, end): chunk-column-major accumulation.
/// Iterates every slice's full width — padding entries carry val = 0 and
/// col_idx = 0, so they contribute exact zeros and cost no extra memory
/// traffic (they share cache lines with the real entries either way).
/// Store == nullptr means plain overwrite, else y = beta*y + alpha*acc.
template <class T, bool Fused>
void sliced_ell_slices(const SlicedEll<T>& a, const T* __restrict x,
                       T* __restrict y, T alpha, T beta, std::size_t begin,
                       std::size_t end, std::vector<T>& acc) {
  const T* __restrict val = aligned(a.val);
  const index_t* __restrict col = aligned(a.col_idx);
  const std::size_t C = static_cast<std::size_t>(a.slice_height);
  for (std::size_t s = begin; s < end; ++s) {
    const offset_t base = a.slice_ptr[s];
    const index_t width = a.slice_width(static_cast<index_t>(s));
    for (std::size_t r = 0; r < C; ++r) acc[r] = T{0};
    for (index_t j = 0; j < width; ++j) {
      const T* __restrict v = val + base + static_cast<std::size_t>(j) * C;
      const index_t* __restrict c = col + base + static_cast<std::size_t>(j) * C;
#pragma omp simd
      for (std::size_t r = 0; r < C; ++r) acc[r] += v[r] * x[c[r]];
    }
    const std::size_t row0 = s * C;
    const std::size_t rows =
        std::min(C, static_cast<std::size_t>(a.n_rows) - row0);
    T* __restrict ys = y + row0;
    if constexpr (Fused) {
      for (std::size_t r = 0; r < rows; ++r)
        ys[r] = beta * ys[r] + alpha * acc[r];
    } else {
      for (std::size_t r = 0; r < rows; ++r) ys[r] = acc[r];
    }
  }
}
}  // namespace

template <class T>
void spmv(const Csr<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  const T* val = aligned(a.val);
  const index_t* col = aligned(a.col_idx);
  const offset_t* rp = aligned(a.row_ptr);
  parallel_for_balanced(std::span<const offset_t>(a.row_ptr), n_threads,
                        [&](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i)
                            y[i] = csr_row_dot(val, col, x.data(), rp[i],
                                               rp[i + 1]);
                        });
}

template <class T>
void spmv_axpby(const Csr<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  const T* val = aligned(a.val);
  const index_t* col = aligned(a.col_idx);
  const offset_t* rp = aligned(a.row_ptr);
  parallel_for_balanced(
      std::span<const offset_t>(a.row_ptr), n_threads,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          y[i] = beta * y[i] +
                 alpha * csr_row_dot(val, col, x.data(), rp[i], rp[i + 1]);
      });
}

template <class T>
void spmv_ellpack(const Ellpack<T>& a, std::span<const T> x, std::span<T> y,
                  int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  const auto rows = static_cast<std::size_t>(a.padded_rows);
  const T* __restrict val = aligned(a.val);
  const index_t* __restrict col = aligned(a.col_idx);
  parallel_for(static_cast<std::size_t>(a.n_rows), n_threads,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   T acc{0};
                   // Plain ELLPACK: iterate the full width, fill included.
                   for (index_t j = 0; j < a.width; ++j) {
                     const std::size_t k =
                         static_cast<std::size_t>(j) * rows + i;
                     acc += val[k] * x[static_cast<std::size_t>(col[k])];
                   }
                   y[i] = acc;
                 }
               });
}

template <class T>
void spmv_ellpack_r(const Ellpack<T>& a, std::span<const T> x, std::span<T> y,
                    int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  const auto rows = static_cast<std::size_t>(a.padded_rows);
  const T* __restrict val = aligned(a.val);
  const index_t* __restrict col = aligned(a.col_idx);
  parallel_for(static_cast<std::size_t>(a.n_rows), n_threads,
               [&](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) {
                   T acc{0};
                   const index_t len = a.row_len[i];
                   for (index_t j = 0; j < len; ++j) {
                     const std::size_t k =
                         static_cast<std::size_t>(j) * rows + i;
                     acc += val[k] * x[static_cast<std::size_t>(col[k])];
                   }
                   y[i] = acc;
                 }
               });
}

template <class T>
void spmv(const Jds<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  // Diagonal-major loop order within each thread's row range: long inner
  // loops over consecutive rows, the traversal JDS was designed for on
  // vector machines. Every row still sums its diagonals in ascending
  // order, so the result does not depend on the thread count.
  parallel_for(static_cast<std::size_t>(a.n_rows), n_threads,
               [&](std::size_t begin, std::size_t end) {
                 const auto rb = static_cast<index_t>(begin);
                 const auto re = static_cast<index_t>(end);
                 for (index_t i = rb; i < re; ++i)
                   y[static_cast<std::size_t>(i)] = T{0};
                 for (index_t j = 0; j < a.width; ++j) {
                   const index_t L = a.diag_len(j);
                   if (L <= rb) break;  // diagonals only shrink
                   const offset_t base = a.jd_ptr[static_cast<std::size_t>(j)];
                   const index_t e = std::min(re, L);
                   for (index_t i = rb; i < e; ++i) {
                     const std::size_t k = static_cast<std::size_t>(base + i);
                     y[static_cast<std::size_t>(i)] +=
                         a.val[k] * x[static_cast<std::size_t>(a.col_idx[k])];
                   }
                 }
               });
}

template <class T>
void spmv(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
          int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  parallel_for_balanced(
      std::span<const offset_t>(a.slice_ptr), n_threads,
      [&](std::size_t begin, std::size_t end) {
        std::vector<T> acc(static_cast<std::size_t>(a.slice_height));
        sliced_ell_slices<T, false>(a, x.data(), y.data(), T{1}, T{0}, begin,
                                    end, acc);
      });
}

template <class T>
void spmv_axpby(const SlicedEll<T>& a, std::span<const T> x, std::span<T> y,
                T alpha, T beta, int n_threads) {
  check_shapes(a.n_rows, a.n_cols, x, y);
  parallel_for_balanced(
      std::span<const offset_t>(a.slice_ptr), n_threads,
      [&](std::size_t begin, std::size_t end) {
        std::vector<T> acc(static_cast<std::size_t>(a.slice_height));
        sliced_ell_slices<T, true>(a, x.data(), y.data(), alpha, beta, begin,
                                   end, acc);
      });
}

#define SPMVM_INSTANTIATE_HOST_KERNELS(T)                                   \
  template void spmv(const Csr<T>&, std::span<const T>, std::span<T>, int); \
  template void spmv_axpby(const Csr<T>&, std::span<const T>, std::span<T>, \
                           T, T, int);                                      \
  template void spmv_ellpack(const Ellpack<T>&, std::span<const T>,         \
                             std::span<T>, int);                            \
  template void spmv_ellpack_r(const Ellpack<T>&, std::span<const T>,       \
                               std::span<T>, int);                          \
  template void spmv(const Jds<T>&, std::span<const T>, std::span<T>, int); \
  template void spmv(const SlicedEll<T>&, std::span<const T>, std::span<T>, \
                     int);                                                  \
  template void spmv_axpby(const SlicedEll<T>&, std::span<const T>,         \
                           std::span<T>, T, T, int)

SPMVM_INSTANTIATE_HOST_KERNELS(float);
SPMVM_INSTANTIATE_HOST_KERNELS(double);

}  // namespace spmvm
