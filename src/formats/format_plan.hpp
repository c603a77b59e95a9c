// The format engine's type-erased plan interface.
//
// A FormatPlan owns one matrix in one storage format and exposes the
// operations every consumer needs — host kernels, footprint accounting,
// the row-permutation handle, CSR recovery, and the gpusim kernel hook —
// behind a uniform interface. Consumers (solver Operator, the
// distributed kernels, the benches) hold plans and never name concrete
// formats; the FormatRegistry (registry.hpp) is the only place formats
// are enumerated.
//
// The products (spmv, spmv_axpby, spmmv) are non-virtual entry points:
// each checks shapes, opens the one kernel probe of the code base
// (detail::KernelProbe — trace span, kernel.* counters, host-lane ledger
// record) and calls the format's protected do_* hook. Every product of
// every backend, the distributed local/non-local parts and the serving
// layer's block launches all pass here, so each call is recorded once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_sim.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "sparse/csr.hpp"
#include "sparse/footprint.hpp"
#include "sparse/permutation.hpp"
#include "util/error.hpp"

namespace spmvm::formats {

/// Static capabilities of one registered format. Returned by
/// FormatRegistry::list() and FormatPlan::info().
struct FormatInfo {
  const char* name = "";
  const char* description = "";
  bool sorts_rows = false;   // may produce a non-identity row permutation
  bool native_axpby = false; // fused y = β·y + α·A·x kernel available
  bool has_sim_kernel = false;  // gpusim hook (FormatPlan::simulate)
  bool native_spmmv = false;    // fused block-RHS kernel (FormatPlan::spmmv)
  /// Trace span of this format's products, "kernel/<name>" (static
  /// storage); FormatRegistry::register_format fills it in.
  const char* kernel_span = "kernel";
};

/// Build-time knobs shared by every format. Formats read the fields that
/// apply to them (chunk = br / C / row_chunk) and ignore the rest, so one
/// options struct can configure any registry entry.
struct PlanOptions {
  /// Warp-granularity parameter: pJDS block_rows, sliced-ELL slice
  /// height C, ELLPACK row chunk, BELLPACK block-row chunk.
  index_t chunk = 32;
  /// σ for sell_c_sigma (0 = format default of 8·chunk). sliced_ell
  /// always uses σ = 1.
  index_t sort_window = 0;
  /// BELLPACK tile shape.
  index_t block_r = 4;
  index_t block_c = 4;
  /// Relabel columns with the row permutation (symmetric permutation) in
  /// row-sorting formats so solvers can iterate entirely in the permuted
  /// basis. Automatically demoted to `no` for non-square matrices.
  PermuteColumns permute_columns = PermuteColumns::yes;

  // ---- `auto` plan only ----
  /// Confirm the Eq. 1 ranking with a measured probe of the top
  /// candidates. With probe = false selection is purely model-driven and
  /// bit-deterministic (used by tests).
  bool probe = true;
  /// How many of the model-ranked candidates to probe (<= 0: all).
  int probe_candidates = 2;
  double probe_min_seconds = 0.002;
  int probe_reps = 3;
  int probe_threads = 1;
};

struct AutoCandidate {
  std::string name;
  double balance = 0.0;         // Eq. 1 bytes/flop at measured α
  double probe_seconds = -1.0;  // min-of-reps host probe; -1 = not probed
};

/// Selection record of the `auto` plan (auto_select.hpp).
struct AutoChoice {
  std::string chosen;
  double alpha_measured = 0.0;          // α from the simulator's L2 model
  std::vector<AutoCandidate> candidates;  // registry order
  /// Index of `chosen` within `candidates`.
  std::size_t chosen_index = 0;
  /// Index of the best candidate by model balance alone.
  std::size_t model_index = 0;
};

namespace detail {

enum class KernelOp : std::uint8_t { spmv, spmv_axpby, spmmv };

/// The single instrumentation point of every kernel call (DESIGN.md §7,
/// §12): a `kernel/<name>` span carrying the call's bytes (block
/// launches add arg k, fused updates arg axpby = 1), the always-on
/// kernel.calls / kernel.nnz / kernel.bytes counters, and a host-lane
/// ledger record under the format's registry name. `bytes` is the
/// call's Eq. 1 traffic — stored footprint plus k RHS reads and k LHS
/// writes — and flops are 2·k·nnz; α is recorded at its ideal
/// 1/N_nzr, since the RHS stream is counted exactly once.
class KernelProbe {
 public:
  KernelProbe(const FormatInfo& info, KernelOp op, int k, offset_t nnz,
              std::uint64_t bytes, index_t n_rows);
  KernelProbe(const KernelProbe&) = delete;
  KernelProbe& operator=(const KernelProbe&) = delete;

 private:
  obs::SpanGuard span_;
  obs::LedgerScope ledger_;
};

}  // namespace detail

/// One matrix held in one storage format. Basis convention: when
/// permutation() is non-null the plan's kernels work in the permuted
/// basis — spmv computes y_perm = A_perm·x(_perm) exactly like the
/// underlying format kernels (the host-kernel layer in src/sparse). Callers that
/// need the original basis carry vectors across with the handle.
template <class T>
class FormatPlan {
 public:
  virtual ~FormatPlan() = default;

  virtual const FormatInfo& info() const = 0;
  virtual index_t n_rows() const = 0;
  virtual index_t n_cols() const = 0;
  virtual offset_t nnz() const = 0;

  /// Stored entries / zero fill / aux-array accounting.
  virtual Footprint footprint() const = 0;

  /// Recover the original matrix (fill dropped, permutations undone).
  virtual Csr<T> to_csr() const = 0;

  /// y = A·x (permuted basis when permutation() != nullptr).
  void spmv(std::span<const T> x, std::span<T> y, int n_threads = 1) const {
    check_block(x, y, 1);
    const detail::KernelProbe probe(info(), detail::KernelOp::spmv, 1,
                                    nnz(), call_bytes(1), n_rows());
    do_spmv(x, y, n_threads);
  }

  /// Fused y = β·y + α·A·x when the format has a native kernel
  /// (info().native_axpby); returns false (leaving y untouched, nothing
  /// recorded) when it does not — callers fall back to spmv + a BLAS-1
  /// pass.
  bool spmv_axpby(std::span<const T> x, std::span<T> y, T alpha, T beta,
                  int n_threads = 1) const {
    check_block(x, y, 1);
    if (!info().native_axpby) return false;
    const detail::KernelProbe probe(info(), detail::KernelOp::spmv_axpby, 1,
                                    nnz(), call_bytes(1), n_rows());
    do_spmv_axpby(x, y, alpha, beta, n_threads);
    return true;
  }

  /// Block-RHS product Y = A·X for k row-major interleaved vectors
  /// (x[i*k + v], y[i*k + v], the core/spmmv layout). Formats with a
  /// fused block kernel (info().native_spmmv) amortize the matrix stream
  /// over the k vectors; the rest run k single-vector kernels,
  /// bit-identical to issuing the vectors one by one. Either way the
  /// launch is one recorded call.
  void spmmv(std::span<const T> x, std::span<T> y, int k,
             int n_threads = 1) const {
    check_block(x, y, k);
    const detail::KernelProbe probe(info(), detail::KernelOp::spmmv, k,
                                    nnz(), call_bytes(k), n_rows());
    do_spmmv(x, y, k, n_threads);
  }

  /// Row permutation of the stored matrix; nullptr = identity (kernels
  /// work in the original basis).
  virtual const Permutation* permutation() const { return nullptr; }

  /// Whether columns were relabeled with the row permutation (symmetric
  /// permutation); only meaningful when permutation() != nullptr.
  virtual bool columns_permuted() const { return false; }

  /// Simulate one spMVM of this plan's kernel on `dev`; nullopt when the
  /// format has no simulated kernel (info().has_sim_kernel == false).
  virtual std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& /*dev*/,
      const gpusim::SimOptions& /*opt*/ = {}) const {
    return std::nullopt;
  }

  /// Selection record when this is the `auto` plan; nullptr otherwise.
  virtual const AutoChoice* auto_choice() const { return nullptr; }

 protected:
  /// The format's kernels, called with checked shapes. do_spmv_axpby is
  /// reached only when info().native_axpby; the default do_spmmv
  /// de-interleaves into k do_spmv calls.
  virtual void do_spmv(std::span<const T> x, std::span<T> y,
                       int n_threads) const = 0;
  virtual void do_spmv_axpby(std::span<const T> /*x*/, std::span<T> /*y*/,
                             T /*alpha*/, T /*beta*/,
                             int /*n_threads*/) const {
    throw Error(std::string("format '") + info().name +
                "' has no fused axpby kernel");
  }
  virtual void do_spmmv(std::span<const T> x, std::span<T> y, int k,
                        int n_threads) const {
    const auto cols = static_cast<std::size_t>(n_cols());
    const auto rows = static_cast<std::size_t>(n_rows());
    const auto kk = static_cast<std::size_t>(k);
    std::vector<T> xv(cols), yv(rows);
    for (std::size_t v = 0; v < kk; ++v) {
      for (std::size_t i = 0; i < cols; ++i) xv[i] = x[i * kk + v];
      do_spmv(std::span<const T>(xv), std::span<T>(yv), n_threads);
      for (std::size_t i = 0; i < rows; ++i) y[i * kk + v] = yv[i];
    }
  }

  /// Hook access for plans that delegate to another plan (the `auto`
  /// wrapper): run `p`'s kernel without a second probe.
  static void delegate_spmv(const FormatPlan& p, std::span<const T> x,
                            std::span<T> y, int n_threads) {
    p.do_spmv(x, y, n_threads);
  }
  static void delegate_spmmv(const FormatPlan& p, std::span<const T> x,
                             std::span<T> y, int k, int n_threads) {
    p.do_spmmv(x, y, k, n_threads);
  }

 private:
  /// The k-interleaved stride contract: both the block width and the
  /// span sizes must hold before any i*k indexing happens.
  void check_block(std::span<const T> x, std::span<T> y, int k) const {
    SPMVM_REQUIRE(k >= 1, "spMMV block width k must be >= 1");
    const auto kk = static_cast<std::size_t>(k);
    SPMVM_REQUIRE(x.size() >= static_cast<std::size_t>(n_cols()) * kk,
                  "input vector too short");
    SPMVM_REQUIRE(y.size() >= static_cast<std::size_t>(n_rows()) * kk,
                  "output vector too short");
  }

  /// Eq. 1 bytes of one k-wide call: the stored image streams once, the
  /// RHS read and LHS write scale with k.
  std::uint64_t call_bytes(int k) const {
    return static_cast<std::uint64_t>(footprint().total_bytes(sizeof(T))) +
           static_cast<std::uint64_t>(k) *
               (static_cast<std::uint64_t>(n_rows()) +
                static_cast<std::uint64_t>(n_cols())) *
               sizeof(T);
  }
};

}  // namespace spmvm::formats
