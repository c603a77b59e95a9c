// dist_cg: a closed loop of dist::dist_cg solves to 1e-8 over
// msg::Runtime with 2 ranks in task mode (2 rank threads + 2 comm
// threads) on a seeded 3D Poisson matrix, interleaved with a serial
// solver::cg of the same matrix.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "dist/comm_plan.hpp"
#include "dist/dist_matrix.hpp"
#include "dist/dist_solver.hpp"
#include "dist/partition.hpp"
#include "exec/dispatch.hpp"
#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "harness/checks.hpp"
#include "harness/workloads.hpp"
#include "msg/runtime.hpp"
#include "solver/cg.hpp"
#include "solver/kernels.hpp"

namespace perfbench {
namespace {

// 64^3 = 262,144 rows, ~131k per rank. At 40^3 the solve time was
// bimodal (0.06 s or 0.10 s from run to run) on a 4-vCPU virtual
// machine: each handoff waited on a vCPU wake-up whose latency depends on
// what else runs there. At this size both cases agree within ~5%.
constexpr int kGrid = 64;
constexpr int kRanks = 2;
constexpr double kTol = 1e-8;
constexpr int kMaxIter = 5000;
constexpr int kProbeCalls = 600;  // per side measurement and rank: p99 of 1200

using DistM = spmvm::dist::DistMatrix<double>;

/// One solve's outcome. `iter` holds the time from each operator apply
/// to the next (one CG iteration), for the serial solves only: dist_cg
/// runs its operator internally.
struct Solve {
  double seconds = 0.0;
  int iterations = 0;
  bool passed = false;
  std::vector<double> iter;
};

/// Per-rank samples of the side measurements, seconds per call.
struct RankProbe {
  std::vector<double> spmv, kernel, allreduce, barrier, blas1;
};

class DistHarness {
 public:
  DistHarness(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {}
  void run();

 private:
  Solve dist_solve();
  Solve serial_solve(spmvm::exec::BoundSpmv<double>& bound);
  void probe_layers(RankProbe (&probe)[kRanks]);
  bool check(const std::vector<double>& x, bool converged, int iterations, const char* who);

  const Options& opt_;
  Report& rep_;
  spmvm::Csr<double> a_;
  std::vector<double> b_;
  std::vector<DistM> d_;
};

bool DistHarness::check(const std::vector<double>& x, bool converged, int iterations,
                        const char* who) {
  const double res = true_relative_residual(a_, b_, x);
  if (solve_passes(converged, res, kTol)) return true;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: converged=%d after %d iterations, true residual %.3g",
                who, static_cast<int>(converged), iterations, res);
  rep_.fail_check(buf);
  return false;
}

Solve DistHarness::dist_solve() {
  std::vector<double> x(b_.size(), 0.0);
  Solve out;
  bool converged = false;
  spmvm::msg::Runtime::run(kRanks, [&](spmvm::msg::Comm& c) {
    const DistM& d = d_[static_cast<std::size_t>(c.rank())];
    const auto lo = static_cast<std::size_t>(d.partition.begin(c.rank()));
    const auto n = static_cast<std::size_t>(d.n_local);
    std::span<const double> b(b_.data() + lo, n);
    std::span<double> xl(x.data() + lo, n);
    c.barrier();
    const auto t0 = Clock::now();
    const auto r = spmvm::dist::dist_cg<double>(c, d, b, xl, kTol, kMaxIter,
                                                spmvm::dist::CommScheme::task_mode);
    c.barrier();  // the solve ends when the slower rank is done
    const auto t1 = Clock::now();
    if (c.rank() == 0) {
      out.seconds = seconds_between(t0, t1);
      out.iterations = r.iterations;
      converged = r.converged;
    }
  });
  out.passed = check(x, converged, out.iterations, "dist_cg");
  return out;
}

Solve DistHarness::serial_solve(spmvm::exec::BoundSpmv<double>& bound) {
  Solve out;
  Clock::time_point last_apply{};
  spmvm::solver::Operator<double> op(
      a_.n_rows,
      [&](std::span<const double> x, std::span<double> y) {
        const auto t0 = Clock::now();  // each apply starts one iteration
        if (last_apply != Clock::time_point{}) out.iter.push_back(seconds_between(last_apply, t0));
        last_apply = t0;
        bound.apply(x, y);
      },
      [&](std::span<const double> x, std::span<double> y, double alpha, double beta) {
        bound.apply_axpby(x, y, alpha, beta);
      });
  std::vector<double> x(b_.size(), 0.0);
  const auto t0 = Clock::now();
  const auto r = spmvm::solver::cg<double>(op, std::span<const double>(b_),
                                           std::span<double>(x), kTol, kMaxIter);
  out.seconds = seconds_between(t0, Clock::now());
  out.iterations = r.iterations;
  out.passed = check(x, r.converged, r.iterations, "serial cg");
  return out;
}

/// Time the layers dist_cg drives, from outside and with the same plan
/// and matrix: CommPlan::spmv, allreduce_sum, barrier, the rank's local
/// and non-local products with no exchange, and the rank's BLAS-1.
void DistHarness::probe_layers(RankProbe (&probe)[kRanks]) {
  spmvm::msg::Runtime::run(kRanks, [&](spmvm::msg::Comm& c) {
    const DistM& d = d_[static_cast<std::size_t>(c.rank())];
    RankProbe& p = probe[c.rank()];
    const auto n = static_cast<std::size_t>(d.n_local);
    std::vector<double> x = seeded_vector(n, opt_.seed + 11 + static_cast<std::uint64_t>(c.rank()));
    std::vector<double> y(n), halo(static_cast<std::size_t>(d.n_halo), 0.5), tmp(n);
    const auto time_call = [](std::vector<double>& into, auto&& call) {
      const auto t0 = Clock::now();
      call();
      into.push_back(seconds_between(t0, Clock::now()));
    };
    {
      spmvm::dist::CommPlan<double> plan(c, d, spmvm::dist::CommScheme::task_mode);
      for (int i = 0; i < 20; ++i) plan.spmv(x, y);
      c.barrier();
      for (int i = 0; i < kProbeCalls; ++i)
        time_call(p.spmv, [&] { plan.spmv(x, y); });
      c.barrier();
    }
    for (int i = 0; i < kProbeCalls; ++i)
      time_call(p.allreduce, [&] { (void)c.allreduce_sum(1.0); });
    for (int i = 0; i < kProbeCalls; ++i)
      time_call(p.barrier, [&] { c.barrier(); });
    for (int i = 0; i < kProbeCalls; ++i)
      time_call(p.kernel, [&] {
        spmvm::exec::plan_spmv(*d.local_plan, std::span<const double>(x), std::span<double>(y));
        if (d.n_halo == 0) return;
        if (!spmvm::exec::plan_spmv_axpby(*d.nonlocal_plan, std::span<const double>(halo),
                                          std::span<double>(y), 1.0, 1.0)) {
          spmvm::exec::plan_spmv(*d.nonlocal_plan, std::span<const double>(halo),
                                 std::span<double>(tmp));
          for (std::size_t i2 = 0; i2 < n; ++i2) y[i2] += tmp[i2];
        }
      });
    std::vector<double> q(n, 0.5), r(n, 0.25);
    double sink = 0.0;
    for (int i = 0; i < kProbeCalls / 4; ++i)
      time_call(p.blas1, [&] {
        sink += spmvm::solver::dot<double>(x, q);
        spmvm::solver::axpy<double>(1e-3, x, std::span<double>(q));
        spmvm::solver::axpy<double>(-1e-3, q, std::span<double>(r));
        sink += spmvm::solver::dot<double>(r, r);
        spmvm::solver::xpay<double>(r, 0.5, std::span<double>(x));
      });
    if (sink == 0.0) p.blas1.clear();
  });
}

void DistHarness::run() {
  a_ = seeded_poisson3d(kGrid, opt_.seed);
  b_ = seeded_vector(static_cast<std::size_t>(a_.n_rows), opt_.seed * 31 + 7);

  // setup_s: partitioning and distribute() for both ranks, repeated.
  std::vector<double> setup;
  for (int rep = 0; rep < 25; ++rep) {
    d_.clear();
    const auto t0 = Clock::now();
    const auto part = spmvm::dist::partition_balanced_nnz(a_, kRanks);
    for (int r = 0; r < kRanks; ++r) d_.push_back(spmvm::dist::distribute(a_, part, r));
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  rep_.line("dist_cg: " + std::to_string(a_.n_rows) + " rows, " + std::to_string(a_.nnz()) +
            " nnz, 2 ranks in task mode, halo " + std::to_string(d_[0].n_halo) +
            " entries on rank 0, tol 1e-8");

  spmvm::exec::Engine<double> engine;
  const auto serial = engine.bind("host", a_, "csr");

  std::pair<double, double> roof{0.0, 0.0};
  if (opt_.trace) roof = measure_host_roof(rep_);
  const auto start = Clock::now();
  (void)dist_solve();  // warm-up
  // Rounds of two distributed solves and one serial one (whose
  // iterations are timed one by one), until a further round would
  // overrun --seconds.
  std::vector<Solve> dist, ser;
  double round = 0.0;
  do {
    const auto t0 = Clock::now();
    dist.push_back(dist_solve());
    ser.push_back(serial_solve(*serial));
    dist.push_back(dist_solve());
    round = seconds_between(t0, Clock::now());
  } while (seconds_between(start, Clock::now()) + round <= opt_.seconds);
  std::size_t failed = 0;
  for (const auto* v : {&dist, &ser})
    for (const Solve& s : *v) failed += s.passed ? 0 : 1;
  rep_.count(dist.size() + ser.size(), failed);

  const auto secs = [](const std::vector<Solve>& v) {
    std::vector<double> t;
    for (const Solve& s : v) t.push_back(s.seconds);
    return Sample(t);
  };
  const auto iter = [](const std::vector<Solve>& v) {
    std::vector<double> t;
    for (const Solve& s : v) t.insert(t.end(), s.iter.begin(), s.iter.end());
    return Sample(std::move(t));
  };
  const auto iterations = [](const std::vector<Solve>& v) {
    std::vector<double> n;
    for (const Solve& s : v) n.push_back(s.iterations);
    return median_of(n);
  };
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "solves: %zu distributed (median %.5f s), %zu serial (median %.5f s, "
                "median iteration %.4f ms), %.0f iterations",
                dist.size(), secs(dist).median(), ser.size(), secs(ser).median(),
                iter(ser).median() * 1e3, iterations(dist));
  rep_.line(buf);

  if (!opt_.trace) {
    std::vector<double> rate;
    for (const Solve& s : dist) rate.push_back(s.iterations / s.seconds);
    rep_.add("setup_s", median_of(setup), "s");
    rep_.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep_.add("op_p50_ms", secs(dist).median() * 1e3, "ms", "solve_s, 2 ranks");
    rep_.add("base_p50_ms", iterations(ser) * iter(ser).median() * 1e3, "ms",
             "solve_1t_s: iterations x median iteration, serial cg");
    rep_.add("capacity_per_s", median_of(rate), "1/s", "CG iterations per second, 2 ranks");
    return;
  }

  RankProbe probe[kRanks];
  probe_layers(probe);
  std::vector<double> spmv, kernel, allreduce, barrier, kernel_p50;
  double blas1 = 0.0;
  for (const RankProbe& p : probe) {
    spmv.insert(spmv.end(), p.spmv.begin(), p.spmv.end());
    kernel.insert(kernel.end(), p.kernel.begin(), p.kernel.end());
    allreduce.insert(allreduce.end(), p.allreduce.begin(), p.allreduce.end());
    barrier.insert(barrier.end(), p.barrier.begin(), p.barrier.end());
    kernel_p50.push_back(median_of(p.kernel));
    blas1 = std::max(blas1, median_of(p.blas1));
  }
  const Sample s_spmv(spmv), s_kernel(kernel), s_ar(allreduce), s_bar(barrier);
  double halo_bytes = 0.0, fp_bytes = 0.0, stored = 0.0, nnz = 0.0;
  int peers = 0;
  for (const DistM& d : d_) {
    halo_bytes += static_cast<double>(d.send_total()) * sizeof(double);
    peers = std::max(peers, d.n_peers());
    for (const auto* plan : {d.local_plan.get(), d.nonlocal_plan.get()}) {
      const spmvm::Footprint fp = plan->footprint();
      fp_bytes += static_cast<double>(fp.total_bytes(sizeof(double)));
      stored += static_cast<double>(fp.stored_entries);
      nnz += static_cast<double>(fp.true_nnz);
    }
  }
  const double kmax = *std::max_element(kernel_p50.begin(), kernel_p50.end());
  const double kmean = (kernel_p50[0] + kernel_p50[1]) / kRanks;
  const DistM& d0 = d_[0];
  const double rank0_bytes =
      static_cast<double>(d0.local_plan->footprint().total_bytes(sizeof(double)) +
                          d0.nonlocal_plan->footprint().total_bytes(sizeof(double))) +
      static_cast<double>(2 * d0.n_local + d0.n_halo) * sizeof(double);
  const double gbs = rank0_bytes / kernel_p50[0] / 1e9;

  // Serial whole-matrix product, the baseline of the kernel speedup.
  std::vector<double> xs(b_.size(), 1.0), ys(b_.size()), serial_t;
  for (int i = 0; i < kProbeCalls / 4; ++i) {
    const auto t0 = Clock::now();
    serial->apply(xs, ys);
    serial_t.push_back(seconds_between(t0, Clock::now()));
  }

  // formats.build_s: rebuilding both ranks' csr plans on copies.
  std::vector<double> build;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<DistM> copies = d_;
    const auto t0 = Clock::now();
    for (DistM& d : copies) d.build_plans(spmvm::formats::registry<double>(), "csr");
    build.push_back(seconds_between(t0, Clock::now()));
  }

  const double it = iterations(dist);
  const double per_iter = secs(dist).median() / it;
  const double covered = s_spmv.median() + 2.0 * s_ar.median() + blas1;

  rep_.add_quantile("dist.spmv_us.p50", s_spmv, 0.5, "us", 1e6);
  rep_.add_quantile("dist.spmv_us.p99", s_spmv, 0.99, "us", 1e6);
  rep_.add_quantile("dist.kernel_us.p50", s_kernel, 0.5, "us", 1e6);
  rep_.add("dist.exchange_us.p50", (s_spmv.median() - s_kernel.median()) * 1e6, "us",
           "spmv − kernel");
  rep_.add("dist.rank_skew", kmax / kmean, "ratio", "slowest rank kernel / mean");
  rep_.add("dist.halo_bytes_per_iter", halo_bytes, "B");
  rep_.add("dist.peers_max", peers, "count");
  rep_.add_quantile("msg.allreduce_us.p50", s_ar, 0.5, "us", 1e6);
  rep_.add_quantile("msg.allreduce_us.p99", s_ar, 0.99, "us", 1e6);
  rep_.add_quantile("msg.barrier_us.p50", s_bar, 0.5, "us", 1e6);
  rep_.add("exec.apply_calls", it + 1.0, "count", "local+non-local products per solve");
  rep_.add("exec.apply_ms.p50", s_kernel.median() * 1e3, "ms");
  rep_.add("exec.apply_share", it * s_kernel.median() / secs(dist).median(), "frac",
           "iterations × kernel / solve");
  rep_.add("exec.apply_gbs", gbs, "GB/s", "rank 0, computed from FormatPlan::footprint()");
  rep_.add("exec.roof_frac", gbs / roof.first, "frac", "vs the 1-thread triad: 1 thread per rank");
  rep_.add("exec.thread_speedup", median_of(serial_t) / kmax, "ratio",
           "serial product / slowest rank's kernel");
  rep_.add("formats.build_s", median_of(build), "s", "csr plans of both ranks");
  rep_.add("formats.footprint_mb", fp_bytes / 1e6, "MB");
  rep_.add("formats.fill_ratio", stored / nnz, "ratio");
  rep_.add("solver.iterations", it, "count");
  rep_.add("solver.self_ms_per_iter", (per_iter - s_spmv.median() - 2.0 * s_ar.median()) * 1e3,
           "ms", "per iteration − spmv − 2 allreduce");
  rep_.add("solver.blas1_ms_per_iter", blas1 * 1e3, "ms", "2 dot + 2 axpy + xpay, rank-local");
  rep_.add("e2e.uncovered_frac", 1.0 - covered / per_iter, "frac",
           "iteration not covered by spmv + 2 allreduce + BLAS-1");
  // obs.trace_overhead_frac is not reported: the traced run times the
  // layers in side measurements and adds nothing to the solves.
}

}  // namespace

void run_dist_cg(const Options& opt, Report& rep) {
  DistHarness h(opt, rep);
  h.run();
}

}  // namespace perfbench
