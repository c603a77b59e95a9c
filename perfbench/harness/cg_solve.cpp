// cg_solve: a closed loop of solver::cg solves to 1e-8 on a seeded 3D
// Poisson matrix, bound through exec::Engine on the host as pjds in the
// plan basis at 4 threads, alternating with the same solve at 1 thread.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "exec/engine.hpp"
#include "formats/registry.hpp"
#include "harness/checks.hpp"
#include "harness/workloads.hpp"
#include "matgen/generators.hpp"
#include "solver/cg.hpp"
#include "solver/kernels.hpp"
#include "util/rng.hpp"

namespace perfbench {

spmvm::Csr<double> seeded_poisson3d(int n, std::uint64_t seed) {
  spmvm::Csr<double> a = spmvm::make_poisson3d<double>(n, n, n);
  spmvm::Rng rng(seed ^ 0xD1A6'0000'0000ull);
  for (spmvm::index_t i = 0; i < a.n_rows; ++i)
    for (auto k = a.row_ptr[static_cast<std::size_t>(i)];
         k < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++k)
      if (a.col_idx[static_cast<std::size_t>(k)] == i)
        a.val[static_cast<std::size_t>(k)] += 0.05 * rng.next_double();
  return a;
}

std::vector<double> seeded_vector(std::size_t n, std::uint64_t seed) {
  spmvm::Rng rng(seed);
  std::vector<double> v(n);
  for (double& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

namespace {

// 64^3 = 262,144 rows, 1.8M nnz: a working set of about 30 MB, beyond
// the summed L2 caches. At 100^3 (1M rows, 120 MB) the solve streamed
// from memory, and on a shared host its time followed the other tenants'
// memory traffic: five consecutive runs ranged from 1.27 s to 1.81 s.
constexpr int kGrid = 64;
constexpr double kTol = 1e-8;
constexpr int kMaxIter = 5000;
constexpr int kThreads = 4;

using Bound = spmvm::exec::BoundSpmv<double>;

/// One solve's outcome. `iter` holds the time from each operator apply
/// to the next, i.e. one whole CG iteration (apply + BLAS-1); `apply`
/// holds the time of each operator call, in traced solves only.
struct Solve {
  double seconds = 0.0;
  int iterations = 0;
  bool passed = false;
  std::vector<double> iter;
  std::vector<double> apply;
};

class CgHarness {
 public:
  CgHarness(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {}
  void run();

 private:
  Solve solve(Bound& bound, bool traced);
  double blas1_per_iteration() const;

  const Options& opt_;
  Report& rep_;
  spmvm::Csr<double> a_;
  std::vector<double> b_;
  std::shared_ptr<const spmvm::formats::FormatPlan<double>> plan_;
};

Solve CgHarness::solve(Bound& bound, bool traced) {
  const auto n = static_cast<std::size_t>(a_.n_rows);
  const spmvm::Permutation* perm = plan_->permutation();
  Solve out;
  // The operator calls into the exec layer. Each apply() starts one CG
  // iteration, so the clock read there times every iteration from
  // outside the solver; a traced solve also times each call.
  Clock::time_point last_apply{};
  const auto timed = [&](auto&& call) {
    const auto t0 = Clock::now();
    call();
    if (traced) out.apply.push_back(seconds_between(t0, Clock::now()));
    return t0;
  };
  spmvm::solver::Operator<double> op(
      a_.n_rows,
      [&](std::span<const double> x, std::span<double> y) {
        const auto t0 = timed([&] { bound.apply(x, y); });
        if (last_apply != Clock::time_point{}) out.iter.push_back(seconds_between(last_apply, t0));
        last_apply = t0;
      },
      [&](std::span<const double> x, std::span<double> y, double alpha, double beta) {
        timed([&] { bound.apply_axpby(x, y, alpha, beta); });
      });

  std::vector<double> b_perm(n), x_perm(n, 0.0), x(n);
  const auto t0 = Clock::now();
  perm->to_permuted(std::span<const double>(b_), std::span<double>(b_perm));
  const spmvm::solver::CgResult r = spmvm::solver::cg<double>(
      op, std::span<const double>(b_perm), std::span<double>(x_perm), kTol, kMaxIter);
  perm->from_permuted(std::span<const double>(x_perm), std::span<double>(x));
  out.seconds = seconds_between(t0, Clock::now());
  out.iterations = r.iterations;
  const double res = true_relative_residual(a_, b_, x);
  out.passed = solve_passes(r.converged, res, kTol);
  if (!out.passed) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "cg: converged=%d after %d iterations, true residual %.3g",
                  static_cast<int>(r.converged), r.iterations, res);
    rep_.fail_check(buf);
  }
  return out;
}

/// One CG iteration's BLAS-1 work (2 dot, 2 axpy, 1 xpay on n-vectors),
/// timed by calling the solver layer's kernels directly.
double CgHarness::blas1_per_iteration() const {
  const auto n = static_cast<std::size_t>(a_.n_rows);
  std::vector<double> p(n, 1.0), q(n, 0.5), r(n, 0.25);
  std::vector<double> t;
  double sink = 0.0;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    sink += spmvm::solver::dot<double>(p, q);
    spmvm::solver::axpy<double>(1e-3, p, std::span<double>(q));
    spmvm::solver::axpy<double>(-1e-3, q, std::span<double>(r));
    sink += spmvm::solver::dot<double>(r, r);
    spmvm::solver::xpay<double>(r, 0.5, std::span<double>(p));
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return sink != 0.0 ? median_of(t) : 0.0;
}

void CgHarness::run() {
  a_ = seeded_poisson3d(kGrid, opt_.seed);
  b_ = seeded_vector(static_cast<std::size_t>(a_.n_rows), opt_.seed * 31 + 7);
  rep_.line("cg_solve: " + std::to_string(a_.n_rows) + " rows, " +
            std::to_string(a_.nnz()) + " nnz, pjds in the plan basis, tol 1e-8");

  // setup_s: plan build + bind, repeated; the last binding is kept.
  spmvm::exec::Engine<double> engine;
  spmvm::exec::LaunchOptions l4, l1;
  l4.n_threads = kThreads;
  l4.basis = l1.basis = spmvm::exec::Basis::plan;
  spmvm::formats::PlanOptions po;
  po.permute_columns = spmvm::PermuteColumns::yes;
  std::unique_ptr<Bound> bound4;
  std::vector<double> setup, build;
  for (int rep = 0; rep < 9; ++rep) {
    bound4.reset();
    plan_.reset();
    const auto t0 = Clock::now();
    plan_ = spmvm::formats::registry<double>().build("pjds", a_, po);
    const auto t1 = Clock::now();
    bound4 = engine.bind_plan("host", plan_, l4);
    setup.push_back(seconds_between(t0, Clock::now()));
    build.push_back(seconds_between(t0, t1));
  }
  std::unique_ptr<Bound> bound1 = engine.bind_plan("host", plan_, l1);

  const auto start = Clock::now();
  (void)solve(*bound4, false);  // warm-up: first touch, pool start
  std::pair<double, double> roof{0.0, 0.0};
  if (opt_.trace) roof = measure_host_roof(rep_);
  // Alternate the thread counts, so both sample the whole run, and stop
  // before a further round would overrun --seconds.
  std::vector<Solve> s4, s1, s4_plain;
  double round = 0.0;
  do {
    const auto t0 = Clock::now();
    if (opt_.trace) s4_plain.push_back(solve(*bound4, false));
    s4.push_back(solve(*bound4, opt_.trace));
    s1.push_back(solve(*bound1, opt_.trace));
    round = seconds_between(t0, Clock::now());
  } while (seconds_between(start, Clock::now()) + round <= opt_.seconds);
  std::size_t failed = 0;
  for (const auto* v : {&s4, &s1, &s4_plain})
    for (const Solve& s : *v) failed += s.passed ? 0 : 1;
  rep_.count(s4.size() + s1.size() + s4_plain.size(), failed);

  // A solve spans seconds, so a few solve times would carry whatever
  // else the machine did meanwhile; the median iteration over every
  // solve does not. Solve time is estimated as iterations × that median.
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
  const Sample it4 = iter(s4), it1 = iter(s1);
  char buf[240];
  std::snprintf(buf, sizeof buf, "solves: %zu at %d threads, %zu at 1 thread; %.0f iterations",
                s4.size(), kThreads, s1.size(), iterations(s4));
  rep_.line(buf);
  for (const auto* s : {&it4, &it1}) {
    std::snprintf(buf, sizeof buf, "iteration at %d thread(s): p10 %.4f, p50 %.4f, p90 %.4f ms (n=%zu)",
                  s == &it4 ? kThreads : 1, s->quantile(0.1) * 1e3, s->median() * 1e3,
                  s->quantile(0.9) * 1e3, s->size());
    rep_.line(buf);
  }

  if (!opt_.trace) {
    rep_.add("setup_s", median_of(setup), "s");
    rep_.add("peak_rss_mb", peak_rss_mb(), "MB");
    rep_.add("op_p50_ms", iterations(s4) * it4.median() * 1e3, "ms",
             "solve_s: iterations x median iteration, 4 threads");
    rep_.add("base_p50_ms", iterations(s1) * it1.median() * 1e3, "ms",
             "solve_1t_s: iterations x median iteration, 1 thread");
    rep_.add("capacity_per_s", 1.0 / it4.median(), "1/s", "CG iterations per second, 4 threads");
    return;
  }

  // Per-layer figures from the traced solves' operator calls.
  std::vector<double> apply4, apply1, self, share, uncovered;
  const double blas1 = blas1_per_iteration();
  for (const Solve& s : s4) {
    const double sum = std::accumulate(s.apply.begin(), s.apply.end(), 0.0);
    apply4.insert(apply4.end(), s.apply.begin(), s.apply.end());
    self.push_back((s.seconds - sum) / s.iterations);
    share.push_back(sum / s.seconds);
    uncovered.push_back((s.seconds - sum - blas1 * s.iterations) / s.seconds);
  }
  for (const Solve& s : s1) apply1.insert(apply1.end(), s.apply.begin(), s.apply.end());
  const spmvm::Footprint fp = plan_->footprint();
  const double bytes = static_cast<double>(fp.total_bytes(sizeof(double))) +
                       static_cast<double>(a_.n_rows + a_.n_cols) * sizeof(double);
  const Sample a4(apply4), a1(apply1);
  const double gbs = bytes / a4.median() / 1e9;

  rep_.add("exec.apply_calls", static_cast<double>(s4.back().apply.size()), "count",
           "operator calls per solve");
  rep_.add_quantile("exec.apply_ms.p50", a4, 0.5, "ms", 1e3);
  rep_.add("exec.apply_share", median_of(share), "frac", "Σapply / solve");
  rep_.add("exec.apply_gbs", gbs, "GB/s", "computed from FormatPlan::footprint()");
  rep_.add("exec.roof_frac", gbs / roof.second, "frac", "vs the 4-thread triad");
  rep_.add("exec.thread_speedup", a1.median() / a4.median(), "ratio", "apply 1 thread / 4 threads");
  rep_.add("formats.build_s", median_of(build), "s", "pjds plan build");
  rep_.add("formats.footprint_mb", static_cast<double>(fp.total_bytes(sizeof(double))) / 1e6, "MB");
  rep_.add("formats.fill_ratio",
           static_cast<double>(fp.stored_entries) / static_cast<double>(fp.true_nnz), "ratio");
  rep_.add("solver.iterations", iterations(s4), "count");
  rep_.add("solver.self_ms_per_iter", median_of(self) * 1e3, "ms", "(solve − Σapply) / iterations");
  rep_.add("solver.blas1_ms_per_iter", blas1 * 1e3, "ms", "2 dot + 2 axpy + xpay, timed alone");
  rep_.add("e2e.uncovered_frac", median_of(uncovered), "frac",
           "solve not covered by Σapply + iterations × BLAS-1");
  rep_.add("obs.trace_overhead_frac", it4.median() / iter(s4_plain).median() - 1.0, "frac",
           "median iteration, traced vs untraced 4-thread solves");
}

}  // namespace

void run_cg_solve(const Options& opt, Report& rep) {
  CgHarness h(opt, rep);
  h.run();
}

}  // namespace perfbench
