// Self-test of the benchmark's own helpers: the quantile and tail-rank
// rule, the max-rate search, and the output checks. Exits non-zero on
// the first failed expectation group.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/checks.hpp"
#include "harness/rate_search.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "matgen/generators.hpp"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace perfbench;

void quantile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Sample s(v);
  EXPECT(s.median() == 50.0);
  EXPECT(s.quantile(0.99) == 99.0);
  EXPECT(s.quantile(1.0) == 100.0);
  EXPECT(s.quantile(0.0) == 1.0);

  // p99 needs 1000 samples to leave ten beyond it; the median needs 20.
  EXPECT(quantile_rank(0.99, 1000) == 990);
  EXPECT(samples_beyond(0.99, 1000) == 10);
  EXPECT(quantile_reportable(0.99, 1000));
  EXPECT(!quantile_reportable(0.99, 999));
  EXPECT(quantile_reportable(0.5, 20));
  EXPECT(!quantile_reportable(0.5, 19));
  EXPECT(!quantile_reportable(0.5, 0));

  // A missed request is +inf: more than 1% missed puts p99 at infinity.
  std::vector<double> lat(1000, 0.001);
  for (int i = 0; i < 10; ++i) lat[static_cast<std::size_t>(i)] = kMissed;
  EXPECT(std::isfinite(Sample(lat).quantile(0.99)));
  lat[10] = kMissed;
  EXPECT(!std::isfinite(Sample(lat).quantile(0.99)));
}

void rate_search() {
  // Synthetic M/M/1-like curve: p99(r) = base / (1 − r/cap). The limit
  // holds up to r* = cap·(1 − base/limit).
  const double base = 0.004, cap = 2000.0, limit = 0.030;
  const double r_star = cap * (1.0 - base / limit);
  const auto probe = [&](double r) { return r < cap && base / (1.0 - r / cap) <= limit; };
  for (double start : {300.0, 1000.0, 1900.0, 5000.0}) {
    const RateSearchResult res = find_max_rate(start, 30, probe);
    EXPECT(res.bracketed);
    EXPECT(res.max_rate <= r_star);
    EXPECT(res.max_rate >= r_star / (1.0 + kRateResolution));
    EXPECT(res.fail_rate > r_star);
    EXPECT(res.fail_rate <= res.max_rate * (1.0 + kRateResolution));
  }
  // Nothing passes: no rate is reported.
  const RateSearchResult none = find_max_rate(100.0, 6, [](double) { return false; });
  EXPECT(none.max_rate == 0.0);
  EXPECT(!none.bracketed);
  EXPECT(none.probes == 6);
}

void response_check() {
  spmvm::GenConfig cfg;
  cfg.scale = 512.0;
  cfg.seed = 3;
  const spmvm::Csr<double> a = spmvm::make_dlr1<double>(cfg);
  const std::vector<double> x = seeded_vector(static_cast<std::size_t>(a.n_cols), 5);
  const Reference ref = reference_product(a, x);

  // The same product summed in reverse order differs in rounding only.
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  for (std::size_t i = 0; i < y.size(); ++i) {
    double acc = 0.0;
    for (auto k = a.row_ptr[i + 1]; k-- > a.row_ptr[i];)
      acc += a.val[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(a.col_idx[static_cast<std::size_t>(k)])];
    y[i] = acc;
  }
  EXPECT(response_matches(y, ref));

  std::vector<double> bad = y;
  bad[bad.size() / 2] *= 1.0 + 1e-9;
  EXPECT(!response_matches(bad, ref));
  bad = y;
  bad[0] = std::nan("");
  EXPECT(!response_matches(bad, ref));
  bad = y;
  bad.pop_back();
  EXPECT(!response_matches(bad, ref));
}

void residual_check() {
  const spmvm::Csr<double> a = seeded_poisson3d(8, 9);
  const std::vector<double> x = seeded_vector(static_cast<std::size_t>(a.n_rows), 4);
  const std::vector<double> b = reference_product(a, x).y;
  const double exact = true_relative_residual(a, b, x);
  EXPECT(exact < 1e-14);
  EXPECT(solve_passes(true, exact, 1e-8));
  EXPECT(!solve_passes(false, exact, 1e-8));  // not converged

  std::vector<double> off = x;
  off[7] += 1e-5;
  const double perturbed = true_relative_residual(a, b, off);
  EXPECT(perturbed > 1e-7);
  EXPECT(!solve_passes(true, perturbed, 1e-8));

  // Seeded inputs repeat for a seed and differ between seeds.
  EXPECT(seeded_vector(16, 1) == seeded_vector(16, 1));
  EXPECT(seeded_vector(16, 1) != seeded_vector(16, 2));
  EXPECT(structurally_equal(seeded_poisson3d(6, 1), seeded_poisson3d(6, 1)));
  EXPECT(!structurally_equal(seeded_poisson3d(6, 1), seeded_poisson3d(6, 2)));
}

}  // namespace

int main() {
  quantile_rule();
  rate_search();
  response_check();
  residual_check();
  std::printf("perfbench self-test: %s (%d failed expectations)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
