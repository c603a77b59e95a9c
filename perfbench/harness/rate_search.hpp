// Search for the highest offered rate that still meets a service limit.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

namespace perfbench {

/// Step factor while no pass/fail bracket exists.
inline constexpr double kRateGrow = 1.25;
/// The search stops once fail/pass <= 1 + kRateResolution: finer than
/// the 0.25 bound of the rate it reports.
inline constexpr double kRateResolution = 0.04;

struct RateSearchResult {
  double max_rate = 0.0;  ///< highest passing rate probed (0: none passed)
  double fail_rate = std::numeric_limits<double>::infinity();  ///< lowest failing
  int probes = 0;
  bool bracketed = false;  ///< both a pass and a fail were seen, within resolution
};

/// Step geometrically from `start` until the pass/fail boundary is
/// bracketed, then bisect (geometric midpoint) until the bracket is
/// narrower than kRateResolution, probing at most `max_probes` rates.
/// `probe(rate)` runs one load phase and returns whether every limit
/// held. Assumes passing is monotone in the rate; a noisy probe only
/// moves the answer within the bracket.
inline RateSearchResult find_max_rate(double start, int max_probes,
                                      const std::function<bool(double)>& probe) {
  RateSearchResult res;
  double rate = start;
  while (res.probes < max_probes) {
    const bool ok = probe(rate);
    ++res.probes;
    if (ok)
      res.max_rate = std::max(res.max_rate, rate);
    else
      res.fail_rate = std::min(res.fail_rate, rate);
    const bool have_lo = res.max_rate > 0.0;
    const bool have_hi = std::isfinite(res.fail_rate);
    if (have_lo && have_hi) {
      if (res.fail_rate <= res.max_rate * (1.0 + kRateResolution)) {
        res.bracketed = true;
        break;
      }
      rate = std::sqrt(res.max_rate * res.fail_rate);
    } else {
      rate = have_lo ? rate * kRateGrow : rate / kRateGrow;
    }
  }
  return res;
}

}  // namespace perfbench
