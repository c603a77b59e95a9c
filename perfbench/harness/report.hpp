// Shared plumbing of the benchmark: options, the metric report, and host
// probes (peak RSS, last-level cache size, STREAM triad).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< measuring time; set by --seconds
  bool trace = false;
};

/// Metrics and outcome counts of one run. Human-readable lines go to
/// stdout as metrics are added; finish() prints the closing JSON line.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Add quantile q of `s` when at least ten samples lie beyond it;
  /// otherwise print why it is withheld. Values are scaled by `scale`.
  void add_quantile(const std::string& name, const Sample& s, double q,
                    const std::string& unit, double scale = 1.0);
  void line(const std::string& text) const;

  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void fail_check(const std::string& why);
  bool correct() const { return correct_; }

  /// Print the final JSON line.
  void finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set size (VmHWM) since the start of the process or the
/// last reset_peak_rss(), in MB (1e6 bytes).
double peak_rss_mb();

/// Restart the peak at the current resident set size (Linux
/// /proc/self/clear_refs). Returns false where the kernel refuses.
bool reset_peak_rss();

/// Last-level cache size the machine reports, in bytes (0 if unknown).
std::size_t llc_bytes();

/// Best-of-`reps` STREAM triad bandwidth a = b + s·c over `n` doubles
/// per array with `threads` threads, in GB/s (24 bytes per element).
double triad_gbs(int threads, std::size_t n, int reps);

/// Measure the triad at 1 and 4 threads into `rep` (host.triad_gbs.*),
/// sizing the arrays against the reported last-level cache. Returns the
/// {1-thread, 4-thread} figures.
std::pair<double, double> measure_host_roof(Report& rep);

}  // namespace perfbench
