#include "harness/report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

namespace perfbench {

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void Report::add_quantile(const std::string& name, const Sample& s, double q,
                          const std::string& unit, double scale) {
  char note[96];
  if (!s.reportable(q)) {
    std::printf("  %-32s %14s %-6s n=%zu, %zu beyond: withheld\n",
                name.c_str(), "-", unit.c_str(), s.size(),
                s.empty() ? std::size_t{0} : samples_beyond(q, s.size()));
    return;
  }
  std::snprintf(note, sizeof note, "n=%zu, %zu beyond", s.size(),
                samples_beyond(q, s.size()));
  add(name, s.quantile(q) * scale, unit, note);
}

void Report::line(const std::string& text) const {
  std::printf("%s\n", text.c_str());
}

void Report::fail_check(const std::string& why) {
  if (correct_) std::printf("CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

void Report::finish() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  // JSON has no infinity: a latency of requests that all failed, for
  // one, prints as null.
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[32] = "null";
    if (std::isfinite(metrics_[i].value))
      std::snprintf(value, sizeof value, "%.12g", metrics_[i].value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb * 1024.0 / 1e6;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};  // no /proc: the peak since the start
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // kB on Linux
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size
  clear.close();
  return static_cast<bool>(clear);
}

std::size_t llc_bytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

double triad_gbs(int threads, std::size_t n, int reps) {
  std::vector<double> a(n), b(n), c(n);
  const auto chunk = [&](int t) {
    const std::size_t lo = n * static_cast<std::size_t>(t) /
                           static_cast<std::size_t>(threads);
    const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                           static_cast<std::size_t>(threads);
    return std::pair{lo, hi};
  };
  const auto run = [&](auto&& body) {
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t) pool.emplace_back(body, t);
    body(0);
    for (auto& th : pool) th.join();
  };
  run([&](int t) {  // first touch by the thread that streams the part
    const auto [lo, hi] = chunk(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 0.5;
    }
  });
  const double s = 3.0;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    run([&](int t) {
      const auto [lo, hi] = chunk(t);
      double* __restrict pa = a.data();
      const double* __restrict pb = b.data();
      const double* __restrict pc = c.data();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double dt = seconds_between(t0, Clock::now());
    best = std::max(best, 24.0 * static_cast<double>(n) / dt / 1e9);
  }
  if (a[n / 2] != b[n / 2] + s * c[n / 2]) return 0.0;  // keeps the stores
  return best;
}

std::pair<double, double> measure_host_roof(Report& rep) {
  // Three arrays of twice the LLC in total would stream from memory, but
  // the cap keeps the probe small on machines with a very large LLC; the
  // printed sizes say which case applies.
  const std::size_t llc = llc_bytes();
  constexpr std::size_t kMaxArray = std::size_t{64} << 20;
  constexpr std::size_t kMinArray = std::size_t{16} << 20;
  const std::size_t array_bytes =
      std::clamp<std::size_t>(2 * llc / 3, kMinArray, kMaxArray);
  const std::size_t n = array_bytes / sizeof(double);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "host roof: triad arrays 3 x %.1f MiB = %.1f MiB; "
                "last-level cache %.1f MiB%s",
                static_cast<double>(array_bytes) / 1048576.0,
                3.0 * static_cast<double>(array_bytes) / 1048576.0,
                static_cast<double>(llc) / 1048576.0,
                3 * array_bytes > llc ? ""
                                      : " (arrays fit in it: a cache-level roof)");
  rep.line(buf);
  const double one = triad_gbs(1, n, 5);
  const double four = triad_gbs(4, n, 5);
  rep.add("host.triad_gbs.1t", one, "GB/s");
  rep.add("host.triad_gbs.4t", four, "GB/s");
  return {one, four};
}

}  // namespace perfbench
