// serve_mix: an open loop of seeded Poisson arrivals against one
// serve::Server (host backend, csr, 2 workers, 1 kernel thread) hosting
// DLR1 (hot), HMEp and sAMG (cold). Three fixed rates, then a search
// for the highest rate that meets the latency limit.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "formats/registry.hpp"
#include "harness/checks.hpp"
#include "harness/rate_search.hpp"
#include "harness/workloads.hpp"
#include "matgen/generators.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kMatrices = 3;
const char* const kName[kMatrices] = {"DLR1", "HMEp", "sAMG"};
// Request shares: an assumed skew (one hot matrix, two cold ones), not
// taken from any measured traffic.
constexpr double kPopularity[kMatrices] = {0.8, 0.1, 0.1};
constexpr double kScale = 64.0;  // paper dimension / 64
constexpr int kPool = 8;         // x vectors per matrix

// Fixed offered rates (requests/s), the p99 limit, and the acceptance
// rules of a load phase. On a shared 4-vCPU Xeon (KVM) host the measured
// maximum rate ranged from about 1650/s to 6100/s with the other
// tenants' load, so the high rate sits below the lowest of them (see
// README.md).
constexpr double kRateLow = 300.0;
constexpr double kRateMid = 800.0;
constexpr double kRateHigh = 1200.0;
constexpr double kLimitP99 = 0.030;   // seconds
constexpr double kMinOkFrac = 0.99;
constexpr std::size_t kMinProbe = 2000;  // p99 with 20 beyond it
constexpr std::size_t kMinPhase = 1200;
constexpr int kSetupsPerProbe = 4;  // setup_s samples taken after each search probe

struct PoolEntry {
  std::vector<double> x;
  Reference ref;
};

/// One request as the generator sent it.
struct Sent {
  double due = 0.0;     // seconds since the phase epoch
  double sub = 0.0;     // submit() entry, same clock
  double sub_end = 0.0; // submit() return
  int matrix = 0;
  int pool = 0;
  int depth = -1;       // queue depth after submit (traced only)
  spmvm::serve::Ticket ticket;
};

/// What came back for it.
struct Outcome {
  int matrix = 0;
  spmvm::serve::RequestStatus status = spmvm::serve::RequestStatus::failed;
  bool wrong = false;
  double late = 0.0;     // sub − due
  double latency = 0.0;  // due → response; kMissed unless ok
  double submit = 0.0;
  double done = 0.0;     // completion, seconds since the phase epoch
  int depth = -1;
  int width = 0;
  double queue = 0.0, batch = 0.0, execute = 0.0, total = 0.0;
};

struct Phase {
  std::string label;
  double rate = 0.0;
  int rounds = 1;             // load chunks pooled into this phase
  std::size_t backlog = 0;    // unresolved when the generator stopped
  double wall = 0.0;          // phase start → last completion, summed
  std::vector<Outcome> out;

  /// Pool another chunk at the same rate into this phase.
  void absorb(Phase&& other) {
    out.insert(out.end(), other.out.begin(), other.out.end());
    rounds += other.rounds;
    backlog += other.backlog;
    wall += other.wall;
  }

  std::size_t count(spmvm::serve::RequestStatus s) const {
    return static_cast<std::size_t>(std::count_if(
        out.begin(), out.end(), [s](const Outcome& o) { return o.status == s; }));
  }
  std::size_t ok() const {
    return static_cast<std::size_t>(std::count_if(
        out.begin(), out.end(), [](const Outcome& o) {
          return o.status == spmvm::serve::RequestStatus::ok && !o.wrong;
        }));
  }
  std::size_t wrong() const {
    return static_cast<std::size_t>(std::count_if(
        out.begin(), out.end(), [](const Outcome& o) { return o.wrong; }));
  }
  Sample latencies() const {
    std::vector<double> v;
    for (const Outcome& o : out) v.push_back(o.latency);
    return Sample(std::move(v));
  }
  /// Backlog bound from Little's law: rate × latency limit, plus a
  /// batch per worker of slack, per chunk.
  bool backlog_growing() const {
    return static_cast<double>(backlog) > rounds * (rate * kLimitP99 + 2.0 * 8.0);
  }
  bool meets_limits() const {
    const Sample lat = latencies();
    return !out.empty() && lat.quantile(0.99) <= kLimitP99 &&
           static_cast<double>(ok()) >=
               kMinOkFrac * static_cast<double>(out.size()) &&
           !backlog_growing();
  }
};

class Harness {
 public:
  Harness(const Options& opt, Report& rep) : opt_(opt), rep_(rep) {}

  void run();

 private:
  void build_inputs();
  double time_setup(std::unique_ptr<spmvm::serve::Server>& into);
  Phase run_phase(const std::string& label, double rate, std::size_t n,
                  std::uint64_t salt, bool traced);
  void summarize_phase(const Phase& p) const;
  void per_layer(const std::vector<const Phase*>& phases,
                 const Phase& untraced_mid, const Phase& traced_mid);

  const Options& opt_;
  Report& rep_;
  spmvm::Csr<double> mats_[kMatrices];
  std::vector<PoolEntry> pool_[kMatrices];
  std::unique_ptr<spmvm::serve::Server> server_;
  double host_1t_gbs_ = 0.0;
};

spmvm::serve::ServerOptions server_options() {
  spmvm::serve::ServerOptions o;
  o.backend = "host";
  o.format = "csr";
  o.n_workers = 2;
  o.kernel_threads = 1;
  return o;
}

void Harness::build_inputs() {
  for (int m = 0; m < kMatrices; ++m) {
    spmvm::GenConfig cfg;
    cfg.scale = kScale;
    cfg.seed = opt_.seed * 7919 + static_cast<std::uint64_t>(m);
    mats_[m] = m == 0   ? spmvm::make_dlr1<double>(cfg)
               : m == 1 ? spmvm::make_hmep<double>(cfg)
                        : spmvm::make_samg<double>(cfg);
    for (int p = 0; p < kPool; ++p) {
      PoolEntry e;
      e.x = seeded_vector(static_cast<std::size_t>(mats_[m].n_cols),
                          opt_.seed * 104729 + static_cast<std::uint64_t>(m * kPool + p));
      e.ref = reference_product(mats_[m], e.x);
      pool_[m].push_back(std::move(e));
    }
  }
}

/// One setup_s sample: Server construction, three register_matrix
/// calls, start(). The new server replaces `into` after the clock stops.
double Harness::time_setup(std::unique_ptr<spmvm::serve::Server>& into) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<spmvm::serve::Server>(server_options());
  for (int m = 0; m < kMatrices; ++m) s->register_matrix(kName[m], mats_[m]);
  s->start();
  const double t = seconds_between(t0, Clock::now());
  into = std::move(s);
  return t;
}

/// Sleep to just before `due`, then yield-spin: a woken sleeper can run
/// milliseconds late once the workers and the collector hold the cores,
/// and lateness counts in every later request's latency.
void wait_until(Clock::time_point due) {
  const auto guard = std::chrono::microseconds(200);
  if (Clock::now() + guard < due) std::this_thread::sleep_until(due - guard);
  while (Clock::now() < due) std::this_thread::yield();
}

Phase Harness::run_phase(const std::string& label, double rate,
                         std::size_t n, std::uint64_t salt, bool traced) {
  Phase ph;
  ph.label = label;
  ph.rate = rate;
  ph.out.resize(n);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, Sent>> inbox;
  bool done_sending = false;

  const auto epoch = Clock::now() + std::chrono::milliseconds(2);
  const auto rel = [epoch](Clock::time_point t) { return seconds_between(epoch, t); };

  std::thread collector([&] {
    for (;;) {
      std::pair<std::size_t, Sent> item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !inbox.empty() || done_sending; });
        if (inbox.empty()) return;
        item = std::move(inbox.front());
        inbox.pop_front();
      }
      Sent& s = item.second;
      spmvm::serve::Response r = s.ticket.get();
      Outcome& o = ph.out[item.first];
      o.matrix = s.matrix;
      o.status = r.status;
      o.late = s.sub - s.due;
      o.submit = s.sub_end - s.sub;
      o.depth = s.depth;
      o.width = r.batch_width;
      o.queue = r.queue_seconds;
      o.batch = r.batch_seconds;
      o.execute = r.execute_seconds;
      o.total = r.total_seconds;
      o.done = s.sub + r.total_seconds;
      if (r.ok()) {
        o.wrong = !response_matches(r.y, pool_[s.matrix][static_cast<std::size_t>(s.pool)].ref);
        o.latency = o.wrong ? kMissed : o.late + r.total_seconds;
      } else {
        o.latency = kMissed;
      }
    }
  });

  spmvm::Rng rng(opt_.seed * 0x9E3779B97F4A7C15ull + salt);
  double due = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    due += -std::log(1.0 - rng.next_double()) / rate;
    const double u = rng.next_double();
    int m = 0;
    for (double acc = kPopularity[0]; m + 1 < kMatrices && u >= acc;)
      acc += kPopularity[++m];
    const int p = static_cast<int>(rng.next_below(kPool));
    std::vector<double> x = pool_[m][static_cast<std::size_t>(p)].x;

    wait_until(epoch + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(due)));
    Sent s;
    s.due = due;
    s.matrix = m;
    s.pool = p;
    const auto t_sub = Clock::now();
    s.ticket = server_->submit(kName[m], std::move(x));
    const auto t_end = Clock::now();
    s.sub = rel(t_sub);
    s.sub_end = rel(t_end);
    if (traced) s.depth = server_->queue_depth();
    {
      std::lock_guard<std::mutex> lk(mu);
      inbox.emplace_back(i, std::move(s));
    }
    cv.notify_one();
  }
  const double gen_end = rel(Clock::now());
  {
    std::lock_guard<std::mutex> lk(mu);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();
  for (const Outcome& o : ph.out) {
    ph.backlog += o.done > gen_end ? 1 : 0;
    ph.wall = std::max(ph.wall, o.done);
  }
  return ph;
}

void Harness::summarize_phase(const Phase& p) const {
  using spmvm::serve::RequestStatus;
  const Sample lat = p.latencies();
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "phase %-9s rate %7.1f/s: sent %zu ok %zu shed %zu timed_out %zu "
                "failed %zu wrong %zu | p50 %.3f ms p99 %s ms | backlog at end %zu (%d chunks) | %s",
                p.label.c_str(), p.rate, p.out.size(), p.ok(),
                p.count(RequestStatus::rejected_full), p.count(RequestStatus::timed_out),
                p.out.size() - p.ok() - p.count(RequestStatus::rejected_full) -
                    p.count(RequestStatus::timed_out),
                p.wrong(), lat.median() * 1e3,
                std::isfinite(lat.quantile(0.99))
                    ? std::to_string(lat.quantile(0.99) * 1e3).c_str()
                    : "inf",
                p.backlog, p.rounds, p.meets_limits() ? "meets limits" : "misses limits");
  rep_.line(buf);
}

void Harness::run() {
  const auto t_start = Clock::now();
  build_inputs();
  rep_.line("serve_mix: inputs built in " +
            std::to_string(seconds_between(t_start, Clock::now())) + " s");
  // One setup serves the load. The further setup_s samples are taken on
  // spare servers between the search probes: spread over the run, a
  // short slowdown of the machine moves few of them, and the heap they
  // leave behind, which varies from run to run by up to 10 MB, stays out
  // of peak_rss_mb.
  std::vector<double> setup{time_setup(server_)};
  const bool rss_reset = reset_peak_rss();
  for (int m = 0; m < kMatrices; ++m) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %s: %d rows, %lld nnz, N_nzr %.1f, batch width %d, share %.0f%%",
                  kName[m], mats_[m].n_rows, static_cast<long long>(mats_[m].nnz()),
                  mats_[m].avg_row_len(), server_->batch_width(kName[m]),
                  kPopularity[m] * 100.0);
    rep_.line(buf);
  }
  char limits[200];
  std::snprintf(limits, sizeof limits,
                "limits: p99 <= %.0f ms, >= %.0f%% ok, backlog at end <= rate x limit + 16",
                kLimitP99 * 1e3, kMinOkFrac * 100.0);
  rep_.line(limits);

  if (opt_.trace) host_1t_gbs_ = measure_host_roof(rep_).first;

  const double S = opt_.seconds;
  const auto phase_n = [&](double rate, double frac) {
    return std::max<std::size_t>(kMinPhase, static_cast<std::size_t>(rate * S * frac));
  };
  run_phase("warmup", kRateMid, 300, 1, false);

  std::vector<Phase> fixed;
  const struct { const char* label; double rate; double frac; } plan[] = {
      {"low", kRateLow, 0.2}, {"mid", kRateMid, 0.12}, {"high", kRateHigh, 0.12}};
  // Each fixed rate runs in three chunks, round-robin with the others,
  // so every rate samples the whole run rather than one stretch of it.
  constexpr int kRounds = 3;
  std::uint64_t salt = 10;
  for (int round = 0; round < kRounds; ++round)
    for (std::size_t i = 0; i < std::size(plan); ++i) {
      Phase chunk = run_phase(plan[i].label, plan[i].rate,
                              phase_n(plan[i].rate, plan[i].frac) / kRounds, ++salt, opt_.trace);
      if (round == 0)
        fixed.push_back(std::move(chunk));
      else
        fixed[i].absorb(std::move(chunk));
    }
  for (const Phase& p : fixed) summarize_phase(p);
  // peak_rss_mb: the serving peak, from the reset after setup through the
  // fixed-rate phases, before the overloaded search probes fill the queue.
  const double serve_rss = peak_rss_mb();

  // Outcome accounting: the fixed-rate phases are the operations. Search
  // probes above capacity shed by design and are not counted, but a
  // wrong product anywhere fails the run.
  std::size_t wrong = 0;
  for (const Phase& p : fixed) {
    rep_.count(p.out.size(), p.out.size() - p.ok());
    wrong += p.wrong();
  }

  if (opt_.trace) {
    // The traced run repeats the mid rate untraced, to price the tracing;
    // it skips the max-rate search, whose result only the untraced run
    // reports.
    const Phase untraced_mid =
        run_phase("mid-plain", kRateMid, phase_n(kRateMid, 0.12), 20, false);
    summarize_phase(untraced_mid);
    wrong += untraced_mid.wrong();
    std::vector<const Phase*> ps;
    for (const Phase& p : fixed) ps.push_back(&p);
    per_layer(ps, untraced_mid, fixed[1]);
  }

  RateSearchResult search;
  if (!opt_.trace) {
    // The search starts at twice the high rate, moved by a seeded 0-4 %
    // that keeps the probed rates off a fixed grid.
    const double start = 2.0 * kRateHigh * (1.0 + 0.04 * spmvm::Rng(opt_.seed).next_double());
    std::uint64_t probe_salt = 100;
    // A rate passes when one of two probes meets the limits: a single
    // probe fails now and then on a transient slowdown of the machine.
    search = find_max_rate(start, 12, [&](double rate) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        // Each probe lasts S/15 (2 s of a 30 s run), so at any capacity
        // the pass/fail call spans the same stretch of time.
        const std::size_t n =
            std::max<std::size_t>(kMinProbe, static_cast<std::size_t>(rate * S / 15.0));
        Phase p = run_phase("probe", rate, n, ++probe_salt, false);
        summarize_phase(p);
        wrong += p.wrong();
        // Let an overloaded probe's backlog clear before the next one.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        for (int i = 0; i < kSetupsPerProbe; ++i) {
          std::unique_ptr<spmvm::serve::Server> spare;
          setup.push_back(time_setup(spare));
        }
        if (p.meets_limits()) return true;
      }
      return false;
    });
    char sbuf[200];
    std::snprintf(sbuf, sizeof sbuf,
                  "max-rate search: %d rates probed, pass <= %.1f/s, fail >= %.1f/s, %s",
                  search.probes, search.max_rate, search.fail_rate,
                  search.bracketed ? "bracketed" : "NOT bracketed");
    rep_.line(sbuf);
  }
  if (wrong > 0)
    rep_.fail_check(std::to_string(wrong) + " served products differ from the reference");

  if (!opt_.trace) {
    rep_.add("setup_s", median_of(setup), "s",
             "median of " + std::to_string(setup.size()) + " setups");
    rep_.add("peak_rss_mb", serve_rss, "MB",
             rss_reset ? "after setup, through the fixed-rate phases"
                       : "since the start (peak could not be reset)");
    rep_.add_quantile("op_p50_ms", fixed[1].latencies(), 0.5, "ms", 1e3);
    rep_.add_quantile("base_p50_ms", fixed[0].latencies(), 0.5, "ms", 1e3);
    rep_.add("capacity_per_s", search.max_rate, "1/s", "serve_max_qps");
  }
  server_->shutdown();
}

void Harness::per_layer(const std::vector<const Phase*>& phases,
                        const Phase& untraced_mid, const Phase& traced_mid) {
  using spmvm::serve::RequestStatus;
  const char* rate_name[] = {"low", "mid", "high"};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const Sample lat = phases[i]->latencies();
    rep_.add_quantile(std::string("serve.p50_ms.") + rate_name[i], lat, 0.5, "ms", 1e3);
    rep_.add_quantile(std::string("serve.p99_ms.") + rate_name[i], lat, 0.99, "ms", 1e3);
  }

  // Per-layer samples pooled over the three fixed-rate phases.
  std::vector<double> queue, batch, complete, submit, late;
  std::vector<double> width_m[kMatrices], per_rhs_m[kMatrices], launch;
  double depth_max = 0.0, exec_sum = 0.0, wall_sum = 0.0, covered = 0.0, total = 0.0;
  double bytes = 0.0, exec_per_request = 0.0;
  std::set<std::pair<int, double>> launch_ids;
  std::size_t sent = 0, shed = 0;
  spmvm::Footprint fp[kMatrices];
  for (int m = 0; m < kMatrices; ++m)
    fp[m] = spmvm::formats::registry<double>().build("csr", mats_[m])->footprint();
  for (const Phase* p : phases) {
    wall_sum += p->wall;
    sent += p->out.size();
    shed += p->count(RequestStatus::rejected_full);
    for (const Outcome& o : p->out) {
      submit.push_back(o.submit);
      late.push_back(o.late);
      depth_max = std::max(depth_max, static_cast<double>(o.depth));
      if (o.status != RequestStatus::ok) continue;
      queue.push_back(o.queue);
      batch.push_back(o.batch);
      complete.push_back(o.total - o.queue - o.batch - o.execute);
      width_m[o.matrix].push_back(o.width);
      per_rhs_m[o.matrix].push_back(o.execute / o.width);
      exec_per_request += o.execute;
      // Every request of one launch reports the same execute time.
      if (launch_ids.insert({o.matrix, o.execute}).second) {
        exec_sum += o.execute;
        launch.push_back(o.execute);
      }
      const auto& a = mats_[o.matrix];
      bytes += (static_cast<double>(fp[o.matrix].total_bytes(sizeof(double))) +
                static_cast<double>(o.width) *
                    static_cast<double>(a.n_rows + a.n_cols) * sizeof(double)) /
               o.width;
      const double latency = o.late + o.total;
      total += latency;
      covered += o.late + o.queue + o.batch + o.execute;
    }
  }
  rep_.add_quantile("serve.queue_ms.p50", Sample(queue), 0.5, "ms", 1e3);
  rep_.add_quantile("serve.queue_ms.p99", Sample(queue), 0.99, "ms", 1e3);
  rep_.add("serve.queue_depth.max", depth_max, "count");
  rep_.add("serve.shed_frac", static_cast<double>(shed) / static_cast<double>(sent), "frac");
  rep_.add_quantile("serve.submit_us.p99", Sample(submit), 0.99, "us", 1e6);
  rep_.add_quantile("serve.gen_late_ms.p99", Sample(late), 0.99, "ms", 1e3);
  rep_.add_quantile("serve.batch_wait_ms.p50", Sample(batch), 0.5, "ms", 1e3);
  rep_.add_quantile("serve.batch_wait_ms.p99", Sample(batch), 0.99, "ms", 1e3);
  for (int m = 0; m < kMatrices; ++m) {
    const Sample w(width_m[m]);
    rep_.add(std::string("serve.batch_width.mean.") + kName[m], w.mean(), "count");
    rep_.add(std::string("serve.batch_fill.") + kName[m],
             w.mean() / server_->batch_width(kName[m]), "frac");
    rep_.add_quantile(std::string("serve.exec_us_per_rhs.") + kName[m], Sample(per_rhs_m[m]),
                      0.5, "us", 1e6);
  }
  rep_.add_quantile("serve.complete_ms.p99", Sample(complete), 0.99, "ms", 1e3);
  rep_.add("serve.worker_busy_frac", exec_sum / (2.0 * wall_sum), "frac");

  // exec layer, seen through the block launches the responses report.
  rep_.add("exec.apply_calls", static_cast<double>(launch.size()), "count", "block launches");
  rep_.add_quantile("exec.apply_ms.p50", Sample(launch), 0.5, "ms", 1e3);
  rep_.add("exec.apply_share", exec_per_request / total, "frac",
           "execute / request latency");
  const double gbs = bytes / exec_sum / 1e9;
  rep_.add("exec.apply_gbs", gbs, "GB/s", "computed from FormatPlan::footprint()");
  rep_.add("exec.roof_frac", gbs / host_1t_gbs_, "frac",
           "vs the 1-thread triad: each launch runs 1 thread");
  rep_.add("exec.thread_speedup", 0.0, "ratio", "not exercised: kernel_threads = 1");

  double fp_bytes = 0.0, stored = 0.0, nnz = 0.0;
  for (int m = 0; m < kMatrices; ++m) {
    fp_bytes += static_cast<double>(fp[m].total_bytes(sizeof(double)));
    stored += static_cast<double>(fp[m].stored_entries);
    nnz += static_cast<double>(fp[m].true_nnz);
  }
  // formats.build_s: one csr plan build of the three matrices, outside
  // the server.
  const auto t0 = Clock::now();
  for (int m = 0; m < kMatrices; ++m)
    (void)spmvm::formats::registry<double>().build("csr", mats_[m]);
  rep_.add("formats.build_s", seconds_between(t0, Clock::now()), "s");
  rep_.add("formats.footprint_mb", fp_bytes / 1e6, "MB");
  rep_.add("formats.fill_ratio", stored / nnz, "ratio");

  rep_.add("e2e.uncovered_frac", total > 0.0 ? (total - covered) / total : 0.0, "frac",
           "request latency not in generator lateness, queue, batch or execute");
  const double plain = untraced_mid.latencies().median();
  rep_.add("obs.trace_overhead_frac", traced_mid.latencies().median() / plain - 1.0, "frac",
           "mid-rate p50, traced vs untraced phase");
}

}  // namespace

void run_serve_mix(const Options& opt, Report& rep) {
  Harness h(opt, rep);
  h.run();
}

}  // namespace perfbench
