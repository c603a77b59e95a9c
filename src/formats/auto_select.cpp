#include "formats/auto_select.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <vector>

#include "formats/registry.hpp"
#include "obs/metrics.hpp"
#include "perfmodel/balance.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace spmvm::formats {

namespace {

/// Delegating wrapper returned by the "auto" registry entry: behaves
/// exactly like the chosen plan but reports the selection record.
template <class T>
class AutoPlan final : public FormatPlan<T> {
 public:
  AutoPlan(std::shared_ptr<const FormatPlan<T>> chosen, AutoChoice choice,
           const FormatInfo& info)
      : chosen_(std::move(chosen)), choice_(std::move(choice)), info_(&info) {}

  const FormatInfo& info() const override { return *info_; }
  index_t n_rows() const override { return chosen_->n_rows(); }
  index_t n_cols() const override { return chosen_->n_cols(); }
  offset_t nnz() const override { return chosen_->nnz(); }
  Footprint footprint() const override { return chosen_->footprint(); }
  Csr<T> to_csr() const override { return chosen_->to_csr(); }
  const Permutation* permutation() const override {
    return chosen_->permutation();
  }
  bool columns_permuted() const override { return chosen_->columns_permuted(); }
  std::optional<gpusim::KernelResult> simulate(
      const gpusim::DeviceSpec& dev,
      const gpusim::SimOptions& opt) const override {
    return chosen_->simulate(dev, opt);
  }
  const AutoChoice* auto_choice() const override { return &choice_; }

 private:
  // The chosen plan's kernels run under this plan's probe (recorded as
  // `auto`), never under a second one. No fused axpby: info() does not
  // announce it.
  void do_spmv(std::span<const T> x, std::span<T> y,
               int n_threads) const override {
    FormatPlan<T>::delegate_spmv(*chosen_, x, y, n_threads);
  }
  void do_spmmv(std::span<const T> x, std::span<T> y, int k,
                int n_threads) const override {
    FormatPlan<T>::delegate_spmmv(*chosen_, x, y, k, n_threads);
  }

  std::shared_ptr<const FormatPlan<T>> chosen_;
  AutoChoice choice_;
  const FormatInfo* info_;
};

/// α measured once per matrix: the simulator's L2 model walked with a
/// reference kernel. ELLPACK-R is the designated reference (the kernel
/// Eq. 1 was written for); any sim-capable candidate serves as fallback
/// so a trimmed-down registry still works.
template <class T>
double measure_alpha(
    const std::vector<std::shared_ptr<const FormatPlan<T>>>& plans) {
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::tesla_c2070();
  const FormatPlan<T>* fallback = nullptr;
  for (const auto& p : plans) {
    if (!p->info().has_sim_kernel) continue;
    if (std::string_view(p->info().name) == "ellpack_r")
      return p->simulate(dev)->stats.measured_alpha(sizeof(T));
    if (fallback == nullptr) fallback = p.get();
  }
  if (fallback != nullptr)
    return fallback->simulate(dev)->stats.measured_alpha(sizeof(T));
  return 1.0;  // worst case of Eq. 1 when nothing can be simulated
}

}  // namespace

template <class T>
AutoChoice choose_format(
    const FormatRegistry<T>& reg, const Csr<T>& a, const PlanOptions& opts,
    std::vector<std::shared_ptr<const FormatPlan<T>>>* built) {
  SPMVM_REQUIRE(a.nnz() > 0, "auto format selection needs a non-empty matrix");

  std::vector<std::shared_ptr<const FormatPlan<T>>> plans;
  AutoChoice choice;
  for (const auto& e : reg.entries()) {
    if (std::string_view(e.info.name) == "auto") continue;
    plans.push_back(e.builder(a, opts, e.info));
    choice.candidates.push_back({e.info.name, 0.0, -1.0});
  }
  SPMVM_REQUIRE(!plans.empty(), "format registry has no concrete formats");

  choice.alpha_measured = measure_alpha(plans);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const Footprint f = plans[i]->footprint();
    choice.candidates[i].balance = perfmodel::code_balance_stored(
        f.total_bytes(sizeof(T)), static_cast<std::size_t>(a.nnz()),
        static_cast<std::size_t>(a.n_rows), sizeof(T), choice.alpha_measured);
  }

  // Model ranking; stable sort keeps registry order on exact ties, so
  // the model-only path is fully deterministic.
  std::vector<std::size_t> order(plans.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t l, std::size_t r) {
    return choice.candidates[l].balance < choice.candidates[r].balance;
  });
  choice.model_index = order.front();
  choice.chosen_index = choice.model_index;

  if (opts.probe) {
    const std::size_t k =
        opts.probe_candidates <= 0
            ? order.size()
            : std::min<std::size_t>(
                  static_cast<std::size_t>(opts.probe_candidates),
                  order.size());
    std::vector<T> x(static_cast<std::size_t>(a.n_cols), T{1});
    std::vector<T> y(static_cast<std::size_t>(a.n_rows));
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = order[j];
      const MeasureStats s = measure_seconds_stats(
          opts.probe_min_seconds, opts.probe_reps, [&] {
            plans[i]->spmv(std::span<const T>(x), std::span<T>(y),
                           opts.probe_threads);
          });
      choice.candidates[i].probe_seconds = s.min_seconds;
    }
    std::size_t best = choice.chosen_index;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = order[j];
      if (choice.candidates[i].probe_seconds <
          choice.candidates[best].probe_seconds)
        best = i;
    }
    choice.chosen_index = best;
  }

  choice.chosen = choice.candidates[choice.chosen_index].name;
  if (built != nullptr) *built = std::move(plans);
  return choice;
}

template <class T>
std::unique_ptr<FormatPlan<T>> make_auto_plan(const FormatRegistry<T>& reg,
                                              const Csr<T>& a,
                                              const PlanOptions& opts,
                                              const FormatInfo& info) {
  std::vector<std::shared_ptr<const FormatPlan<T>>> plans;
  AutoChoice choice = choose_format(reg, a, opts, &plans);

  obs::gauge("formats.auto.alpha_measured").set(choice.alpha_measured);
  obs::gauge("formats.auto.chosen_index")
      .set(static_cast<double>(choice.chosen_index));
  obs::gauge("formats.auto.model_index")
      .set(static_cast<double>(choice.model_index));
  for (const AutoCandidate& c : choice.candidates) {
    obs::gauge("formats.auto.balance." + c.name).set(c.balance);
    if (c.probe_seconds >= 0.0)
      obs::gauge("formats.auto.probe_seconds." + c.name).set(c.probe_seconds);
  }

  auto chosen = plans[choice.chosen_index];
  return std::make_unique<AutoPlan<T>>(std::move(chosen), std::move(choice),
                                       info);
}

#define SPMVM_INSTANTIATE_AUTO_SELECT(T)                            \
  template AutoChoice choose_format(                                \
      const FormatRegistry<T>&, const Csr<T>&, const PlanOptions&,  \
      std::vector<std::shared_ptr<const FormatPlan<T>>>*);          \
  template std::unique_ptr<FormatPlan<T>> make_auto_plan(           \
      const FormatRegistry<T>&, const Csr<T>&, const PlanOptions&,  \
      const FormatInfo&)

SPMVM_INSTANTIATE_AUTO_SELECT(float);
SPMVM_INSTANTIATE_AUTO_SELECT(double);

}  // namespace spmvm::formats
