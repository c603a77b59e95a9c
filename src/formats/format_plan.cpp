#include "formats/format_plan.hpp"

#include "obs/metrics.hpp"

namespace spmvm::formats::detail {

namespace {

const char* phase_name(KernelOp op) {
  switch (op) {
    case KernelOp::spmv:
      return "spmv";
    case KernelOp::spmv_axpby:
      return "spmv_axpby";
    case KernelOp::spmmv:
      return "spmmv";
  }
  return "?";
}

}  // namespace

KernelProbe::KernelProbe(const FormatInfo& info, KernelOp op, int k,
                         offset_t nnz, std::uint64_t bytes, index_t n_rows)
    : span_(info.kernel_span, bytes),
      ledger_(obs::RoofLane::host, info.name, phase_name(op)) {
  static obs::Counter& c_calls = obs::counter("kernel.calls");
  static obs::Counter& c_nnz = obs::counter("kernel.nnz");
  static obs::Counter& c_bytes = obs::counter("kernel.bytes");
  static const bool help = [] {
    obs::set_metric_help("kernel.calls", "Host spMVM kernel invocations");
    obs::set_metric_help("kernel.nnz",
                         "Non-zeros processed by host spMVM kernels");
    obs::set_metric_help("kernel.bytes",
                         "Bytes streamed by host spMVM kernels (stored "
                         "footprint plus RHS/LHS vectors, Eq. 1 accounting)");
    return true;
  }();
  (void)help;
  const auto n = static_cast<std::uint64_t>(nnz);
  c_calls.add();
  c_nnz.add(n);
  c_bytes.add(bytes);
  if (op == KernelOp::spmmv) span_.set_arg("k", static_cast<double>(k));
  if (op == KernelOp::spmv_axpby) span_.set_arg("axpby", 1.0);
  if (ledger_.active()) {
    obs::WorkDesc w;
    w.bytes = bytes;
    w.flops = 2 * static_cast<std::uint64_t>(k) * n;
    w.nnz = n;
    w.alpha = n > 0 ? static_cast<double>(n_rows) / static_cast<double>(n)
                    : 0.0;
    ledger_.set_work(w);
  }
}

}  // namespace spmvm::formats::detail
