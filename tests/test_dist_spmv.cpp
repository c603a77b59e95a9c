// Integration tests: distributed spMVM through a CommPlan over the
// message runtime must match the serial product for all three
// communication schemes, matrices and rank counts.
#include "dist/comm_plan.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <tuple>

#include "matgen/generators.hpp"
#include "test_helpers.hpp"

namespace spmvm::dist {
namespace {

using spmvm::testing::random_csr;
using spmvm::testing::random_vector;

std::vector<double> run_distributed(const Csr<double>& a, int n_ranks,
                                    CommScheme scheme,
                                    const std::vector<double>& x) {
  const auto part = partition_balanced_nnz(a, n_ranks);
  std::vector<double> y(static_cast<std::size_t>(a.n_rows));
  std::mutex y_mutex;
  msg::Runtime::run(n_ranks, [&](msg::Comm& comm) {
    const auto d = distribute(a, part, comm.rank());
    handshake_pattern(comm, d);
    const index_t row0 = part.begin(comm.rank());
    std::vector<double> x_local(x.begin() + row0,
                                x.begin() + part.end(comm.rank()));
    std::vector<double> y_local(static_cast<std::size_t>(d.n_local));
    CommPlan<double> plan(comm, d, scheme);
    plan.spmv(std::span<const double>(x_local), std::span<double>(y_local));
    std::lock_guard<std::mutex> lock(y_mutex);
    std::copy(y_local.begin(), y_local.end(),
              y.begin() + row0);
  });
  return y;
}

class DistSpmvSweep
    : public ::testing::TestWithParam<std::tuple<int, CommScheme>> {};

TEST_P(DistSpmvSweep, MatchesSerialReference) {
  const auto& [n_ranks, scheme] = GetParam();
  const auto a = random_csr<double>(173, 173, 0, 12, 42);
  const auto x = random_vector<double>(173, 43);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  const auto got = run_distributed(a, n_ranks, scheme, x);
  // The local/non-local split reorders partial sums; compare within a
  // tight floating-point tolerance.
  spmvm::testing::expect_vectors_near<double>(expected, got, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndSchemes, DistSpmvSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 7),
                       ::testing::Values(CommScheme::vector_mode,
                                         CommScheme::naive_overlap,
                                         CommScheme::task_mode)));

TEST(DistSpmv, BandedMatrixAllSchemes) {
  const auto a = make_banded<double>(256, 4);
  const auto x = random_vector<double>(256, 7);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  for (const auto scheme :
       {CommScheme::vector_mode, CommScheme::naive_overlap,
        CommScheme::task_mode}) {
    SCOPED_TRACE(to_string(scheme));
    spmvm::testing::expect_vectors_near<double>(
        expected, run_distributed(a, 4, scheme, x), 1e-13);
  }
}

TEST(DistSpmv, HmepLikeMatrixAcrossRanks) {
  GenConfig cfg;
  cfg.scale = 2048;
  const auto a = make_hmep<double>(cfg);
  const auto x = random_vector<double>(a.n_rows, 9);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  spmvm::testing::expect_vectors_near<double>(
      expected, run_distributed(a, 5, CommScheme::task_mode, x), 1e-13);
}

TEST(DistSpmv, PowerIterationsConvergeIdenticallyAcrossSchemes) {
  const auto a = make_poisson2d<double>(20, 20);
  const auto part = partition_uniform(a.n_rows, 4);
  std::vector<std::vector<double>> results;
  for (const auto scheme :
       {CommScheme::vector_mode, CommScheme::naive_overlap,
        CommScheme::task_mode}) {
    std::vector<double> full(static_cast<std::size_t>(a.n_rows));
    std::mutex m;
    msg::Runtime::run(4, [&](msg::Comm& comm) {
      const auto d = distribute(a, part, comm.rank());
      std::vector<double> x0(static_cast<std::size_t>(d.n_local), 1.0);
      const auto x = run_power_iterations(
          comm, d, std::span<const double>(x0), 10, scheme);
      std::lock_guard<std::mutex> lock(m);
      std::copy(x.begin(), x.end(), full.begin() + part.begin(comm.rank()));
    });
    results.push_back(std::move(full));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(DistSpmv, EmptyRowsHandled) {
  Coo<double> coo(40, 40);
  for (index_t i = 0; i < 40; i += 2) coo.add(i, (i + 20) % 40, 1.0);
  const auto a = Csr<double>::from_coo(std::move(coo));
  const auto x = random_vector<double>(40, 11);
  const auto expected = spmvm::testing::reference_spmv(a, x);
  spmvm::testing::expect_vectors_near<double>(
      expected, run_distributed(a, 4, CommScheme::task_mode, x), 1e-13);
}

}  // namespace
}  // namespace spmvm::dist
