// The benchmark's workloads. Each runs against the library's public
// APIs, checks every result against references computed in the
// benchmark, and adds its metrics to the report: the end-to-end set in
// an untraced run, the per-layer set (from the benchmark's own spans)
// in a traced run.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/report.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

void run_serve_mix(const Options& opt, Report& rep);
void run_cg_solve(const Options& opt, Report& rep);
void run_dist_cg(const Options& opt, Report& rep);

/// The 3D 7-point Poisson matrix with a seeded diagonal shift in
/// [0, 0.05): SPD, and different in its values for every seed.
spmvm::Csr<double> seeded_poisson3d(int n, std::uint64_t seed);

/// A seeded right-hand side with entries in [-1, 1).
std::vector<double> seeded_vector(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
