// perfbench: runs one workload and prints its metrics, ending with one
// JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload serve_mix|cg_solve|dist_cg --seed N --seconds S
//             --trace 0|1
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// JSON line is still printed), 2 on a usage or runtime error (no JSON).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness/workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(val.c_str());
    else if (key == "--trace") opt.trace = val == "1";
    else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be given and positive\n");
    return 2;
  }
  perfbench::Report rep;
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  try {
    if (opt.workload == "serve_mix") perfbench::run_serve_mix(opt, rep);
    else if (opt.workload == "cg_solve") perfbench::run_cg_solve(opt, rep);
    else if (opt.workload == "dist_cg") perfbench::run_dist_cg(opt, rep);
    else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  rep.finish();
  return rep.correct() ? 0 : 1;
}
