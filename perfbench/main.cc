// CPR benchmark: runs one named workload from a seed and prints its metrics.
//
//   cpr_perfbench --workload fattree-sym|cprd-lineage --seed <n> --seconds <s> --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the requests
// layer by layer and prints the per-layer metrics. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Snapshots and span files go under $CPR_PERFBENCH_WORKDIR (default
// .bench_build/work in the current directory).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/args.h"
#include "perfbench/workloads.h"

int main(int argc, char** argv) {
  using namespace cpr::perfbench;
  const std::vector<std::string> raw(argv + 1, argv + argc);
  cpr::Result<BenchArgs> args = ParseArgs(raw);
  if (!args.ok()) {
    std::fprintf(stderr,
                 "error: %s\nusage: %s --workload fattree-sym|cprd-lineage "
                 "--seed <n> --seconds <s> --trace 0|1\n",
                 args.error().message().c_str(), argv[0]);
    return 2;
  }
  const char* env_workdir = std::getenv("CPR_PERFBENCH_WORKDIR");
  const std::string workdir = env_workdir != nullptr ? env_workdir : ".bench_build/work";
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", workdir.c_str(), ec.message().c_str());
    return 1;
  }

  cpr::Result<RunResult> result = args->workload == kCprdLineage
                                      ? RunCprdLineage(*args, workdir)
                                      : RunFatTreeSym(*args, workdir);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.error().message().c_str());
    return 1;
  }
  for (const std::string& problem : result->problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n", ResultJson(*result).c_str());
  return result->correct() ? 0 : 1;
}
