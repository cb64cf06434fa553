// The workloads. Each sets up (generating its inputs from the seed,
// several times when measuring, reporting the median as setup_s), measures
// closed loops for about the requested seconds, checks every output, and
// returns its metrics. Human-readable detail goes to stdout before the
// final JSON line; an Error means the run could not be set up at all.

#ifndef CPR_PERFBENCH_WORKLOADS_H_
#define CPR_PERFBENCH_WORKLOADS_H_

#include <string>

#include "netbase/result.h"
#include "perfbench/args.h"
#include "perfbench/report.h"

namespace cpr::perfbench {

// Untraced runs set up this many times and report the median.
inline constexpr int kSetupRepeats = 3;

// fattree-sym: one client repairing in-memory texts in whole passes over
// the workload's requests.
Result<RunResult> RunFatTreeSym(const BenchArgs& args, const std::string& workdir);

// cprd-lineage: two clients against an in-process daemon, snapshots on disk
// under `workdir`.
Result<RunResult> RunCprdLineage(const BenchArgs& args, const std::string& workdir);

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_WORKLOADS_H_
