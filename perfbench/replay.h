// Running one one-shot request, plain or replayed layer by layer.
//
// RunRequest is what a library caller does: Cpr::FromConfigTexts, policy
// parsing, Cpr::Repair. ReplayRequest performs the same work by calling each
// layer's public function in the order Cpr::RepairImpl and Cpr::CloseLoop
// use them, with a span around every call and counters read from each
// result. The replay is a copy of that stage order, so the traced run
// compares its output with RunRequest's to catch drift.

#ifndef CPR_PERFBENCH_REPLAY_H_
#define CPR_PERFBENCH_REPLAY_H_

#include <vector>

#include "core/cpr.h"
#include "perfbench/check.h"
#include "perfbench/inputs.h"
#include "perfbench/trace.h"

namespace cpr::perfbench {

Result<CprReport> RunRequest(const RepairInput& input);

struct ReplayResult {
  RepairOutput output;
  std::vector<Config> patched_configs;  // For a session built on the result.
};

// One extra call beyond the pipeline's: FindViolations on the input
// (verify.violated_policies). The pipeline's count of impacted traffic
// classes is not replayed: it is no layer's public function.
Result<ReplayResult> ReplayRequest(const RepairInput& input, Tracer* tracer,
                                   Counters* counters);

// Adds the repair/solver/smt counters of one repair's stats.
void AddRepairStats(const RepairStats& stats, Counters* counters);

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_REPLAY_H_
