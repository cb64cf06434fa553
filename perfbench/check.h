// The benchmark's own correctness check, independent of the report.
//
// A repair's output is re-parsed from its printed configuration texts, the
// network and HARC are rebuilt, every policy is re-verified (and, where the
// workload validates, re-simulated), and changed lines are counted with
// DiffConfigText. sound_frac and lines_changed come from this check; the
// report's own claims are only compared against it.

#ifndef CPR_PERFBENCH_CHECK_H_
#define CPR_PERFBENCH_CHECK_H_

#include <string>
#include <vector>

#include "core/cpr.h"

namespace cpr::perfbench {

// What one repair produced, as text: enough to check it and to tell two
// runs of the same request apart.
struct RepairOutput {
  RepairStatus status = RepairStatus::kSuccess;
  std::vector<std::string> patched_texts;  // Empty when nothing was patched.
  NetworkAnnotations patched_annotations;
  int lines_changed = 0;
  std::vector<Policy> residual_graph;
  std::vector<Policy> residual_sim;

  bool ClaimsSound() const;
};

RepairOutput OutputOf(const CprReport& report);
bool SameOutput(const RepairOutput& a, const RepairOutput& b);

// Errored, timed out, partial or out of budget: the request did not produce
// a complete answer.
bool FailedStatus(RepairStatus status);

struct CheckVerdict {
  bool sound = false;
  int lines_changed = 0;
  std::vector<Policy> graph_violations;
  std::vector<Policy> sim_violations;
  std::string error;  // Non-empty: the output could not even be rebuilt.
};

// Checks `output` of a request over `original_texts` with `policy_text`.
CheckVerdict CheckOutput(const std::vector<std::string>& original_texts,
                         const std::string& policy_text, const RepairOutput& output,
                         bool simulate, int failure_cap);

// Empty when the report's claims match the check; otherwise what differs.
std::string Disagreement(const RepairOutput& output, const CheckVerdict& verdict,
                         bool simulate);

}  // namespace cpr::perfbench

#endif  // CPR_PERFBENCH_CHECK_H_
