// The repair engine: partitions policies into MaxSMT problems (paper §5.3),
// solves them in one problem-set pass (optionally in parallel), and merges
// the solved models' construct edits into one repair.
//
// In kAllTcs mode there is a single problem over every policied traffic
// class, with the aETG mutable. In kPerDst mode there is one problem per
// destination with at least one violated policy (destinations with none are
// skipped outright — a large part of the paper's speedup), the aETG is held
// fixed so the problems commute, and every destination carrying a PC4
// policy is merged into one problem because edge costs are global.
//
// A repair's output is its construct edits; the translator turns them into
// configuration lines. The only repaired network is the one rebuilt from the
// patched configurations: the core pipeline re-verifies every policy on the
// HARC built from it, which also captures an edit's effect on traffic
// classes no problem encoded (a newly enabled adjacency reaches every
// destination, as OSPF would).

#ifndef CPR_SRC_REPAIR_REPAIR_H_
#define CPR_SRC_REPAIR_REPAIR_H_

#include <memory>
#include <string>
#include <vector>

#include "arc/harc.h"
#include "netbase/deadline.h"
#include "netbase/result.h"
#include "obs/provenance.h"
#include "repair/encoder.h"
#include "repair/options.h"
#include "verify/policy.h"

namespace cpr {

enum class RepairStatus {
  kSuccess,
  kNoViolations,  // Nothing to repair; the outcome carries no edits.
  kPartial,       // Some problems solved and merged, others failed; see
                  // RepairStats::problem_reports for per-problem outcomes.
  kUnsat,         // The policies are jointly unsatisfiable on this topology.
  kTimeout,       // A problem hit the solver time limit.
  kDeadlineExceeded,  // The wall-clock budget was exhausted (or never
                      // existed: a zero/expired deadline) before any solver
                      // work started; the report is clean and empty.
  kUnsupported,   // Backend cannot express the problem (PC4 on internal).
  kError,         // A backend failed internally (e.g. threw an exception).
  kLintRejected,  // The pre-repair lint gate found error-severity findings;
                  // the configurations cannot be trusted to abstract
                  // correctly (override with LintMode::kWarnOnly).
};

inline const char* RepairStatusName(RepairStatus status) {
  switch (status) {
    case RepairStatus::kSuccess:
      return "success";
    case RepairStatus::kNoViolations:
      return "no-violations";
    case RepairStatus::kPartial:
      return "partial";
    case RepairStatus::kUnsat:
      return "unsat";
    case RepairStatus::kTimeout:
      return "timeout";
    case RepairStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case RepairStatus::kUnsupported:
      return "unsupported";
    case RepairStatus::kError:
      return "error";
    case RepairStatus::kLintRejected:
      return "lint-rejected";
  }
  return "?";
}

// Per-problem diagnostic record: every formulated MaxSMT problem gets one,
// whether it solved or failed. `dsts` identifies the problem (the
// destination group it repairs); provenance mirrors MaxSmtResult.
struct ProblemReport {
  std::vector<SubnetId> dsts;
  MaxSmtResult::Status status = MaxSmtResult::Status::kUnsat;
  int attempts = 0;
  std::string backend;
  double solve_seconds = 0;
  int64_t cost = 0;
  std::string message;  // Failure detail (empty on success).
  // Solver-internal counters from the backend that produced the result
  // (CDCL "cdcl.*" / Z3 "z3.*"; see MaxSmtResult::solver_counters).
  std::vector<std::pair<std::string, double>> solver_counters;
  // Provenance. For solved problems: (label, weight) of each soft constraint
  // the optimum violated — the constructs this problem decided to change.
  // For UNSAT problems: the distinct hard-constraint labels (policy tags) in
  // the backend's unsat core.
  std::vector<std::pair<std::string, int64_t>> violated_softs;
  std::vector<std::string> unsat_core_labels;
  // Certification verdict (src/certify): kNone unless the run asked for
  // checking; kFailed results were rerouted/demoted by the failover layer
  // and `certify_message` carries the checker's diagnosis. The certificate
  // itself is retained for artifact emission and post-mortems.
  MaxSmtResult::Certification certification = MaxSmtResult::Certification::kNone;
  std::string certify_message;
  std::shared_ptr<const Certificate> certificate;
  // The construct-level edits this problem's model contributed to the merged
  // repair (empty for failed problems). The incremental engine replays these
  // verbatim for groups the config differ proved untouched.
  RepairEdits edits;

  bool solved() const { return status == MaxSmtResult::Status::kOptimal; }
};

struct RepairStats {
  // Correlation ID echoed from CprOptions::trace_id (empty when the caller
  // set none); joins this repair's stats to its event-log lifecycle.
  std::string trace_id;
  int problems_formulated = 0;
  int problems_solved = 0;
  int problems_failed = 0;
  int destinations_skipped = 0;
  double encode_seconds = 0;
  // Per-problem solve time SUMMED over problems — a CPU-style total that
  // exceeds elapsed time on parallel runs. Display it labeled as a sum.
  double solve_seconds = 0;
  // Elapsed time of the solve phase (all workers, start to join); the number
  // to compare against wall_seconds when judging parallel speedup.
  double solve_wall_seconds = 0;
  double wall_seconds = 0;  // End-to-end, reflecting parallelism.
  int64_t bool_vars = 0;
  int64_t hard_constraints = 0;
  int64_t soft_constraints = 0;
  // Certification totals over the problem reports (all zero with certify
  // off): how many results were checked, how many verified/failed, and how
  // many certificate artifacts were persisted.
  int certify_checked = 0;
  int certify_verified = 0;
  int certify_failed = 0;
  int certify_artifacts = 0;
  // One entry per formulated problem, in problem order.
  std::vector<ProblemReport> problem_reports;
  // Sum of per-problem solver counters across all problem reports.
  std::vector<std::pair<std::string, double>> solver_counter_totals;
  // Filled by the core pipeline's lint gate and post-translate audit (all
  // zero when linting is disabled); see lint/lint.h.
  int lint_errors = 0;
  int lint_warnings = 0;
  int lint_audit_new_findings = 0;
};

struct RepairOutcome {
  RepairStatus status = RepairStatus::kSuccess;
  // Construct-level changes: what the translator turns into configuration
  // lines.
  RepairEdits edits;
  // Total MaxSMT cost across problems: the predicted number of
  // configuration changes (§5.2).
  int64_t predicted_cost = 0;
  RepairStats stats;
  // One ProvenanceChain per emitted edit (policy -> problem -> flipped soft
  // -> construct), plus per-problem unsat cores. `config_changes` is filled
  // later by the core pipeline once the translator has emitted lines.
  obs::ProvenanceReport provenance;

  bool ok() const { return status == RepairStatus::kSuccess || status == RepairStatus::kNoViolations; }

  // kPartial still carries a merged (sub)repair worth translating; the
  // failed problems' policies simply remain violated.
  bool HasRepair() const { return ok() || status == RepairStatus::kPartial; }
};

// Splits the policies into MaxSMT problems per the chosen granularity.
// Exposed for tests and the scalability benches.
std::vector<RepairProblem> PartitionProblems(const Harc& harc,
                                             const std::vector<Policy>& policies,
                                             const RepairOptions& options);

// Like PartitionProblems but WITHOUT the violated-destination filter: one
// problem per must-solve-together destination group (shared PC4 costs,
// isolation pairs) over every policied destination, in deterministic order.
// The incremental engine records a baseline entry per group so that on the
// next snapshot clean groups reuse their cached verdicts or edits and only
// dirty groups re-solve. Skips no verification itself — grouping depends
// only on the policy set, never on current violations.
std::vector<RepairProblem> PartitionAllGroups(const Harc& harc,
                                              const std::vector<Policy>& policies,
                                              const RepairOptions& options);

// One MaxSMT problem and the HARC it was partitioned on. A problem set may
// mix HARCs: the compression pre-pass solves every group's quotient problems
// in one pass.
struct HarcProblem {
  const Harc* harc = nullptr;
  RepairProblem problem;
};

// The problem-set pass. Encodes every problem first, then solves them on
// min(num_threads, problems) drain tasks that take the problems largest
// first (most hard constraints, ties in input order); each task owns one
// solver stack. The tasks run on `options.solve_runner` when one is set and
// on local threads otherwise. Reports, certificates, edits and provenance
// merge in input order: problem i is ProblemReport i and provenance problem
// i. `options.deadline` bounds every solver call. An empty set is
// kNoViolations. Structural encoding errors are reported as Error.
Result<RepairOutcome> SolveProblemSet(const std::vector<HarcProblem>& problems,
                                      const RepairOptions& options);

// Computes a repair: PartitionProblems, then the problem-set pass. Structural
// errors (e.g. an unmappable PC4 path) are reported as Error; solver-level
// failures land in RepairOutcome::status.
Result<RepairOutcome> ComputeRepair(const Harc& original,
                                    const std::vector<Policy>& policies,
                                    const RepairOptions& options);

}  // namespace cpr

#endif  // CPR_SRC_REPAIR_REPAIR_H_
