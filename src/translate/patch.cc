#include "translate/patch.h"

#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "obs/span.h"
#include "verify/checker.h"

namespace cpr {

namespace {

template <typename T>
void MoveAppend(std::vector<T>&& from, std::vector<T>* into) {
  into->insert(into->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
}

// Folds the fallback's stats into the first phase's: sums every count and
// time (certification totals included), appends the problem reports —
// `from`'s problem i becomes `into`'s problem (old size + i), and the caller
// renumbers provenance to match — and merges solver_counter_totals by name.
void MergeRepairStats(RepairStats from, RepairStats* into) {
  into->problems_formulated += from.problems_formulated;
  into->problems_solved += from.problems_solved;
  into->problems_failed += from.problems_failed;
  into->destinations_skipped += from.destinations_skipped;
  into->encode_seconds += from.encode_seconds;
  into->solve_seconds += from.solve_seconds;
  into->solve_wall_seconds += from.solve_wall_seconds;
  into->wall_seconds += from.wall_seconds;
  into->bool_vars += from.bool_vars;
  into->hard_constraints += from.hard_constraints;
  into->soft_constraints += from.soft_constraints;
  into->certify_checked += from.certify_checked;
  into->certify_verified += from.certify_verified;
  into->certify_failed += from.certify_failed;
  into->certify_artifacts += from.certify_artifacts;
  MoveAppend(std::move(from.problem_reports), &into->problem_reports);
  std::map<std::string, double> totals(into->solver_counter_totals.begin(),
                                       into->solver_counter_totals.end());
  for (const auto& [name, value] : from.solver_counter_totals) {
    totals[name] += value;
  }
  into->solver_counter_totals.assign(totals.begin(), totals.end());
}

// Translates `edits` onto `base` and stacks the result on `repair`. The diff
// is always taken against `input`: a fallback's edits land on the
// first-phase snapshot, but lines_changed means end to end.
Status TranslateOnto(const Network& input, const Network& base, const RepairEdits& edits,
                     PatchedRepair* repair) {
  obs::StageSpan span("pipeline.translate");
  Result<TranslationResult> translation = TranslateEdits(base, edits);
  if (!translation.ok()) {
    return translation.error();
  }
  if (&base != &input) {
    for (size_t i = 0; i < input.configs().size(); ++i) {
      translation->device_diffs[i] =
          DiffConfigs(input.configs()[i], translation->patched_configs[i]);
    }
  }
  repair->lines_changed = translation->LinesChanged();
  repair->diff_text = translation->DiffText(input);
  repair->patched_configs = std::move(translation->patched_configs);
  repair->patched_annotations = std::move(translation->annotations);
  MoveAppend(std::move(translation->change_log), &repair->change_log);
  MoveAppend(std::move(translation->edit_traces), &repair->edit_traces);
  return Status::Ok();
}

// Rebuilds the network and HARC from the patched configurations, from
// scratch. The new HARC has not been checked yet.
Status Rebuild(PatchedRepair* repair) {
  obs::StageSpan span("pipeline.rebuild");
  repair->rebuilt_violations.reset();
  Result<Network> built = Network::Build(repair->patched_configs, repair->patched_annotations);
  if (!built.ok()) {
    return Error("patched configurations no longer form a valid network: " +
                 built.error().message());
  }
  repair->rebuilt_network = std::make_unique<Network>(std::move(built).value());
  repair->rebuilt_harc = std::make_unique<Harc>(Harc::Build(*repair->rebuilt_network));
  return Status::Ok();
}

}  // namespace

PatchedRepair FromSolve(RepairOutcome solved) {
  PatchedRepair repair;
  repair.status = solved.status;
  repair.edits = std::move(solved.edits);
  repair.predicted_cost = solved.predicted_cost;
  repair.stats = std::move(solved.stats);
  repair.provenance = std::move(solved.provenance);
  return repair;
}

Status TranslateRepair(const Network& network, PatchedRepair* repair) {
  return TranslateOnto(network, network, repair->edits, repair);
}

Result<std::vector<Policy>> PatchAndReverify(const Network& network,
                                             const std::vector<Policy>& policies,
                                             const RepairOptions& fallback_options,
                                             FallbackScope scope, PatchedRepair* repair) {
  Status patched = TranslateRepair(network, repair);
  if (patched.ok()) {
    patched = Rebuild(repair);
  }
  if (!patched.ok()) {
    return patched.error();
  }
  std::vector<Policy> residual = FindViolations(*repair->rebuilt_harc, policies);
  repair->rebuilt_violations = residual;
  if (residual.empty()) {
    return residual;
  }

  Result<RepairOutcome> fallback =
      ComputeRepair(*repair->rebuilt_harc,
                    scope == FallbackScope::kResidual ? residual : policies, fallback_options);
  if (!fallback.ok()) {
    return fallback.error();
  }
  const int problem_base = static_cast<int>(repair->stats.problem_reports.size());
  for (obs::ProvenanceChain& chain : fallback->provenance.chains) {
    chain.problem += problem_base;
  }
  for (obs::UnsatCoreReport& core : fallback->provenance.unsat_cores) {
    core.problem += problem_base;
  }
  MoveAppend(std::move(fallback->provenance.chains), &repair->provenance.chains);
  MoveAppend(std::move(fallback->provenance.orphan_edits), &repair->provenance.orphan_edits);
  MoveAppend(std::move(fallback->provenance.unsat_cores), &repair->provenance.unsat_cores);
  MergeRepairStats(std::move(fallback->stats), &repair->stats);
  if (!fallback->HasRepair()) {
    repair->status = fallback->status;
    return residual;
  }
  repair->status = fallback->status == RepairStatus::kPartial ? RepairStatus::kPartial
                                                               : RepairStatus::kSuccess;
  repair->predicted_cost += fallback->predicted_cost;
  patched = TranslateOnto(network, *repair->rebuilt_network, fallback->edits, repair);
  if (patched.ok()) {
    patched = Rebuild(repair);
  }
  if (!patched.ok()) {
    return patched.error();
  }
  AppendEdits(fallback->edits, &repair->edits);
  return residual;
}

}  // namespace cpr
