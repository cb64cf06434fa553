// One repair path (paper §3, DESIGN.md §7): what every repair does after its
// solve.
//
// The plain engine, the compression pre-pass (DESIGN.md §11) and the
// incremental engine (§12) differ only in how they produce construct edits;
// all three hand the core pipeline the same PatchedRepair. The pre-passes get
// there through PatchAndReverify: translate the first-phase edits onto the
// input snapshot, rebuild the network and HARC from scratch, re-check every
// policy, and give whatever is still violated to one ordinary ComputeRepair
// on the rebuilt snapshot, whose edits stack on top. A pre-pass only decides
// how much of the work its first phase absorbs; soundness rests on this one
// concrete re-verify.

#ifndef CPR_SRC_TRANSLATE_PATCH_H_
#define CPR_SRC_TRANSLATE_PATCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arc/harc.h"
#include "netbase/result.h"
#include "obs/provenance.h"
#include "repair/repair.h"
#include "topo/network.h"
#include "translate/translator.h"
#include "verify/policy.h"

namespace cpr {

// A translated repair, ready for the core pipeline's close-the-loop step.
struct PatchedRepair {
  RepairStatus status = RepairStatus::kSuccess;
  RepairEdits edits;
  std::vector<Config> patched_configs;
  NetworkAnnotations patched_annotations;
  std::vector<std::string> change_log;
  // One diff against the input configurations (§8.3), however many phases
  // stacked their patches.
  std::string diff_text;
  int lines_changed = 0;
  int64_t predicted_cost = 0;
  RepairStats stats;
  obs::ProvenanceReport provenance;
  // Translator traces in application order, for the provenance config-lines
  // join.
  std::vector<EditTrace> edit_traces;
  // The re-verified patched network and HARC from PatchAndReverify, for the
  // pipeline to reuse instead of rebuilding; null on the plain path.
  std::unique_ptr<Network> rebuilt_network;
  std::unique_ptr<Harc> rebuilt_harc;
  // The policies violated on rebuilt_harc, when PatchAndReverify checked
  // that HARC; nullopt when nothing checked it (the plain path, or a
  // fallback rebuilt the snapshot after the check).
  std::optional<std::vector<Policy>> rebuilt_violations;

  // kPartial still carries a (sub)repair; kUnsat, kTimeout and the other
  // failures carry nothing to translate.
  bool HasRepair() const {
    return status == RepairStatus::kSuccess || status == RepairStatus::kNoViolations ||
           status == RepairStatus::kPartial;
  }
};

// Starts a repair from a finished solve: its status, edits, predicted cost,
// stats and provenance. Nothing is translated yet.
PatchedRepair FromSolve(RepairOutcome solved);

// Translates `repair->edits` onto `network`: the patched configurations and
// annotations, the change log and edit traces, and the diff.
Status TranslateRepair(const Network& network, PatchedRepair* repair);

// Which policies the fallback solve of PatchAndReverify re-repairs.
enum class FallbackScope {
  kResidual,     // Only those the first phase left violated (compression).
  kAllPolicies,  // Every policy: nothing of the first phase's problem split
                 // is trusted (incremental re-repair).
};

// The pre-passes' shared tail. Translates the first-phase `repair` onto
// `network` (the input snapshot), rebuilds the network and HARC, and checks
// `policies`. If any is still violated, one ComputeRepair with
// `fallback_options` runs on the rebuilt snapshot: its stats and provenance
// fold into `repair` (its problems numbered after the first phase's), its
// edits are translated on top, and the final snapshot is rebuilt. A fallback
// without a repair leaves the first-phase patch standing and
// `repair->status` at the fallback's status; each pre-pass applies its own
// rule to that. `repair->rebuilt_violations` keeps the check's verdict
// unless the fallback rebuilt the snapshot after it. Returns the policies
// the first phase left violated (empty: no fallback ran).
Result<std::vector<Policy>> PatchAndReverify(const Network& network,
                                             const std::vector<Policy>& policies,
                                             const RepairOptions& fallback_options,
                                             FallbackScope scope, PatchedRepair* repair);

}  // namespace cpr

#endif  // CPR_SRC_TRANSLATE_PATCH_H_
