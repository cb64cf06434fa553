// Incremental re-repair engine orchestration (DESIGN.md §12).
//
// Given a retained RepairSession and a new snapshot of the same lineage,
// with its HARC built from scratch like any snapshot's, the engine (1) diffs
// the new HARC against the session's, ETG by ETG; (2) reuses the baseline
// verdict of every satisfied group whose dETGs and tcETGs are unchanged and
// hands exactly the other groups back to the unchanged repair engine — the
// same per-problem solves a full repair runs; (3) hands the merged edits to
// the shared patch, re-verify and fallback routine (translate/patch.h): a
// from-scratch network and HARC rebuild, a check of every policy, and one
// full-scope repair on the rebuilt snapshot for any residual violation. A
// failed scoped or fallback solve disengages the incremental result entirely
// and the caller runs the full pipeline, so soundness never depends on the
// diff.

#ifndef CPR_SRC_INCREMENTAL_INCREMENTAL_H_
#define CPR_SRC_INCREMENTAL_INCREMENTAL_H_

#include <optional>
#include <utility>
#include <vector>

#include "arc/harc.h"
#include "incremental/session.h"
#include "incremental/stats.h"
#include "netbase/result.h"
#include "repair/repair.h"
#include "topo/network.h"
#include "translate/patch.h"
#include "verify/policy.h"

namespace cpr::incremental {

// What an edit changed, read off two snapshots' HARCs. ETGs compare by
// presence bits and weight overrides (Etg::SameEdges), and only when the
// candidate-edge universes and the aETGs are equal: then subnet ids and
// candidate edges mean the same thing in both snapshots.
struct HarcDiff {
  // The universes or the aETGs differ: nothing lines up, every group is
  // dirty.
  bool global = false;
  // Destinations whose dETG changed, ascending.
  std::vector<SubnetId> dsts;
  // Traffic classes whose tcETG changed under an unchanged dETG, ascending.
  std::vector<std::pair<SubnetId, SubnetId>> tcs;
};

HarcDiff DiffHarcs(const Harc& before, const Harc& after);

struct IncrementalOutcome {
  // Engaged when the incremental path produced a concretely re-verified
  // repair; disengaged when it declined (stats say why) and the caller must
  // run the ordinary pipeline.
  std::optional<PatchedRepair> result;
  IncrementalStats stats;
};

// Runs the incremental path on the new snapshot `network` and its HARC.
// Structural errors (unmappable PC4 paths, a patch breaking the network)
// propagate as Error, mirroring the ordinary pipeline.
Result<IncrementalOutcome> TryIncrementalRepair(const RepairSession& session,
                                                const Network& network, const Harc& harc,
                                                const std::vector<Policy>& policies,
                                                const RepairOptions& options);

}  // namespace cpr::incremental

#endif  // CPR_SRC_INCREMENTAL_INCREMENTAL_H_
