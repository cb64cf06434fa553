// Incremental re-repair engine orchestration (DESIGN.md §12).
//
// Given a retained RepairSession and a new snapshot of the same lineage, the
// engine (1) uses the config differ's dirty set to clone the session's HARC
// onto the new snapshot, rebuilding only dirty destinations; (2) reuses the
// baseline verdict of every clean satisfied group and hands exactly the
// dirty groups back to the unchanged repair engine — the same per-problem
// solves a full repair runs; (3) hands the merged edits to the shared
// patch, re-verify and fallback routine (translate/patch.h): a from-scratch
// network and HARC rebuild, a check of every policy, and one full-scope
// repair on the rebuilt snapshot for any residual violation. A failed
// scoped or fallback solve disengages the incremental result entirely and
// the caller runs the full pipeline, so soundness never depends on the
// dirty-set analysis or the HARC clone.

#ifndef CPR_SRC_INCREMENTAL_INCREMENTAL_H_
#define CPR_SRC_INCREMENTAL_INCREMENTAL_H_

#include <optional>
#include <vector>

#include "arc/harc.h"
#include "incremental/dirty.h"
#include "incremental/session.h"
#include "incremental/stats.h"
#include "netbase/result.h"
#include "repair/repair.h"
#include "topo/network.h"
#include "translate/patch.h"
#include "verify/policy.h"

namespace cpr::incremental {

struct IncrementalOutcome {
  // Engaged when the incremental path produced a concretely re-verified
  // repair; disengaged when it declined (stats say why) and the caller must
  // run the ordinary pipeline.
  std::optional<PatchedRepair> result;
  IncrementalStats stats;
};

// Clones the session's HARC onto `network`, rebuilding exactly the dirty
// destinations and traffic classes. nullopt when the dirt is global or the
// snapshots are not structurally clone-compatible (the caller builds from
// scratch). Updates the preparation fields of `stats`.
std::optional<Harc> PrepareHarc(const RepairSession& session, const Network& network,
                                const DirtySet& dirty, IncrementalStats* stats);

// Runs the incremental path on a prepared snapshot. `harc` is the current
// snapshot's HARC (ideally from PrepareHarc); `seed` carries the stats
// accumulated during preparation and is extended in place into
// outcome.stats. Structural errors (unmappable PC4 paths, a patch breaking
// the network) propagate as Error, mirroring the ordinary pipeline.
Result<IncrementalOutcome> TryIncrementalRepair(const RepairSession& session,
                                                const Network& network, const Harc& harc,
                                                const DirtySet& dirty,
                                                const std::vector<Policy>& policies,
                                                const RepairOptions& options,
                                                const IncrementalStats& seed);

}  // namespace cpr::incremental

#endif  // CPR_SRC_INCREMENTAL_INCREMENTAL_H_
