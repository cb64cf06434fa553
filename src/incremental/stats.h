// Metrics of one incremental re-repair attempt, for the "incremental"
// stats-json section and the incremental.* counters. This header is a leaf
// (no dependencies beyond the standard library) so core/cpr.h can embed the
// struct in CprReport without pulling the incremental engine into every
// translation unit.

#ifndef CPR_SRC_INCREMENTAL_STATS_H_
#define CPR_SRC_INCREMENTAL_STATS_H_

#include <string>

namespace cpr::incremental {

struct IncrementalStats {
  // A baseline session was supplied (cpr repair --incremental / a cprd
  // same-lineage re-submission).
  bool attempted = false;
  // The incremental path produced the final report. When false with
  // attempted true, skipped_reason says why the ordinary pipeline ran.
  bool applied = false;
  std::string skipped_reason;

  // --- Differ / HARC preparation ---
  // Devices whose configuration changed relative to the baseline snapshot.
  int devices_changed = 0;
  // The differ proved the change is not destination-scopable (topology,
  // adjacency, cost, or process changes): every ETG and group is dirty.
  bool everything_dirty = false;
  // The baseline HARC was cloned onto the new snapshot (only dirty
  // destinations rebuilt) instead of rebuilt from scratch.
  bool harc_cloned = false;
  int dirty_destinations = 0;
  int dirty_traffic_classes = 0;

  // --- Group reuse ---
  int groups_total = 0;
  // Clean groups whose baseline verdict (satisfied) was reused: neither
  // verified nor solved before the final concrete re-verification.
  int groups_reused = 0;
  // Dirty (or baseline-unsatisfied) groups handed back to the repair engine.
  int groups_resolved = 0;

  int warm_hits = 0;  // Always 0 (no warm solving); benchmark readers remain.

  // The incremental result left residual violations after the concrete
  // re-verification (or the scoped solve failed) and the ordinary
  // full-repair pipeline ran instead. Soundness never depends on the
  // dirty-set analysis: this flag is how a wrong dirty set surfaces.
  bool fell_back = false;

  double diff_seconds = 0;
  double clone_seconds = 0;
  double solve_seconds = 0;
  double verify_seconds = 0;
};

}  // namespace cpr::incremental

#endif  // CPR_SRC_INCREMENTAL_STATS_H_
