// Repair session retention for incremental re-repair (DESIGN.md §12).
//
// A RepairSession captures everything worth keeping about a repaired (or
// verified-clean) configuration snapshot: the parsed network, its HARC, the
// policy set, and a per-group verdict record over the repair engine's
// must-solve-together destination groups. When the next snapshot of the
// same lineage arrives, the incremental engine diffs its HARC against the
// session's and reuses every clean group's verdict, re-solving only the
// dirty ones. A session holds no solver state and is never mutated once
// built.

#ifndef CPR_SRC_INCREMENTAL_SESSION_H_
#define CPR_SRC_INCREMENTAL_SESSION_H_

#include <memory>
#include <utility>
#include <vector>

#include "arc/harc.h"
#include "netbase/result.h"
#include "repair/options.h"
#include "repair/repair.h"
#include "topo/network.h"
#include "verify/policy.h"

namespace cpr::incremental {

// One must-solve-together destination group (the repair engine's
// PartitionAllGroups unit) with its baseline verdict.
struct GroupRecord {
  std::vector<SubnetId> dsts;
  std::vector<std::pair<SubnetId, SubnetId>> tcs;
  std::vector<Policy> policies;
  // Every policy of the group held on the session's HARC. Clean groups with
  // this set reuse the verdict outright on the next snapshot.
  bool satisfied = false;
};

// Retained state of one snapshot. `harc` is built over `network`; later
// re-repairs diff their own HARC against it and never mutate it.
struct RepairSession {
  std::shared_ptr<const Network> network;
  std::shared_ptr<const Harc> harc;
  std::vector<Policy> policies;
  std::vector<GroupRecord> groups;
};

// Builds a session for a snapshot — typically the patched configurations of
// a Sound repair, so that the groups all verify satisfied and the next edit
// re-solves only what it touched. Costs one HARC build plus one full
// verification; callers amortize it across the re-repairs it enables.
Result<std::shared_ptr<RepairSession>> BuildSession(std::vector<Config> configs,
                                                    NetworkAnnotations annotations,
                                                    std::vector<Policy> policies,
                                                    const RepairOptions& options);

// The same session from a snapshot the caller has already built and
// checked: `violations` are the policies violated on `harc` (a repair's
// residual_graph_violations with its repaired_network/repaired_harc). Costs
// only the group partition.
std::shared_ptr<RepairSession> SessionFromVerified(std::shared_ptr<const Network> network,
                                                   std::shared_ptr<const Harc> harc,
                                                   std::vector<Policy> policies,
                                                   const std::vector<Policy>& violations,
                                                   const RepairOptions& options);

}  // namespace cpr::incremental

#endif  // CPR_SRC_INCREMENTAL_SESSION_H_
