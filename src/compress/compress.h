// Symmetry-quotient compression pre-pass orchestration (DESIGN.md §11).
//
// The pre-pass mirrors the repair engine's per-destination problem
// partition. For each destination group it pins the group's policy-endpoint
// subnets, computes a pinned behavioral partition (partition.h), builds the
// representative quotient network (quotient.h) and partitions the group's
// mapped policies into quotient problems. One problem-set pass of the
// unchanged repair engine solves every group's quotient problems together;
// each group whose problems all solved then has its abstract edits lifted
// back to every concrete router (lift.h), in group order. The lifted patch
// then goes through the shared patch, re-verify and fallback routine
// (translate/patch.h): translated and re-verified on the *concrete* network,
// with every policy still violated — whether its group was never
// compressible (PC4/PC5, poor ratio, quotient failure) or its lifted patch
// fell short — re-repaired by one ordinary uncompressed ComputeRepair on the
// patched network. Correctness therefore never depends on the abstraction;
// compression only decides how much of the work the small instance absorbs.

#ifndef CPR_SRC_COMPRESS_COMPRESS_H_
#define CPR_SRC_COMPRESS_COMPRESS_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "compress/partition.h"
#include "compress/quotient.h"
#include "netbase/result.h"
#include "repair/repair.h"
#include "translate/patch.h"
#include "verify/policy.h"

namespace cpr::compress {

// What the pre-pass did, for the "compression" stats-json section and the
// compression.* counters. quotient_ratio is 1.0 whenever compression did not
// apply (the clean-fallback signature check.sh asserts on asymmetric input).
struct CompressionStats {
  bool attempted = false;
  bool applied = false;
  std::string skipped_reason;  // Why the pre-pass declined (when !applied).
  int routers = 0;
  int base_blocks = 0;
  // Concrete routers divided by the mean quotient size over compressed
  // groups; 1.0 when nothing compressed.
  double quotient_ratio = 1.0;
  int groups_total = 0;
  int groups_compressed = 0;
  int groups_fallback = 0;
  int abstract_edits = 0;
  int lifted_edits = 0;
  // Policies of successfully compressed groups still violated after the
  // lifted patch was applied (they joined the uncompressed fallback).
  int lift_verify_failures = 0;
  // All policies the concrete fallback repair had to handle.
  int fallback_policies = 0;
  int cache_hits = 0;
  int cache_misses = 0;
  double partition_seconds = 0;
  double quotient_seconds = 0;
  double solve_seconds = 0;
  double lift_seconds = 0;
};

using CompressedRepairResult = PatchedRepair;

struct CompressionOutcome {
  // Engaged when the pre-pass produced a repair; disengaged when it declined
  // (too small, not symmetric enough, nothing compressible) and the caller
  // should run the uncompressed pipeline. `stats` is meaningful either way.
  std::optional<PatchedRepair> result;
  CompressionStats stats;
};

// Cross-request cache of the base partition and per-pin-signature quotients,
// scoped to one configuration snapshot. The serve layer owns one per cached
// snapshot (differ-driven eviction drops it with the snapshot); the network
// generation id is the identity guard — a different network clears the
// cache. (A raw pointer guard would ABA: a freed network whose address is
// recycled by a new Network would false-hit and serve a stale partition.)
class CompressionCache {
 public:
  Partition Base(const Network& network);
  std::shared_ptr<const Quotient> Find(const Network& network, const std::string& pin_key);
  void Insert(const Network& network, const std::string& pin_key,
              std::shared_ptr<const Quotient> quotient);

  int64_t hits() const;
  int64_t misses() const;

 private:
  void RebindLocked(const Network& network);

  mutable std::mutex mu_;
  uint64_t generation_ = 0;
  std::optional<Partition> base_;
  std::map<std::string, std::shared_ptr<const Quotient>> quotients_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

// Runs the pre-pass under `options.compress` (never called with mode kOff).
// Only per-destination granularity compresses; the caller checks. A failure
// anywhere in the pre-pass — the abstraction, the lifted patch or its
// fallback repair — only declines compression; the uncompressed pipeline
// then runs and reports any structural error itself.
Result<CompressionOutcome> TryCompressedRepair(const Network& network, const Harc& harc,
                                               const std::vector<Policy>& policies,
                                               const RepairOptions& options);

}  // namespace cpr::compress

#endif  // CPR_SRC_COMPRESS_COMPRESS_H_
