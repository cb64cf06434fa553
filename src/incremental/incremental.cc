#include "incremental/incremental.h"

#include <chrono>
#include <utility>

namespace cpr::incremental {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

std::optional<Harc> PrepareHarc(const RepairSession& session, const Network& network,
                                const DirtySet& dirty, IncrementalStats* stats) {
  stats->devices_changed = dirty.devices_changed;
  stats->everything_dirty = dirty.everything;
  if (dirty.everything) {
    return std::nullopt;
  }
  const auto start = std::chrono::steady_clock::now();
  std::optional<Harc> clone = session.harc->CloneFor(network);
  if (!clone.has_value()) {
    return std::nullopt;
  }
  const std::vector<Subnet>& subnets = network.subnets();
  const int subnet_count = static_cast<int>(subnets.size());
  std::vector<bool> dst_dirty(subnets.size(), false);
  for (SubnetId d = 0; d < subnet_count; ++d) {
    if (dirty.DstDirty(subnets[static_cast<size_t>(d)].prefix)) {
      dst_dirty[static_cast<size_t>(d)] = true;
      clone->RebuildDestination(d);
      ++stats->dirty_destinations;
    }
  }
  for (SubnetId s = 0; s < subnet_count; ++s) {
    for (SubnetId d = 0; d < subnet_count; ++d) {
      if (s == d || dst_dirty[static_cast<size_t>(d)]) {
        continue;
      }
      if (dirty.TcPairDirty(subnets[static_cast<size_t>(s)].prefix,
                            subnets[static_cast<size_t>(d)].prefix)) {
        clone->RebuildTrafficClass(s, d);
        ++stats->dirty_traffic_classes;
      }
    }
  }
  stats->harc_cloned = true;
  stats->clone_seconds = SecondsSince(start);
  return clone;
}

Result<IncrementalOutcome> TryIncrementalRepair(const RepairSession& session,
                                                const Network& network, const Harc& harc,
                                                const DirtySet& dirty,
                                                const std::vector<Policy>& policies,
                                                const RepairOptions& options,
                                                const IncrementalStats& seed) {
  IncrementalOutcome outcome;
  outcome.stats = seed;
  outcome.stats.attempted = true;
  const auto decline = [&outcome](std::string reason) {
    outcome.stats.skipped_reason = std::move(reason);
  };

  if (options.granularity != Granularity::kPerDst) {
    decline("incremental re-repair requires per-destination granularity");
    return outcome;
  }
  if (!(policies == session.policies)) {
    decline("policy set changed since the baseline session");
    return outcome;
  }
  if (dirty.everything) {
    decline("change is not destination-scopable (topology/process/cost edit)");
    return outcome;
  }
  // Group reuse relies on subnet ids meaning the same thing in both
  // snapshots, which is exactly what a successful HARC clone certifies.
  if (!outcome.stats.harc_cloned) {
    decline("snapshot is not clone-compatible with the baseline");
    return outcome;
  }

  // Classify the baseline groups: clean satisfied groups reuse their
  // verdict; everything else (dirty, or never satisfied) re-solves. The
  // final concrete re-verification below covers all policies regardless, so
  // a misclassified group surfaces as a residual violation, not as silence.
  const std::vector<Subnet>& subnets = network.subnets();
  const auto group_dirty = [&](const GroupRecord& group) {
    for (SubnetId d : group.dsts) {
      if (dirty.DstDirty(subnets[static_cast<size_t>(d)].prefix)) {
        return true;
      }
    }
    for (const auto& [s, d] : group.tcs) {
      if (dirty.TcPairDirty(subnets[static_cast<size_t>(s)].prefix,
                            subnets[static_cast<size_t>(d)].prefix)) {
        return true;
      }
    }
    return false;
  };
  std::vector<Policy> resolve;
  outcome.stats.groups_total = static_cast<int>(session.groups.size());
  for (const GroupRecord& group : session.groups) {
    if (group.satisfied && !group_dirty(group)) {
      ++outcome.stats.groups_reused;
      continue;
    }
    ++outcome.stats.groups_resolved;
    resolve.insert(resolve.end(), group.policies.begin(), group.policies.end());
  }

  PatchedRepair result;
  result.status = RepairStatus::kNoViolations;
  if (!resolve.empty()) {
    // Hand exactly the dirty groups to the unchanged repair engine.
    RepairOptions scoped = options;
    scoped.compress.mode = CompressMode::kOff;
    const auto solve_start = std::chrono::steady_clock::now();
    Result<RepairOutcome> solved = ComputeRepair(harc, resolve, scoped);
    outcome.stats.solve_seconds = SecondsSince(solve_start);
    if (!solved.ok()) {
      return solved.error();
    }
    if (!solved->HasRepair()) {
      outcome.stats.fell_back = true;
      decline(std::string("scoped solve failed (") + RepairStatusName(solved->status) +
              "); running the full pipeline");
      return outcome;
    }
    result = FromSolve(std::move(solved).value());
  }

  // Concrete re-verification (translate/patch.h): the patched snapshot is
  // rebuilt from scratch — never from the clone — and every policy checked.
  // This is the soundness anchor; the dirty set and the clone only decided
  // how much work the scoped solve absorbed. A residual (the dirty set
  // under-marked, or the scoped solve fixed less than it predicted) falls
  // back to a repair of every policy on the rebuilt snapshot, so nothing on
  // that path depends on the differ or the clone either.
  const auto verify_start = std::chrono::steady_clock::now();
  Result<std::vector<Policy>> residual = PatchAndReverify(
      network, policies, options, FallbackScope::kAllPolicies, &result);
  outcome.stats.verify_seconds = SecondsSince(verify_start);
  if (!residual.ok()) {
    return residual.error();
  }
  outcome.stats.fell_back = !residual->empty();
  if (!result.HasRepair()) {
    decline(std::string("fallback repair failed (") + RepairStatusName(result.status) +
            "); running the full pipeline");
    return outcome;
  }
  // Any violation still left is the ordinary pipeline's situation too (e.g.
  // kPartial): CloseLoop re-verifies on the handed-over pair and reports it.
  outcome.stats.applied = true;
  outcome.result = std::move(result);
  return outcome;
}

}  // namespace cpr::incremental
