#include "incremental/incremental.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace cpr::incremental {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Devices whose parsed configuration differs from the baseline's, matched by
// hostname; a device on one side only counts as changed.
int CountChangedDevices(const Network& before, const Network& after) {
  int changed = 0;
  size_t matched = 0;
  for (const Config& config : after.configs()) {
    const std::optional<DeviceId> old = before.FindDevice(config.hostname);
    matched += old.has_value() ? 1 : 0;
    if (!old.has_value() || !(before.config_for(*old) == config)) {
      ++changed;
    }
  }
  return changed + static_cast<int>(before.configs().size() - matched);
}

}  // namespace

HarcDiff DiffHarcs(const Harc& before, const Harc& after) {
  HarcDiff diff;
  if (before.SubnetCount() != after.SubnetCount() ||
      before.universe().VertexCount() != after.universe().VertexCount() ||
      before.universe().edges() != after.universe().edges() ||
      !before.aetg().SameEdges(after.aetg())) {
    diff.global = true;
    return diff;
  }
  const int subnet_count = after.SubnetCount();
  std::vector<bool> detg_changed(static_cast<size_t>(subnet_count), false);
  for (SubnetId d = 0; d < subnet_count; ++d) {
    if (!before.detg(d).SameEdges(after.detg(d))) {
      detg_changed[static_cast<size_t>(d)] = true;
      diff.dsts.push_back(d);
    }
  }
  for (SubnetId s = 0; s < subnet_count; ++s) {
    for (SubnetId d = 0; d < subnet_count; ++d) {
      if (s != d && !detg_changed[static_cast<size_t>(d)] &&
          !before.tcetg(s, d).SameEdges(after.tcetg(s, d))) {
        diff.tcs.emplace_back(s, d);
      }
    }
  }
  return diff;
}

Result<IncrementalOutcome> TryIncrementalRepair(const RepairSession& session,
                                                const Network& network, const Harc& harc,
                                                const std::vector<Policy>& policies,
                                                const RepairOptions& options) {
  IncrementalOutcome outcome;
  IncrementalStats& stats = outcome.stats;
  stats.attempted = true;
  const auto decline = [&stats](std::string reason) {
    stats.skipped_reason = std::move(reason);
  };

  const auto diff_start = std::chrono::steady_clock::now();
  stats.devices_changed = CountChangedDevices(*session.network, network);
  const HarcDiff diff = DiffHarcs(*session.harc, harc);
  stats.diff_seconds = SecondsSince(diff_start);
  stats.everything_dirty = diff.global;
  stats.dirty_destinations = static_cast<int>(diff.dsts.size());
  stats.dirty_traffic_classes = static_cast<int>(diff.tcs.size());

  if (options.granularity != Granularity::kPerDst) {
    decline("incremental re-repair requires per-destination granularity");
    return outcome;
  }
  if (!(policies == session.policies)) {
    decline("policy set changed since the baseline session");
    return outcome;
  }
  if (diff.global) {
    decline("the edit changed the candidate edges or the aETG (topology/process/cost edit)");
    return outcome;
  }

  // Classify the baseline groups: a satisfied group whose dETGs and tcETGs
  // are all unchanged reuses its verdict; everything else re-solves. The
  // final concrete re-verification below covers all policies regardless, so
  // a wrong verdict surfaces as a residual violation, not as silence.
  const auto group_dirty = [&diff](const GroupRecord& group) {
    return std::any_of(group.dsts.begin(), group.dsts.end(),
                       [&diff](SubnetId d) {
                         return std::binary_search(diff.dsts.begin(), diff.dsts.end(), d);
                       }) ||
           std::any_of(group.tcs.begin(), group.tcs.end(),
                       [&diff](const std::pair<SubnetId, SubnetId>& tc) {
                         return std::binary_search(diff.tcs.begin(), diff.tcs.end(), tc);
                       });
  };
  std::vector<Policy> resolve;
  stats.groups_total = static_cast<int>(session.groups.size());
  for (const GroupRecord& group : session.groups) {
    if (group.satisfied && !group_dirty(group)) {
      ++stats.groups_reused;
      continue;
    }
    ++stats.groups_resolved;
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
    stats.solve_seconds = SecondsSince(solve_start);
    if (!solved.ok()) {
      return solved.error();
    }
    if (!solved->HasRepair()) {
      stats.fell_back = true;
      decline(std::string("scoped solve failed (") + RepairStatusName(solved->status) +
              "); running the full pipeline");
      return outcome;
    }
    result = FromSolve(std::move(solved).value());
  }

  // Concrete re-verification (translate/patch.h): the patched snapshot is
  // rebuilt from scratch and every policy checked. This is the soundness
  // anchor; the diff only decided how much work the scoped solve absorbed. A
  // residual (a reused verdict was wrong, or the scoped solve fixed less than
  // it predicted) falls back to a repair of every policy on the rebuilt
  // snapshot, so nothing on that path depends on the session either.
  const auto verify_start = std::chrono::steady_clock::now();
  Result<std::vector<Policy>> residual = PatchAndReverify(
      network, policies, options, FallbackScope::kAllPolicies, &result);
  stats.verify_seconds = SecondsSince(verify_start);
  if (!residual.ok()) {
    return residual.error();
  }
  stats.fell_back = !residual->empty();
  if (!result.HasRepair()) {
    decline(std::string("fallback repair failed (") + RepairStatusName(result.status) +
            "); running the full pipeline");
    return outcome;
  }
  // Any violation still left is the ordinary pipeline's situation too (e.g.
  // kPartial): CloseLoop re-verifies on the handed-over pair and reports it.
  stats.applied = true;
  outcome.result = std::move(result);
  return outcome;
}

}  // namespace cpr::incremental
