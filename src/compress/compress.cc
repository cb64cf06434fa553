#include "compress/compress.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <utility>

#include "compress/lift.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cpr::compress {

namespace {

class Timer {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

// Pin the group's policy endpoints so refinement keeps them expressible: the
// destination becomes a singleton role, and each source carries the set of
// policy demands it places on this destination.
SubnetPins GroupPins(const RepairProblem& group) {
  SubnetPins pins;
  for (SubnetId dst : group.dsts) {
    pins.tokens[dst] = "dst";
  }
  std::map<SubnetId, std::set<std::string>> roles;
  for (const Policy& policy : group.policies) {
    std::string role = PolicyClassName(policy.pc);
    if (policy.pc == PolicyClass::kReachability) {
      role += ":" + std::to_string(policy.k);
    }
    roles[policy.src].insert(std::move(role));
  }
  for (const auto& [src, demands] : roles) {
    if (pins.tokens.count(src) > 0) {
      continue;  // A subnet that is also a destination keeps the dst pin.
    }
    std::string token = "src";
    for (const std::string& demand : demands) {
      token += ":" + demand;
    }
    pins.tokens[src] = token;
  }
  return pins;
}

bool Mappable(const RepairProblem& group) {
  return std::all_of(group.policies.begin(), group.policies.end(), [](const Policy& p) {
    return p.pc == PolicyClass::kAlwaysBlocked || p.pc == PolicyClass::kAlwaysWaypoint ||
           p.pc == PolicyClass::kReachability;
  });
}

// Everything the base (unpinned) partition depends on: per-device role
// signatures plus the link/subnet shape WL refinement walks. Two networks
// with equal keys refine to the same block structure, so a cached partition
// may survive a snapshot change (differ-small reuse).
std::string StructureKey(const Network& network) {
  std::ostringstream key;
  for (const Device& device : network.devices()) {
    key << device.name << '\x1f'
        << RoleSignature(network.configs()[static_cast<size_t>(device.config_index)])
        << '\x1e';
  }
  for (const TopoLink& link : network.links()) {
    key << 'L' << link.device_a << ' ' << link.interface_a << ' ' << link.device_b << ' '
        << link.interface_b << ' ' << (link.waypoint ? 1 : 0) << '\x1e';
  }
  for (const Subnet& subnet : network.subnets()) {
    key << 'S' << subnet.prefix.ToString() << ' ' << subnet.device << ' '
        << subnet.interface << '\x1e';
  }
  return key.str();
}

}  // namespace

Partition CompressionCache::Base(const Network& network) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RebindLocked(network);
    if (base_.has_value()) {
      ++hits_;
      return *base_;
    }
  }
  Partition computed = ComputePartition(network);
  std::lock_guard<std::mutex> lock(mu_);
  RebindLocked(network);
  if (!base_.has_value()) {
    ++misses_;
    base_ = computed;
  } else {
    ++hits_;
  }
  return *base_;
}

std::shared_ptr<const Quotient> CompressionCache::Find(const Network& network,
                                                       const std::string& pin_key) {
  std::lock_guard<std::mutex> lock(mu_);
  RebindLocked(network);
  auto it = quotients_.find(pin_key);
  if (it == quotients_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second;
}

void CompressionCache::Insert(const Network& network, const std::string& pin_key,
                              std::shared_ptr<const Quotient> quotient) {
  std::lock_guard<std::mutex> lock(mu_);
  RebindLocked(network);
  quotients_.emplace(pin_key, std::move(quotient));
}

int64_t CompressionCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t CompressionCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t CompressionCache::partition_reuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_reuses_;
}

void CompressionCache::RebindLocked(const Network& network) {
  if (generation_ == network.generation()) {
    return;
  }
  std::string structure = StructureKey(network);
  const bool reuse = base_.has_value() && structure == structure_;
  generation_ = network.generation();
  structure_ = std::move(structure);
  quotients_.clear();
  if (reuse) {
    ++partition_reuses_;
  } else {
    base_.reset();
  }
}

Result<CompressionOutcome> TryCompressedRepair(const Network& network, const Harc& harc,
                                               const std::vector<Policy>& policies,
                                               const RepairOptions& options) {
  CompressionOutcome outcome;
  CompressionStats& stats = outcome.stats;
  stats.attempted = true;
  stats.routers = static_cast<int>(network.devices().size());
  obs::Registry& registry = obs::CurrentRegistry();
  registry.counter("compression.attempted").Increment();
  const CompressOptions& copt = options.compress;

  auto decline = [&](const std::string& reason) {
    stats.skipped_reason = reason;
    stats.quotient_ratio = 1.0;
    registry.counter("compression.declined").Increment();
    return std::move(outcome);
  };

  if (options.granularity != Granularity::kPerDst) {
    return decline("compression requires per-destination granularity");
  }
  if (copt.mode == CompressMode::kAuto && stats.routers < copt.min_routers) {
    return decline("network smaller than min_routers");
  }

  // Go/no-go: the unpinned base partition bounds every pinned one.
  {
    Timer timer;
    Partition base =
        copt.cache != nullptr ? copt.cache->Base(network) : ComputePartition(network);
    stats.partition_seconds += timer.Seconds();
    stats.base_blocks = base.block_count();
    if (copt.mode == CompressMode::kAuto && base.Ratio() < copt.min_ratio) {
      return decline("base partition ratio below min_ratio");
    }
  }

  const std::vector<RepairProblem> groups = PartitionProblems(harc, policies, options);
  stats.groups_total = static_cast<int>(groups.size());
  if (groups.empty()) {
    return decline("no violations");
  }

  // --- Per-group quotient solves, merged into the lifted first phase.
  PatchedRepair result;
  std::set<std::string> emitted;
  std::vector<Policy> compressed_policies;
  double ratio_sum = 0;
  {
    obs::StageSpan span("pipeline.compress");
    for (const RepairProblem& group : groups) {
      if (!Mappable(group) || options.deadline.Expired()) {
        continue;  // The concrete fallback repair picks these up.
      }
      const SubnetPins pins = GroupPins(group);
      const std::string pin_key = pins.Key();
      std::shared_ptr<const Quotient> quotient =
          copt.cache != nullptr ? copt.cache->Find(network, pin_key) : nullptr;
      if (quotient != nullptr) {
        ++stats.cache_hits;
      } else {
        ++stats.cache_misses;
        Timer partition_timer;
        const Partition partition = ComputePartition(network, pins);
        stats.partition_seconds += partition_timer.Seconds();
        Timer quotient_timer;
        Result<Quotient> built = BuildQuotient(network, partition);
        stats.quotient_seconds += quotient_timer.Seconds();
        if (!built.ok()) {
          continue;
        }
        auto owned = std::make_shared<Quotient>(std::move(built).value());
        quotient = owned;
        if (copt.cache != nullptr) {
          copt.cache->Insert(network, pin_key, quotient);
        }
      }
      const double required_ratio =
          copt.mode == CompressMode::kAuto ? copt.min_ratio : 1.0001;
      if (quotient->Ratio() < required_ratio) {
        continue;
      }
      std::vector<Policy> quotient_policies;
      quotient_policies.reserve(group.policies.size());
      for (const Policy& policy : group.policies) {
        auto mapped = MapPolicy(*quotient, policy);
        if (!mapped.has_value()) {
          break;
        }
        quotient_policies.push_back(*mapped);
      }
      if (quotient_policies.size() != group.policies.size()) {
        continue;
      }
      RepairOptions quotient_options = options;
      quotient_options.compress = CompressOptions{};
      quotient_options.num_threads = 1;
      // The quotient solves the paper's objective alone: representative line
      // counts do not describe the lifted repair (see line_tie_break).
      quotient_options.line_tie_break = false;
      Timer solve_timer;
      Result<RepairOutcome> solved =
          ComputeRepair(*quotient->harc, quotient_policies, quotient_options);
      stats.solve_seconds += solve_timer.Seconds();
      if (!solved.ok() || !solved->HasRepair() ||
          solved->status == RepairStatus::kPartial) {
        continue;
      }

      LiftedEdits lift = LiftEdits(*quotient, solved->edits, &emitted);
      stats.abstract_edits += lift.abstract_edits;
      stats.lifted_edits += lift.concrete_edits;
      AppendEdits(lift.edits, &result.edits);

      // Merge stats and provenance, renumbering problems sequentially and
      // re-expressing every id in concrete terms.
      const int problem_base = static_cast<int>(result.stats.problem_reports.size());
      for (ProblemReport& report : solved->stats.problem_reports) {
        std::vector<SubnetId> concrete_dsts;
        for (SubnetId dst : report.dsts) {
          const auto& members = quotient->subnet_members[static_cast<size_t>(dst)];
          concrete_dsts.insert(concrete_dsts.end(), members.begin(), members.end());
        }
        report.dsts = std::move(concrete_dsts);
      }
      MergeRepairStats(std::move(solved->stats), &result.stats);
      std::vector<std::string> dst_names;
      for (SubnetId dst : group.dsts) {
        dst_names.push_back(network.subnets()[static_cast<size_t>(dst)].prefix.ToString());
      }
      std::vector<std::string> policy_names;
      for (const Policy& policy : group.policies) {
        policy_names.push_back(policy.ToString(network));
      }
      for (const obs::ProvenanceChain& chain : solved->provenance.chains) {
        auto fanout = lift.fanout.find(chain.construct);
        if (fanout == lift.fanout.end()) {
          continue;
        }
        for (const auto& [construct, description] : fanout->second) {
          obs::ProvenanceChain fanned = chain;
          fanned.construct = construct;
          fanned.edit = description;
          fanned.soft_label = construct;
          fanned.problem = problem_base + std::max(chain.problem, 0);
          fanned.dsts = dst_names;
          fanned.policies = policy_names;
          result.provenance.chains.push_back(std::move(fanned));
        }
      }
      for (const std::string& orphan : solved->provenance.orphan_edits) {
        auto fanout = lift.fanout.find(orphan);
        if (fanout != lift.fanout.end()) {
          for (const auto& [construct, description] : fanout->second) {
            (void)description;
            result.provenance.orphan_edits.push_back(construct);
          }
        } else {
          result.provenance.orphan_edits.push_back("quotient:" + orphan);
        }
      }

      compressed_policies.insert(compressed_policies.end(), group.policies.begin(),
                                 group.policies.end());
      ++stats.groups_compressed;
      ratio_sum += quotient->Ratio();
      result.predicted_cost += solved->predicted_cost;
    }
    if (stats.groups_compressed > 0) {
      std::ostringstream ratio;
      ratio << ratio_sum / stats.groups_compressed;
      span.Annotate("quotient_ratio", ratio.str());
      span.Annotate("groups_compressed", std::to_string(stats.groups_compressed));
    }
  }
  stats.groups_fallback = stats.groups_total - stats.groups_compressed;
  if (stats.groups_compressed == 0) {
    return decline("no compressible groups");
  }
  stats.quotient_ratio = ratio_sum / stats.groups_compressed;

  // --- Lift: translate on the concrete network, re-verify, and repair what
  // is still violated uncompressed (translate/patch.h).
  Timer lift_timer;
  obs::StageSpan lift_span("pipeline.lift");
  Result<std::vector<Policy>> residual =
      PatchAndReverify(network, policies, options, FallbackScope::kResidual, &result);
  if (!residual.ok()) {
    return decline("lifted patch failed: " + residual.error().message());
  }
  for (const Policy& policy : *residual) {
    if (std::find(compressed_policies.begin(), compressed_policies.end(), policy) !=
        compressed_policies.end()) {
      ++stats.lift_verify_failures;
    }
  }
  stats.fallback_policies = static_cast<int>(residual->size());
  lift_span.Annotate("lifted_edits", std::to_string(stats.lifted_edits));
  lift_span.Annotate("verify_failures", std::to_string(stats.lift_verify_failures));
  if (!result.HasRepair()) {
    // The lifted patch stands; the policies the fallback could not solve
    // remain in residual_graph_violations.
    result.status = RepairStatus::kPartial;
  }
  stats.lift_seconds = lift_timer.Seconds();

  stats.applied = true;
  registry.counter("compression.applied").Increment();
  registry.counter("compression.groups_compressed")
      .Add(static_cast<int64_t>(stats.groups_compressed));
  registry.counter("compression.groups_fallback")
      .Add(static_cast<int64_t>(stats.groups_fallback));
  registry.counter("compression.abstract_edits")
      .Add(static_cast<int64_t>(stats.abstract_edits));
  registry.counter("compression.lifted_edits")
      .Add(static_cast<int64_t>(stats.lifted_edits));
  registry.counter("compression.lift_verify_failures")
      .Add(static_cast<int64_t>(stats.lift_verify_failures));
  registry.counter("compression.cache_hits").Add(static_cast<int64_t>(stats.cache_hits));
  registry.counter("compression.cache_misses")
      .Add(static_cast<int64_t>(stats.cache_misses));

  outcome.result = std::move(result);
  return outcome;
}

}  // namespace cpr::compress
