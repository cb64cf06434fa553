#include "compress/compress.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
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

void CompressionCache::RebindLocked(const Network& network) {
  if (generation_ == network.generation()) {
    return;
  }
  generation_ = network.generation();
  base_.reset();
  quotients_.clear();
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

  // The quotient solves the paper's objective alone: representative line
  // counts do not describe the lifted repair (see line_tie_break). Partial
  // merging stays on, so a group that fails never withholds another's edits.
  RepairOptions quotient_options = options;
  quotient_options.compress = CompressOptions{};
  quotient_options.line_tie_break = false;
  quotient_options.allow_partial = true;

  // A mappable group on its quotient; its problems are [first, end) of the
  // quotient pass.
  struct QuotientGroup {
    const RepairProblem* group = nullptr;
    std::shared_ptr<const Quotient> quotient;
    size_t first = 0;
    size_t end = 0;
  };
  std::vector<QuotientGroup> quotient_groups;
  std::vector<HarcProblem> quotient_problems;
  PatchedRepair result;
  std::vector<Policy> compressed_policies;
  double ratio_sum = 0;
  {
    obs::StageSpan span("pipeline.compress");
    // 1. The quotient problems of every mappable group.
    int destinations_skipped = 0;
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
      QuotientGroup entry{&group, quotient, quotient_problems.size(), 0};
      for (RepairProblem& problem :
           PartitionProblems(*quotient->harc, quotient_policies, quotient_options)) {
        quotient_problems.push_back({quotient->harc.get(), std::move(problem)});
      }
      entry.end = quotient_problems.size();
      // A mappable group has one destination (only PC4 and PC5 join
      // destinations); when none of its policies is violated on the
      // quotient, that destination is skipped.
      destinations_skipped += entry.first == entry.end ? 1 : 0;
      quotient_groups.push_back(std::move(entry));
    }

    // 2. One pass solves them all, on the request's workers or the shared
    // solve pool.
    Timer solve_timer;
    Result<RepairOutcome> solved =
        SolveProblemSet(quotient_problems, quotient_options);
    stats.solve_seconds = solve_timer.Seconds();
    if (!solved.ok()) {
      return decline("quotient solve failed: " + solved.error().message());
    }
    std::vector<ProblemReport>& reports = solved->stats.problem_reports;

    // 3. Lift each group whose problems all solved, in group order. A group
    // with a failed problem contributes nothing; its policies stay violated
    // and the concrete fallback repairs them. Its reports stay in the stats.
    std::set<std::string> emitted;
    for (const QuotientGroup& entry : quotient_groups) {
      const auto first = reports.begin() + static_cast<std::ptrdiff_t>(entry.first);
      const auto end = reports.begin() + static_cast<std::ptrdiff_t>(entry.end);
      for (auto report = first; report != end; ++report) {
        std::vector<SubnetId> concrete_dsts;
        for (SubnetId dst : report->dsts) {
          const auto& members = entry.quotient->subnet_members[static_cast<size_t>(dst)];
          concrete_dsts.insert(concrete_dsts.end(), members.begin(), members.end());
        }
        report->dsts = std::move(concrete_dsts);
      }
      if (!std::all_of(first, end, [](const ProblemReport& r) { return r.solved(); })) {
        continue;
      }
      RepairEdits abstract_edits;
      for (auto report = first; report != end; ++report) {
        AppendEdits(report->edits, &abstract_edits);
        result.predicted_cost += report->cost;
      }
      LiftedEdits lift = LiftEdits(*entry.quotient, abstract_edits, &emitted);
      stats.abstract_edits += lift.abstract_edits;
      stats.lifted_edits += lift.concrete_edits;
      AppendEdits(lift.edits, &result.edits);

      // Provenance names concrete constructs, destinations and policies.
      const RepairProblem& group = *entry.group;
      std::vector<std::string> dst_names;
      for (SubnetId dst : group.dsts) {
        dst_names.push_back(network.subnets()[static_cast<size_t>(dst)].prefix.ToString());
      }
      std::vector<std::string> policy_names;
      for (const Policy& policy : group.policies) {
        policy_names.push_back(policy.ToString(network));
      }
      for (const obs::ProvenanceChain& chain : solved->provenance.chains) {
        const size_t problem = static_cast<size_t>(chain.problem);
        if (problem < entry.first || problem >= entry.end) {
          continue;
        }
        auto fanout = lift.fanout.find(chain.construct);
        if (fanout == lift.fanout.end()) {
          continue;
        }
        for (const auto& [construct, description] : fanout->second) {
          obs::ProvenanceChain fanned = chain;
          fanned.construct = construct;
          fanned.edit = description;
          fanned.soft_label = construct;
          fanned.dsts = dst_names;
          fanned.policies = policy_names;
          result.provenance.chains.push_back(std::move(fanned));
        }
      }

      compressed_policies.insert(compressed_policies.end(), group.policies.begin(),
                                 group.policies.end());
      ++stats.groups_compressed;
      ratio_sum += entry.quotient->Ratio();
    }
    for (const std::string& orphan : solved->provenance.orphan_edits) {
      result.provenance.orphan_edits.push_back("quotient:" + orphan);
    }
    result.provenance.unsat_cores = std::move(solved->provenance.unsat_cores);
    result.stats = std::move(solved->stats);
    result.stats.destinations_skipped = destinations_skipped;
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
