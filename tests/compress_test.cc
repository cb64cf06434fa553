// Symmetry-quotient compression pre-pass tests (compress/, DESIGN.md §11).
//
// The contract under test: compression is an accelerator, never an oracle.
// A compressed repair must be exactly as sound as an uncompressed one (the
// lifted patch re-verifies on the concrete network), asymmetric inputs must
// decline cleanly with quotient_ratio == 1.0, and everything user-visible —
// provenance chains, diffs, policy strings — must name concrete routers
// only, with no quotient-internal identifiers leaking out.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "compress/compress.h"
#include "compress/partition.h"
#include "compress/quotient.h"
#include "config/parser.h"
#include "core/cpr.h"
#include "obs/span.h"
#include "repair/options.h"
#include "verify/checker.h"
#include "workload/dirty.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

Network MustBuildNetwork(const std::vector<std::string>& texts,
                         NetworkAnnotations annotations = {}) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> config = ParseConfig(text);
    EXPECT_TRUE(config.ok()) << config.error().message();
    configs.push_back(*std::move(config));
  }
  Result<Network> network = Network::Build(std::move(configs), std::move(annotations));
  EXPECT_TRUE(network.ok()) << network.error().message();
  return *std::move(network);
}

CprOptions CompressOptionsFor(CompressMode mode) {
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.num_threads = 4;
  options.repair.compress.mode = mode;
  // The pre-pass gates itself on size in kAuto; tests force the decision.
  options.repair.compress.min_routers = 0;
  // PC3 fat-tree repairs are validated graph-theoretically (see
  // workload_test.cc for the model-vs-execution caveat).
  options.validate_with_simulator = false;
  return options;
}

std::set<std::string> ViolationKeys(const Network& network,
                                    const std::vector<Policy>& violations) {
  std::set<std::string> keys;
  for (const Policy& policy : violations) {
    keys.insert(policy.ToString(network));
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Partition: symmetric inputs compress, asymmetric routers isolate.

TEST(CompressPartitionTest, SymmetricFatTreeHasHighRatio) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  Network network = MustBuildNetwork(scenario.working_configs, scenario.annotations);
  compress::Partition partition = compress::ComputePartition(network);
  EXPECT_EQ(partition.device_count(), static_cast<int>(network.devices().size()));
  // A 4-port fat-tree has 20 routers in three behavioral roles (edge, agg,
  // core split by ACL placement); the partition must find real symmetry.
  EXPECT_LT(partition.block_count(), partition.device_count());
  EXPECT_GT(partition.Ratio(), 1.5);
  // Blocks partition the devices: every device in exactly one block.
  int total = 0;
  for (const std::vector<DeviceId>& block : partition.members) {
    total += static_cast<int>(block.size());
  }
  EXPECT_EQ(total, partition.device_count());
}

TEST(CompressPartitionTest, AsymmetricRouterLandsInSingletonBlock) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  std::vector<std::string> mutated = scenario.working_configs;
  Result<int> seeded = SeedAsymmetry(&mutated, 1, 3);
  ASSERT_TRUE(seeded.ok()) << seeded.error().message();
  ASSERT_EQ(*seeded, 1);
  // Reprinting normalizes the text, so find the victim by diffing reprints
  // of the pristine configs against the mutated ones.
  std::vector<std::string> pristine = scenario.working_configs;
  Result<int> baseline = SeedAsymmetry(&pristine, 0, 3);
  ASSERT_TRUE(baseline.ok()) << baseline.error().message();
  int victim = -1;
  for (size_t i = 0; i < mutated.size(); ++i) {
    if (mutated[i] != pristine[i]) {
      ASSERT_EQ(victim, -1) << "more than one config mutated";
      victim = static_cast<int>(i);
    }
  }
  ASSERT_GE(victim, 0);

  Network network = MustBuildNetwork(mutated, scenario.annotations);
  compress::Partition partition = compress::ComputePartition(network);
  // The cost bump makes the victim behaviorally unique: a singleton block.
  DeviceId device = -1;
  for (const Device& candidate : network.devices()) {
    if (candidate.config_index == victim) {
      device = static_cast<DeviceId>(&candidate - network.devices().data());
    }
  }
  ASSERT_GE(device, 0);
  int block = partition.block_of[static_cast<size_t>(device)];
  EXPECT_EQ(partition.members[static_cast<size_t>(block)].size(), 1u);
  // The rest of the network still compresses.
  EXPECT_LT(partition.block_count(), partition.device_count());
}

TEST(CompressPartitionTest, FullyAsymmetricNetworkDoesNotCompress) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  std::vector<std::string> mutated = scenario.working_configs;
  Result<int> seeded =
      SeedAsymmetry(&mutated, static_cast<int>(mutated.size()), 3);
  ASSERT_TRUE(seeded.ok()) << seeded.error().message();
  ASSERT_EQ(*seeded, static_cast<int>(mutated.size()));
  Network network = MustBuildNetwork(mutated, scenario.annotations);
  compress::Partition partition = compress::ComputePartition(network);
  EXPECT_EQ(partition.block_count(), partition.device_count());
  EXPECT_DOUBLE_EQ(partition.Ratio(), 1.0);
}

TEST(CompressPartitionTest, PinsSplitOtherwiseEquivalentHosts) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  Network network = MustBuildNetwork(scenario.working_configs, scenario.annotations);
  ASSERT_FALSE(scenario.policies.empty());
  const Policy& policy = scenario.policies.front();
  DeviceId src_host = network.subnets()[static_cast<size_t>(policy.src)].device;
  DeviceId dst_host = network.subnets()[static_cast<size_t>(policy.dst)].device;
  ASSERT_NE(src_host, dst_host);

  compress::Partition base = compress::ComputePartition(network);
  // Inter-pod edge switches are interchangeable before pinning.
  ASSERT_TRUE(base.SameBlock(src_host, dst_host));

  compress::SubnetPins pins;
  pins.tokens[policy.dst] = "dst";
  pins.tokens[policy.src] = "src:pc1";
  compress::Partition pinned = compress::ComputePartition(network, pins);
  EXPECT_FALSE(pinned.SameBlock(src_host, dst_host));
  // Pins only ever split blocks, never merge them.
  EXPECT_GE(pinned.block_count(), base.block_count());
}

// ---------------------------------------------------------------------------
// Quotient: the representative subnetwork shrinks and fans out totally.

TEST(CompressQuotientTest, QuotientShrinksAndFansOutEveryDevice) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  Network network = MustBuildNetwork(scenario.working_configs, scenario.annotations);
  compress::Partition partition = compress::ComputePartition(network);
  Result<compress::Quotient> quotient = compress::BuildQuotient(network, partition);
  ASSERT_TRUE(quotient.ok()) << quotient.error().message();
  EXPECT_GT(quotient->quotient_devices(), 0);
  EXPECT_LT(quotient->quotient_devices(), static_cast<int>(network.devices().size()));
  EXPECT_GT(quotient->Ratio(), 1.0);
  // The device fan-out maps cover every concrete device exactly once.
  std::set<DeviceId> covered;
  for (const std::vector<DeviceId>& members : quotient->device_members) {
    for (DeviceId member : members) {
      EXPECT_TRUE(covered.insert(member).second) << member;
    }
  }
  EXPECT_EQ(covered.size(), network.devices().size());
  // Subnet mapping is total: every concrete subnet has a quotient image.
  ASSERT_EQ(quotient->quotient_subnet_of.size(), network.subnets().size());
  for (SubnetId mapped : quotient->quotient_subnet_of) {
    EXPECT_GE(mapped, 0);
  }
}

TEST(CompressQuotientTest, MapPolicyClampsK3AndRejectsPc4) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kReachability, 2, 7);
  Network network = MustBuildNetwork(scenario.working_configs, scenario.annotations);
  compress::Partition partition = compress::ComputePartition(network);
  Result<compress::Quotient> quotient = compress::BuildQuotient(network, partition);
  ASSERT_TRUE(quotient.ok()) << quotient.error().message();

  ASSERT_FALSE(scenario.policies.empty());
  Policy pc3 = scenario.policies.front();
  pc3.k = 2;
  std::optional<Policy> mapped = compress::MapPolicy(*quotient, pc3);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->pc, PolicyClass::kReachability);
  // Link multiplicity is lost by the abstraction; the quotient solves k=1
  // and the concrete re-verify enforces the real k.
  EXPECT_EQ(mapped->k, 1);

  Policy pc4 = Policy::PrimaryPath(pc3.src, pc3.dst, {0, 1});
  EXPECT_FALSE(compress::MapPolicy(*quotient, pc4).has_value());
}

// ---------------------------------------------------------------------------
// Equivalence: compressed and uncompressed repairs are equally sound.

class CompressEquivalenceTest : public ::testing::TestWithParam<PolicyClass> {};

TEST_P(CompressEquivalenceTest, CompressedRepairIsAsSoundAsUncompressed) {
  for (unsigned seed : {7u, 11u}) {
    FatTreeScenario scenario = MakeFatTreeScenario(4, GetParam(), 3, seed);
    Result<Cpr> pipeline =
        Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
    ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
    std::vector<Policy> broken_now =
        FindViolations(pipeline->harc(), scenario.policies);
    ASSERT_FALSE(broken_now.empty()) << "scenario seed " << seed << " not broken";

    Result<CprReport> off =
        pipeline->Repair(scenario.policies, CompressOptionsFor(CompressMode::kOff));
    ASSERT_TRUE(off.ok()) << off.error().message();
    Result<CprReport> on =
        pipeline->Repair(scenario.policies, CompressOptionsFor(CompressMode::kOn));
    ASSERT_TRUE(on.ok()) << on.error().message();

    // Both paths fix the exact same violated set and both re-verify clean.
    EXPECT_FALSE(off->compression.attempted);
    EXPECT_TRUE(off->Sound()) << "seed " << seed;
    EXPECT_TRUE(on->Sound()) << "seed " << seed;
    EXPECT_EQ(off->status, RepairStatus::kSuccess);
    EXPECT_EQ(on->status, RepairStatus::kSuccess);

    // The compressed run really compressed: the quotient carried the work.
    EXPECT_TRUE(on->compression.attempted);
    EXPECT_TRUE(on->compression.applied) << on->compression.skipped_reason;
    EXPECT_GT(on->compression.quotient_ratio, 1.0);
    EXPECT_GT(on->compression.groups_compressed, 0);
    EXPECT_EQ(on->compression.lift_verify_failures, 0);
    EXPECT_GT(on->compression.lifted_edits, 0);
    EXPECT_GE(on->compression.lifted_edits, on->compression.abstract_edits);

    // The patched snapshots satisfy the same policies from either path.
    Result<Cpr> patched_off = Cpr::FromConfigs(off->patched_configs,
                                               off->patched_annotations);
    ASSERT_TRUE(patched_off.ok()) << patched_off.error().message();
    Result<Cpr> patched_on =
        Cpr::FromConfigs(on->patched_configs, on->patched_annotations);
    ASSERT_TRUE(patched_on.ok()) << patched_on.error().message();
    EXPECT_EQ(
        ViolationKeys(patched_off->network(),
                      FindViolations(patched_off->harc(), scenario.policies)),
        ViolationKeys(patched_on->network(),
                      FindViolations(patched_on->harc(), scenario.policies)));
    EXPECT_TRUE(FindViolations(patched_on->harc(), scenario.policies).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(PolicyClasses, CompressEquivalenceTest,
                         ::testing::Values(PolicyClass::kAlwaysBlocked,
                                           PolicyClass::kAlwaysWaypoint,
                                           PolicyClass::kReachability));

TEST(CompressFallbackTest, AsymmetricInputDeclinesCleanlyUnderAuto) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  std::vector<std::string> broken = scenario.broken_configs;
  Result<int> seeded = SeedAsymmetry(&broken, static_cast<int>(broken.size()), 3);
  ASSERT_TRUE(seeded.ok()) << seeded.error().message();
  Result<Cpr> pipeline = Cpr::FromConfigTexts(broken, scenario.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();

  CprOptions options = CompressOptionsFor(CompressMode::kAuto);
  Result<CprReport> report = pipeline->Repair(scenario.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  // The clean-fallback signature: attempted, declined, ratio exactly 1.0,
  // and the uncompressed path still repairs soundly.
  EXPECT_TRUE(report->compression.attempted);
  EXPECT_FALSE(report->compression.applied);
  EXPECT_FALSE(report->compression.skipped_reason.empty());
  EXPECT_DOUBLE_EQ(report->compression.quotient_ratio, 1.0);
  EXPECT_TRUE(report->Sound());
}

TEST(CompressFallbackTest, AllTcsGranularityNeverAttempts) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  Result<Cpr> pipeline =
      Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  CprOptions options = CompressOptionsFor(CompressMode::kOn);
  options.repair.granularity = Granularity::kAllTcs;
  Result<CprReport> report = pipeline->Repair(scenario.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  EXPECT_FALSE(report->compression.attempted);
  EXPECT_TRUE(report->Sound());
}

// ---------------------------------------------------------------------------
// Cache: quotients are reused across repairs and rebind on a new network.

TEST(CompressCacheTest, QuotientsReusedAcrossRepairs) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 3, 7);
  Result<Cpr> pipeline =
      Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();

  compress::CompressionCache cache;
  CprOptions options = CompressOptionsFor(CompressMode::kOn);
  options.repair.compress.cache = &cache;

  Result<CprReport> first = pipeline->Repair(scenario.policies, options);
  ASSERT_TRUE(first.ok()) << first.error().message();
  ASSERT_TRUE(first->compression.applied) << first->compression.skipped_reason;
  EXPECT_GT(first->compression.cache_misses, 0);

  Result<CprReport> second = pipeline->Repair(scenario.policies, options);
  ASSERT_TRUE(second.ok()) << second.error().message();
  ASSERT_TRUE(second->compression.applied) << second->compression.skipped_reason;
  EXPECT_GT(second->compression.cache_hits, 0);
  // The cache's lifetime counters accumulate across both repairs.
  EXPECT_GE(cache.hits(), second->compression.cache_hits);
  EXPECT_GE(cache.misses(), first->compression.cache_misses);
}

TEST(CompressCacheTest, CacheRebindsOnDifferentNetwork) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 3, 7);
  Result<Cpr> first =
      Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  Result<Cpr> second =
      Cpr::FromConfigTexts(scenario.working_configs, scenario.annotations);
  ASSERT_TRUE(first.ok() && second.ok());

  compress::CompressionCache cache;
  cache.Insert(first->network(), "pinkey",
               std::make_shared<compress::Quotient>());
  EXPECT_NE(cache.Find(first->network(), "pinkey"), nullptr);
  // A different network is a different snapshot: the identity guard clears
  // stale quotients instead of serving them.
  EXPECT_EQ(cache.Find(second->network(), "pinkey"), nullptr);
  EXPECT_EQ(cache.Find(first->network(), "pinkey"), nullptr);
}

// Regression: the identity guard used to be a raw `const Network*`. A freed
// network whose address was recycled by a new Network false-hit the guard
// and served the dead snapshot's partition/quotients. The generation id
// never recycles, so a rebuilt network always rebinds.
TEST(CompressCacheTest, RecycledNetworkAddressStillRebinds) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 2, 7);
  auto build = [&](const std::vector<std::string>& texts) {
    return std::make_unique<Network>(MustBuildNetwork(texts, scenario.annotations));
  };

  compress::CompressionCache cache;
  bool recycled = false;
  for (int attempt = 0; attempt < 64 && !recycled; ++attempt) {
    std::unique_ptr<Network> first = build(scenario.broken_configs);
    const Network* address = first.get();
    cache.Insert(*first, "pinkey", std::make_shared<compress::Quotient>());
    ASSERT_NE(cache.Find(*first, "pinkey"), nullptr);
    first.reset();
    // Same-size allocation immediately after the free: the allocator almost
    // always hands back the same chunk, which is exactly the ABA setup.
    std::unique_ptr<Network> second = build(scenario.working_configs);
    recycled = second.get() == address;
    // Regardless of where the new network landed, the dead snapshot's
    // quotient must never be served.
    EXPECT_EQ(cache.Find(*second, "pinkey"), nullptr);
  }
  if (!recycled) {
    GTEST_SKIP() << "allocator never recycled the network address";
  }
}

// ---------------------------------------------------------------------------
// One quotient pass: every group's quotient problems are solved together.

// Counts submitted tasks and runs each on a thread of its own, joined on
// destruction.
class CountingRunner : public SolveTaskRunner {
 public:
  CountingRunner() = default;
  CountingRunner(const CountingRunner&) = delete;
  CountingRunner& operator=(const CountingRunner&) = delete;
  ~CountingRunner() override {
    for (std::thread& thread : threads_) {
      thread.join();
    }
  }
  void Submit(std::function<void()> task) override {
    ++submitted_;
    threads_.emplace_back(std::move(task));
  }
  int submitted() const { return submitted_; }

 private:
  int submitted_ = 0;
  std::vector<std::thread> threads_;
};

// The 6-port PC3 scenario compresses every group and needs no concrete
// fallback, so every solve of the run belongs to the quotient pass.
FatTreeScenario QuotientPassScenario() {
  return MakeFatTreeScenario(6, PolicyClass::kReachability, 12, 7);
}

// Through a shared executor the quotient pass submits at most num_threads
// drain tasks for all groups' problems, and the reports list every group's
// problems in group order with concrete destinations.
TEST(CompressPassTest, AllGroupsShareOneExecutorPass) {
  FatTreeScenario scenario = QuotientPassScenario();
  Result<Cpr> pipeline =
      Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  CprOptions options = CompressOptionsFor(CompressMode::kOn);
  options.repair.num_threads = 2;
  CountingRunner runner;
  options.repair.solve_runner = &runner;
  Result<CprReport> report = pipeline->Repair(scenario.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  ASSERT_TRUE(report->compression.applied) << report->compression.skipped_reason;
  ASSERT_EQ(report->compression.fallback_policies, 0);

  const std::vector<RepairProblem> groups =
      PartitionProblems(pipeline->harc(), scenario.policies, options.repair);
  ASSERT_EQ(report->compression.groups_compressed, static_cast<int>(groups.size()));
  const std::vector<ProblemReport>& reports = report->stats.problem_reports;
  // One quotient problem per group, more of them than drain tasks.
  ASSERT_EQ(reports.size(), groups.size());
  ASSERT_GT(reports.size(), 2u);
  EXPECT_LE(runner.submitted(), options.repair.num_threads);
  const SubnetId subnets = static_cast<SubnetId>(pipeline->network().subnets().size());
  for (size_t i = 0; i < reports.size(); ++i) {
    SCOPED_TRACE("problem " + std::to_string(i));
    EXPECT_TRUE(reports[i].solved());
    ASSERT_EQ(groups[i].dsts.size(), 1u);
    EXPECT_NE(std::find(reports[i].dsts.begin(), reports[i].dsts.end(), groups[i].dsts[0]),
              reports[i].dsts.end());
    for (SubnetId dst : reports[i].dsts) {
      EXPECT_LT(dst, subnets);
    }
  }
}

// A compressed run solves its quotient problems in one repair.solve span
// under pipeline.compress.
TEST(CompressPassTest, OneSolveSpanUnderCompress) {
  FatTreeScenario scenario = QuotientPassScenario();
  Result<Cpr> pipeline =
      Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  obs::Trace trace;
  trace.Enable();
  Result<CprReport> report = [&] {
    obs::TraceScope scope(&trace);
    return pipeline->Repair(scenario.policies, CompressOptionsFor(CompressMode::kOn));
  }();
  ASSERT_TRUE(report.ok()) << report.error().message();
  ASSERT_TRUE(report->compression.applied) << report->compression.skipped_reason;
  ASSERT_GT(report->stats.problem_reports.size(), 1u);

  const std::vector<obs::SpanRecord> spans = trace.Records();
  auto under_compress = [&](int32_t index) {
    for (; index >= 0; index = spans[static_cast<size_t>(index)].parent) {
      if (spans[static_cast<size_t>(index)].name == "pipeline.compress") {
        return true;
      }
    }
    return false;
  };
  int solves = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "repair.solve" && under_compress(static_cast<int32_t>(i))) {
      ++solves;
    }
  }
  EXPECT_EQ(solves, 1);
}

// ---------------------------------------------------------------------------
// Explain surface: provenance names concrete routers, never quotient ids.

TEST(CompressExplainTest, ProvenanceChainsAreConcreteAndComplete) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 7);
  Result<Cpr> pipeline =
      Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  Result<CprReport> report =
      pipeline->Repair(scenario.policies, CompressOptionsFor(CompressMode::kOn));
  ASSERT_TRUE(report.ok()) << report.error().message();
  ASSERT_TRUE(report->compression.applied) << report->compression.skipped_reason;
  ASSERT_TRUE(report->Sound());

  const obs::ProvenanceReport& prov = report->provenance;
  // Fan-out keeps full attribution: one chain per concrete edit, no orphans.
  EXPECT_EQ(prov.edits_total(), static_cast<int64_t>(report->edits.TotalChanges()));
  EXPECT_TRUE(prov.orphan_edits.empty()) << prov.orphan_edits.front();
  ASSERT_FALSE(prov.chains.empty());

  std::set<std::string> concrete_devices;
  for (const Device& device : pipeline->network().devices()) {
    concrete_devices.insert(device.name);
  }
  for (const obs::ProvenanceChain& chain : prov.chains) {
    EXPECT_FALSE(chain.construct.empty());
    EXPECT_FALSE(chain.config_changes.empty()) << chain.construct;
    EXPECT_FALSE(chain.policies.empty());
    // No quotient-internal identifiers on the explain surface.
    EXPECT_EQ(chain.construct.find("quotient:"), std::string::npos) << chain.construct;
    for (const std::string& policy : chain.policies) {
      EXPECT_EQ(policy.find("quotient"), std::string::npos) << policy;
    }
    // Every joined config change names a concrete device: the translator
    // logs "<hostname>: <change>" lines and the lift fan-out must have
    // remapped every quotient id before translation.
    for (const std::string& change : chain.config_changes) {
      size_t colon = change.find(':');
      ASSERT_NE(colon, std::string::npos) << change;
      EXPECT_TRUE(concrete_devices.count(change.substr(0, colon)) > 0) << change;
    }
  }
  // The diff is concrete too: it patches real hostnames.
  EXPECT_GT(report->lines_changed, 0);
  EXPECT_EQ(report->diff_text.find("quotient"), std::string::npos);
}

}  // namespace
}  // namespace cpr
