// Incremental re-repair engine tests (src/incremental/, DESIGN.md §12).
//
// The contract under test: incremental re-repair is an accelerator, never an
// oracle. The differ may over-mark (costing time) but scoped dirt must cover
// the edit's real blast radius for the cheap path to engage; whatever the
// dirty set says, the engine's final answer is concretely re-verified and
// falls back to a full repair on any residual — so for every defect kind the
// incremental verdict must match a from-scratch repair exactly, at no worse
// predicted cost.

#include "incremental/incremental.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "certify/certify.h"
#include "config/parser.h"
#include "config/printer.h"
#include "core/cpr.h"
#include "incremental/dirty.h"
#include "incremental/session.h"
#include "smt/certificate.h"
#include "solver/backend.h"
#include "tests/example_network.h"
#include "tests/rebreak.h"
#include "verify/checker.h"
#include "workload/dirty.h"
#include "workload/fattree.h"

namespace cpr::incremental {
namespace {

std::vector<Config> ParseAll(const std::vector<std::string>& texts) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message();
    configs.push_back(*std::move(parsed));
  }
  return configs;
}

std::vector<std::string> ExampleTexts() {
  return {kExampleConfigA, kExampleConfigB, kExampleConfigC};
}

// Applies one textual substitution to the named device's config.
std::vector<std::string> Edited(std::vector<std::string> texts, size_t index,
                                const std::string& from, const std::string& to) {
  size_t at = texts[index].find(from);
  EXPECT_NE(at, std::string::npos) << "edit anchor not found: " << from;
  texts[index].replace(at, from.size(), to);
  return texts;
}

DirtySet Diff(const std::vector<std::string>& before,
              const std::vector<std::string>& after) {
  return ComputeDirtySet(ParseAll(before), {}, ParseAll(after), {});
}

RepairOptions InternalOptions() {
  RepairOptions options;
  options.backend = BackendChoice::kInternal;
  options.granularity = Granularity::kPerDst;
  options.num_threads = 4;
  return options;
}

// ---------------------------------------------------------------------------
// Differ: scoping per construct class.

TEST(DirtySetTest, IdenticalSnapshotsAreClean) {
  DirtySet dirty = Diff(ExampleTexts(), ExampleTexts());
  EXPECT_TRUE(dirty.Clean());
  EXPECT_EQ(dirty.devices_changed, 0);
}

TEST(DirtySetTest, DescriptionEditIsClean) {
  DirtySet dirty = Diff(ExampleTexts(),
                        Edited(ExampleTexts(), 1, "description Link-to-A",
                               "description uplink (renamed)"));
  EXPECT_TRUE(dirty.Clean());
  EXPECT_EQ(dirty.devices_changed, 1);
}

TEST(DirtySetTest, AclEntryEditScopesToItsTrafficClasses) {
  // B's BLOCK-U list is [deny any->10.30/16, permit any any]. Retargeting the
  // deny leaves the trailing permit in the common tail, so only the two deny
  // patterns (old and new) are dirty — not the whole network.
  DirtySet dirty = Diff(ExampleTexts(),
                        Edited(ExampleTexts(), 1, "deny ip any 10.30.0.0/16",
                               "deny ip any 10.31.0.0/16"));
  EXPECT_FALSE(dirty.everything);
  EXPECT_TRUE(dirty.dst_prefixes.empty());
  EXPECT_TRUE(dirty.TcPairDirty(ExampleSubnetS(), ExampleSubnetU()));
  EXPECT_FALSE(dirty.TcPairDirty(ExampleSubnetS(), ExampleSubnetT()));
  EXPECT_FALSE(dirty.DstDirty(ExampleSubnetT()));
}

TEST(DirtySetTest, StaticRouteAddScopesToItsDestination) {
  DirtySet dirty =
      Diff(ExampleTexts(), Edited(ExampleTexts(), 0, "router ospf 10",
                                  "ip route 10.20.0.0/16 10.0.1.2\n!\nrouter ospf 10"));
  EXPECT_FALSE(dirty.everything);
  EXPECT_TRUE(dirty.DstDirty(ExampleSubnetT()));
  EXPECT_FALSE(dirty.DstDirty(ExampleSubnetU()));
  EXPECT_FALSE(dirty.TcPairDirty(ExampleSubnetS(), ExampleSubnetU()));
}

TEST(DirtySetTest, InterfaceAddressEditDirtiesEverything) {
  DirtySet dirty = Diff(ExampleTexts(), Edited(ExampleTexts(), 2, "10.0.2.3/24",
                                               "10.0.2.4/24"));
  EXPECT_TRUE(dirty.everything);
  // Global dirt subsumes scoped dirt; nothing double-reports.
  EXPECT_TRUE(dirty.dst_prefixes.empty());
  EXPECT_TRUE(dirty.tc_dirt.empty());
}

TEST(DirtySetTest, RoutingProcessEditDirtiesEverything) {
  DirtySet dirty = Diff(ExampleTexts(),
                        Edited(ExampleTexts(), 2, " passive-interface Ethernet0/1\n", ""));
  EXPECT_TRUE(dirty.everything);
}

TEST(DirtySetTest, AclBindingAppearingDirtiesEverything) {
  // A binding appearing flips the unmatched-traffic default from permit-all
  // to the list's implicit deny: not scopable to the list's entries.
  DirtySet dirty = Diff(ExampleTexts(),
                        Edited(ExampleTexts(), 1, "ip address 10.0.3.2/24",
                               "ip address 10.0.3.2/24\n ip access-group BLOCK-U in"));
  EXPECT_TRUE(dirty.everything);
}

TEST(DirtySetTest, UnreferencedAclEditIsClean) {
  DirtySet dirty = Diff(
      ExampleTexts(),
      Edited(ExampleTexts(), 2, "router ospf 10",
             "ip access-list extended UNUSED\n deny ip any 10.1.0.0/16\n!\nrouter ospf 10"));
  EXPECT_TRUE(dirty.Clean());
}

TEST(DirtySetTest, DeviceSetChangeDirtiesEverything) {
  std::vector<std::string> two = {kExampleConfigA, kExampleConfigB};
  DirtySet dirty = ComputeDirtySet(ParseAll(ExampleTexts()), {}, ParseAll(two), {});
  EXPECT_TRUE(dirty.everything);
}

TEST(DirtySetTest, WaypointAnnotationChangeDirtiesEverything) {
  NetworkAnnotations before;
  before.waypoint_links.insert({"B", "C"});
  NetworkAnnotations after;
  DirtySet dirty =
      ComputeDirtySet(ParseAll(ExampleTexts()), before, ParseAll(ExampleTexts()), after);
  EXPECT_TRUE(dirty.everything);
}

// ---------------------------------------------------------------------------
// Session construction.

TEST(SessionTest, RecordsSatisfiedVerdictsPerGroup) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  RepairOptions options = InternalOptions();

  Result<std::shared_ptr<RepairSession>> clean = BuildSession(
      ParseAll(scenario.working_configs), scenario.annotations, scenario.policies, options);
  ASSERT_TRUE(clean.ok()) << clean.error().message();
  ASSERT_FALSE((*clean)->groups.empty());
  size_t covered = 0;
  for (const GroupRecord& group : (*clean)->groups) {
    EXPECT_TRUE(group.satisfied);
    covered += group.policies.size();
  }
  EXPECT_EQ(covered, scenario.policies.size());

  Result<std::shared_ptr<RepairSession>> broken = BuildSession(
      ParseAll(scenario.broken_configs), scenario.annotations, scenario.policies, options);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  bool any_unsatisfied = false;
  for (const GroupRecord& group : (*broken)->groups) {
    any_unsatisfied = any_unsatisfied || !group.satisfied;
  }
  EXPECT_TRUE(any_unsatisfied);
}

void ExpectSameGroups(const RepairSession& got, const RepairSession& want) {
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t i = 0; i < got.groups.size(); ++i) {
    SCOPED_TRACE("group " + std::to_string(i));
    EXPECT_EQ(got.groups[i].dsts, want.groups[i].dsts);
    EXPECT_EQ(got.groups[i].tcs, want.groups[i].tcs);
    EXPECT_TRUE(got.groups[i].policies == want.groups[i].policies);
    EXPECT_EQ(got.groups[i].satisfied, want.groups[i].satisfied);
  }
}

// cprd keeps a sound repair's own rebuilt and verified snapshot as its
// session (SessionFromVerified). It must record exactly what a from-scratch
// BuildSession records: for the repaired snapshot, and for a snapshot with
// violations.
TEST(SessionTest, VerifiedSnapshotRecordsWhatABuildRecords) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  CprOptions options;
  options.repair = InternalOptions();
  options.validate_with_simulator = false;
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  Result<CprReport> repaired = broken->Repair(scenario.policies, options);
  ASSERT_TRUE(repaired.ok() && repaired->Sound());
  ASSERT_NE(repaired->repaired_harc, nullptr);
  std::shared_ptr<RepairSession> handed = SessionFromVerified(
      repaired->repaired_network, repaired->repaired_harc, repaired->patched_annotations,
      scenario.policies, repaired->residual_graph_violations, options.repair);
  Result<std::shared_ptr<RepairSession>> built =
      BuildSession(repaired->patched_configs, repaired->patched_annotations,
                   scenario.policies, options.repair);
  ASSERT_TRUE(built.ok()) << built.error().message();
  ExpectSameGroups(*handed, **built);
  EXPECT_TRUE(handed->network->configs() == (*built)->network->configs());

  Result<Network> network =
      Network::Build(ParseAll(scenario.broken_configs), scenario.annotations);
  ASSERT_TRUE(network.ok()) << network.error().message();
  auto shared = std::make_shared<const Network>(std::move(network).value());
  auto harc = std::make_shared<const Harc>(Harc::Build(*shared));
  std::shared_ptr<RepairSession> unsound =
      SessionFromVerified(shared, harc, scenario.annotations, scenario.policies,
                          FindViolations(*harc, scenario.policies), options.repair);
  built = BuildSession(ParseAll(scenario.broken_configs), scenario.annotations,
                       scenario.policies, options.repair);
  ASSERT_TRUE(built.ok()) << built.error().message();
  ExpectSameGroups(*unsound, **built);
}

// ---------------------------------------------------------------------------
// HARC preparation.

TEST(PrepareHarcTest, RebuildsOnlyDirtyDestinations) {
  std::vector<std::string> before = ExampleTexts();
  std::vector<std::string> after =
      Edited(before, 0, "router ospf 10", "ip route 10.20.0.0/16 10.0.1.2\n!\nrouter ospf 10");
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});

  Result<std::shared_ptr<RepairSession>> session =
      BuildSession(ParseAll(before), annotations, {}, InternalOptions());
  ASSERT_TRUE(session.ok()) << session.error().message();

  Result<Network> network = Network::Build(ParseAll(after), annotations);
  ASSERT_TRUE(network.ok()) << network.error().message();
  DirtySet dirty = ComputeDirtySet((*session)->network->configs(), annotations,
                                   network->configs(), annotations);
  ASSERT_FALSE(dirty.everything);

  IncrementalStats stats;
  std::optional<Harc> prepared = PrepareHarc(**session, *network, dirty, &stats);
  ASSERT_TRUE(prepared.has_value());
  EXPECT_TRUE(stats.harc_cloned);
  EXPECT_EQ(stats.dirty_destinations, 1);  // Exactly subnet T.
  EXPECT_FALSE(stats.everything_dirty);
}

TEST(PrepareHarcTest, GlobalDirtDeclines) {
  Result<std::shared_ptr<RepairSession>> session =
      BuildSession(ParseAll(ExampleTexts()), {}, {}, InternalOptions());
  ASSERT_TRUE(session.ok()) << session.error().message();
  Result<Network> network = Network::Build(ParseAll(ExampleTexts()), {});
  ASSERT_TRUE(network.ok());
  DirtySet dirty;
  dirty.everything = true;
  IncrementalStats stats;
  EXPECT_FALSE(PrepareHarc(**session, *network, dirty, &stats).has_value());
  EXPECT_FALSE(stats.harc_cloned);
  EXPECT_TRUE(stats.everything_dirty);
}

// ---------------------------------------------------------------------------
// Engine: verdict reuse, and the concrete re-verification backstop.

TEST(IncrementalEngineTest, UnchangedSnapshotReusesEveryGroupVerdict) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  RepairOptions options = InternalOptions();
  Result<std::shared_ptr<RepairSession>> session = BuildSession(
      ParseAll(scenario.working_configs), scenario.annotations, scenario.policies, options);
  ASSERT_TRUE(session.ok()) << session.error().message();

  Result<Network> network =
      Network::Build(ParseAll(scenario.working_configs), scenario.annotations);
  ASSERT_TRUE(network.ok());
  DirtySet dirty;  // Identical snapshot: clean.
  IncrementalStats seed;
  std::optional<Harc> harc = PrepareHarc(**session, *network, dirty, &seed);
  ASSERT_TRUE(harc.has_value());

  Result<IncrementalOutcome> outcome = TryIncrementalRepair(
      **session, *network, *harc, dirty, scenario.policies, options, seed);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  ASSERT_TRUE(outcome->result.has_value()) << outcome->stats.skipped_reason;
  EXPECT_EQ(outcome->result->status, RepairStatus::kNoViolations);
  EXPECT_EQ(outcome->stats.groups_reused, outcome->stats.groups_total);
  EXPECT_EQ(outcome->stats.groups_resolved, 0);
  EXPECT_FALSE(outcome->stats.fell_back);
  EXPECT_EQ(outcome->result->lines_changed, 0);
  // The re-verify's verdict rides along, so the pipeline need not check the
  // same HARC again.
  ASSERT_TRUE(outcome->result->rebuilt_violations.has_value());
  EXPECT_TRUE(outcome->result->rebuilt_violations->empty());
}

TEST(IncrementalEngineTest, ConcreteReverifyCatchesUnderMarkedDirtAndFallsBack) {
  // Simulate a differ bug: the snapshot really changed (broken configs), but
  // the dirty set claims nothing did. Every verdict is wrongly reused — and
  // the concrete re-verification must catch it and run the full-scope
  // fallback, ending in a sound repair. Soundness never rests on the differ.
  // With certification on, the fallback problems' verdicts must also reach
  // the merged totals that the stats-json "certify" section reports.
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  for (certify::CertifyMode mode : {certify::CertifyMode::kOff, certify::CertifyMode::kOn}) {
    SCOPED_TRACE(certify::CertifyModeName(mode));
    RepairOptions options = InternalOptions();
    options.certify = mode;
    Result<std::shared_ptr<RepairSession>> session = BuildSession(
        ParseAll(scenario.working_configs), scenario.annotations, scenario.policies, options);
    ASSERT_TRUE(session.ok()) << session.error().message();

    Result<Network> network =
        Network::Build(ParseAll(scenario.broken_configs), scenario.annotations);
    ASSERT_TRUE(network.ok());
    DirtySet lying_dirty;  // Claims clean.
    IncrementalStats seed;
    std::optional<Harc> harc = PrepareHarc(**session, *network, lying_dirty, &seed);
    ASSERT_TRUE(harc.has_value());  // Same topology: clone-compatible.

    Result<IncrementalOutcome> outcome = TryIncrementalRepair(
        **session, *network, *harc, lying_dirty, scenario.policies, options, seed);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message();
    ASSERT_TRUE(outcome->result.has_value()) << outcome->stats.skipped_reason;
    EXPECT_TRUE(outcome->stats.fell_back);
    EXPECT_EQ(outcome->result->status, RepairStatus::kSuccess);
    EXPECT_GT(outcome->result->lines_changed, 0);
    ASSERT_NE(outcome->result->rebuilt_harc, nullptr);
    EXPECT_TRUE(
        FindViolations(*outcome->result->rebuilt_harc, scenario.policies).empty());
    // The fallback rebuilt the snapshot after the re-verify, so no verdict
    // rides along: the pipeline checks the final HARC itself.
    EXPECT_FALSE(outcome->result->rebuilt_violations.has_value());

    const RepairStats& stats = outcome->result->stats;
    int verified = 0;
    for (const ProblemReport& problem : stats.problem_reports) {
      verified += problem.certification == MaxSmtResult::Certification::kVerified ? 1 : 0;
    }
    EXPECT_EQ(verified > 0, mode == certify::CertifyMode::kOn);
    EXPECT_EQ(stats.certify_checked, verified);
    EXPECT_EQ(stats.certify_verified, verified);
    EXPECT_EQ(stats.certify_failed, 0);
  }
}

// ---------------------------------------------------------------------------
// Equivalence property: for every defect kind the dirty-config generator can
// plant, an incremental re-repair atop a repaired snapshot must reach the
// same verdict as a from-scratch repair of the same snapshot, at no worse
// predicted cost — on both backends. Kinds whose edits are not
// destination-scopable simply decline into the ordinary path, which is an
// equivalence proof of a different flavor, so they stay in the matrix.

struct DefectKind {
  const char* name;
  int DirtyOptions::* count;
};

constexpr DefectKind kDefectKinds[] = {
    {"undefined_acl_refs", &DirtyOptions::undefined_acl_refs},
    {"unused_acls", &DirtyOptions::unused_acls},
    {"shadowed_acl_entries", &DirtyOptions::shadowed_acl_entries},
    {"static_blackholes", &DirtyOptions::static_blackholes},
    {"duplicate_ips", &DirtyOptions::duplicate_ips},
    {"redistribution_cycles", &DirtyOptions::redistribution_cycles},
    {"unknown_passive_interfaces", &DirtyOptions::unknown_passive_interfaces},
};

std::set<std::string> ViolationKeys(const Network& network,
                                    const std::vector<Policy>& violations) {
  std::set<std::string> keys;
  for (const Policy& policy : violations) {
    keys.insert(policy.ToString(network));
  }
  return keys;
}

void RunDefectKindEquivalence(BackendChoice backend) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  CprOptions options;
  options.repair.backend = backend;
  options.repair.granularity = Granularity::kPerDst;
  options.repair.num_threads = 4;
  // The planted defects are lintable by design; the gate would reject both
  // sides identically and prove nothing.
  options.lint_mode = LintMode::kWarnOnly;
  options.validate_with_simulator = false;

  // The baseline: a repaired (sound) snapshot, as a daemon would retain it.
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  Result<CprReport> repaired = broken->Repair(scenario.policies, options);
  ASSERT_TRUE(repaired.ok()) << repaired.error().message();
  ASSERT_TRUE(repaired->Sound());
  std::vector<std::string> baseline_texts;
  for (const Config& config : repaired->patched_configs) {
    baseline_texts.push_back(PrintConfig(config));
  }
  Result<std::shared_ptr<RepairSession>> session =
      BuildSession(repaired->patched_configs, repaired->patched_annotations,
                   scenario.policies, options.repair);
  ASSERT_TRUE(session.ok()) << session.error().message();

  for (const DefectKind& kind : kDefectKinds) {
    SCOPED_TRACE(kind.name);
    std::vector<std::string> texts = baseline_texts;
    DirtyOptions defect;
    defect.seed = 13;
    defect.*kind.count = 1;
    Result<int> planted = SeedLintDefects(&texts, defect);
    ASSERT_TRUE(planted.ok()) << planted.error().message();
    if (*planted == 0) {
      continue;  // This topology cannot host the defect.
    }

    Result<Cpr> pipeline =
        Cpr::FromBaseline(*session, texts, repaired->patched_annotations);
    ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
    Result<CprReport> incremental = pipeline->Repair(scenario.policies, options);
    ASSERT_TRUE(incremental.ok()) << incremental.error().message();

    Result<Cpr> cold = Cpr::FromConfigTexts(texts, repaired->patched_annotations);
    ASSERT_TRUE(cold.ok()) << cold.error().message();
    Result<CprReport> scratch = cold->Repair(scenario.policies, options);
    ASSERT_TRUE(scratch.ok()) << scratch.error().message();

    EXPECT_TRUE(incremental->incremental.attempted);
    EXPECT_EQ(RepairStatusName(incremental->status), RepairStatusName(scratch->status));
    EXPECT_EQ(incremental->Sound(), scratch->Sound());
    EXPECT_EQ(ViolationKeys(pipeline->network(), incremental->residual_graph_violations),
              ViolationKeys(cold->network(), scratch->residual_graph_violations));
    EXPECT_LE(incremental->predicted_cost, scratch->predicted_cost);
  }
}

TEST(IncrementalEquivalenceTest, SevenDefectKindsMatchFromScratchInternal) {
  RunDefectKindEquivalence(BackendChoice::kInternal);
}

TEST(IncrementalEquivalenceTest, SevenDefectKindsMatchFromScratchZ3) {
  RunDefectKindEquivalence(BackendChoice::kZ3);
}

// A genuinely scoped edit atop the repaired baseline: the cheap path must
// engage (groups reused, only the touched group re-solved) and still match
// from-scratch exactly. This is the steady-state the daemon lives in. The
// session is read-only, so re-running the same edit on it repeats the same
// cold, fully certified solves.
TEST(IncrementalEquivalenceTest, ScopedAclEditReusesCleanGroups) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.granularity = Granularity::kPerDst;
  options.repair.num_threads = 4;
  options.validate_with_simulator = false;

  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  Result<CprReport> repaired = broken->Repair(scenario.policies, options);
  ASSERT_TRUE(repaired.ok()) << repaired.error().message();
  ASSERT_TRUE(repaired->Sound());

  // Drop one repair deny from one router — an ACL entry or a route-filter
  // entry — re-breaking a single traffic class or destination.
  std::vector<std::string> texts;
  for (const Config& config : repaired->patched_configs) {
    texts.push_back(PrintConfig(config));
  }
  ASSERT_TRUE(RemoveOneRepairDeny(&texts)) << "no repaired router carries a repair deny";

  Result<std::shared_ptr<RepairSession>> session =
      BuildSession(repaired->patched_configs, repaired->patched_annotations,
                   scenario.policies, options.repair);
  ASSERT_TRUE(session.ok()) << session.error().message();

  options.repair.certify = certify::CertifyMode::kOn;
  Result<Cpr> cold = Cpr::FromConfigTexts(texts, repaired->patched_annotations);
  ASSERT_TRUE(cold.ok()) << cold.error().message();
  Result<CprReport> scratch = cold->Repair(scenario.policies, options);
  ASSERT_TRUE(scratch.ok()) << scratch.error().message();

  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    Result<Cpr> pipeline = Cpr::FromBaseline(*session, texts, repaired->patched_annotations);
    ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
    Result<CprReport> incremental = pipeline->Repair(scenario.policies, options);
    ASSERT_TRUE(incremental.ok()) << incremental.error().message();

    ASSERT_TRUE(incremental->incremental.applied)
        << incremental->incremental.skipped_reason;
    EXPECT_GT(incremental->incremental.groups_reused, 0);
    EXPECT_GT(incremental->incremental.groups_resolved, 0);
    EXPECT_LT(incremental->incremental.groups_resolved,
              incremental->incremental.groups_total);
    EXPECT_FALSE(incremental->incremental.fell_back);
    EXPECT_TRUE(incremental->Sound());
    EXPECT_EQ(RepairStatusName(incremental->status), RepairStatusName(scratch->status));
    EXPECT_LE(incremental->predicted_cost, scratch->predicted_cost);

    // Every certificate is cold: its encoding baseline was replayed.
    ASSERT_FALSE(incremental->stats.problem_reports.empty());
    for (const ProblemReport& problem : incremental->stats.problem_reports) {
      EXPECT_EQ(problem.certification, MaxSmtResult::Certification::kVerified)
          << problem.certify_message;
      ASSERT_NE(problem.certificate, nullptr);
      EXPECT_TRUE(problem.certificate->cold);
    }
  }
}

}  // namespace
}  // namespace cpr::incremental
