// Incremental re-repair engine tests (src/incremental/, DESIGN.md §12).
//
// The contract under test: incremental re-repair is an accelerator, never an
// oracle. The HARC diff scopes an edit exactly to the dETGs and tcETGs it
// changed, and declines when the candidate edges or the aETG changed; but
// whatever verdicts it reuses, the engine's final answer is concretely
// re-verified and falls back to a full repair on any residual — so for every
// defect kind the incremental verdict must match a from-scratch repair
// exactly, at no worse predicted cost.

#include "incremental/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "certify/certify.h"
#include "config/parser.h"
#include "config/printer.h"
#include "core/cpr.h"
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

RepairOptions InternalOptions() {
  RepairOptions options;
  options.backend = BackendChoice::kInternal;
  options.granularity = Granularity::kPerDst;
  options.num_threads = 4;
  return options;
}

// An edit to the example network as the engine sees it: the HARC diff
// against a session of the unedited snapshot, and the stats of a run on it
// (the session has no policies, so only the diff's own stats matter).
struct EditScope {
  HarcDiff diff;
  IncrementalStats stats;

  // Whether the destination's dETG changed. Subnet ids are the example
  // network's, which a non-global diff keeps.
  bool DstDirty(const Ipv4Prefix& dst) const {
    return std::binary_search(diff.dsts.begin(), diff.dsts.end(), Id(dst));
  }
  // Whether the traffic class's tcETG changed under an unchanged dETG.
  bool TcDirty(const Ipv4Prefix& src, const Ipv4Prefix& dst) const {
    return std::binary_search(diff.tcs.begin(), diff.tcs.end(),
                              std::make_pair(Id(src), Id(dst)));
  }
  bool Clean() const { return !diff.global && diff.dsts.empty() && diff.tcs.empty(); }

  static SubnetId Id(const Ipv4Prefix& prefix) {
    return *BuildExampleNetwork().FindSubnet(prefix);
  }
};

EditScope ScopeOf(const std::vector<std::string>& after,
                  NetworkAnnotations before_annotations = {},
                  NetworkAnnotations after_annotations = {}) {
  EditScope scope;
  Result<std::shared_ptr<RepairSession>> session = BuildSession(
      ParseAll(ExampleTexts()), std::move(before_annotations), {}, InternalOptions());
  Result<Cpr> pipeline = Cpr::FromConfigTexts(after, std::move(after_annotations));
  if (!session.ok() || !pipeline.ok()) {
    ADD_FAILURE() << "snapshot failed to build";
    return scope;
  }
  scope.diff = DiffHarcs(*(*session)->harc, pipeline->harc());
  Result<IncrementalOutcome> outcome = TryIncrementalRepair(
      **session, pipeline->network(), pipeline->harc(), {}, InternalOptions());
  if (!outcome.ok()) {
    ADD_FAILURE() << outcome.error().message();
    return scope;
  }
  scope.stats = outcome->stats;
  // The run declines exactly when the diff is global.
  EXPECT_EQ(outcome->stats.applied, !scope.diff.global) << outcome->stats.skipped_reason;
  EXPECT_EQ(outcome->stats.everything_dirty, scope.diff.global);
  return scope;
}

// ---------------------------------------------------------------------------
// HARC diff: an edit's scope is the ETGs it changed.

TEST(IncrementalScopeTest, IdenticalSnapshotsAreClean) {
  EditScope scope = ScopeOf(ExampleTexts());
  EXPECT_TRUE(scope.Clean());
  EXPECT_EQ(scope.stats.devices_changed, 0);
}

TEST(IncrementalScopeTest, DescriptionEditIsClean) {
  EditScope scope = ScopeOf(
      Edited(ExampleTexts(), 1, "description Link-to-A", "description uplink (renamed)"));
  EXPECT_TRUE(scope.Clean());
  EXPECT_EQ(scope.stats.devices_changed, 1);
}

TEST(IncrementalScopeTest, AclEntryEditScopesToItsTrafficClasses) {
  // B's BLOCK-U list is [deny any->10.30/16, permit any any], bound on the
  // link from A. Retargeting the deny gives every class toward U the A->B
  // edge back and changes nothing else: no dETG, no other tcETG.
  EditScope scope = ScopeOf(
      Edited(ExampleTexts(), 1, "deny ip any 10.30.0.0/16", "deny ip any 10.31.0.0/16"));
  EXPECT_FALSE(scope.diff.global);
  EXPECT_TRUE(scope.diff.dsts.empty());
  EXPECT_TRUE(scope.TcDirty(ExampleSubnetS(), ExampleSubnetU()));
  EXPECT_FALSE(scope.TcDirty(ExampleSubnetS(), ExampleSubnetT()));
  EXPECT_FALSE(scope.DstDirty(ExampleSubnetT()));
  EXPECT_EQ(scope.stats.dirty_traffic_classes, 3);  // R, S and T toward U.
}

TEST(IncrementalScopeTest, StaticRouteAddScopesToItsDestination) {
  // A static route toward T across the A-C link, which carries no
  // adjacency (C's side is passive), adds an edge to T's dETG only. Its
  // tcETGs change with it and count under the destination.
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});
  EditScope scope = ScopeOf(Edited(ExampleTexts(), 0, "router ospf 10",
                                   "ip route 10.20.0.0/16 10.0.2.3\n!\nrouter ospf 10"),
                            annotations, annotations);
  EXPECT_FALSE(scope.diff.global);
  EXPECT_TRUE(scope.DstDirty(ExampleSubnetT()));
  EXPECT_FALSE(scope.DstDirty(ExampleSubnetU()));
  EXPECT_FALSE(scope.TcDirty(ExampleSubnetS(), ExampleSubnetU()));
  EXPECT_EQ(scope.stats.dirty_destinations, 1);
  EXPECT_EQ(scope.stats.dirty_traffic_classes, 0);

  // The same route across the A-B link, which already carries the OSPF
  // adjacency, adds no edge: the dETG, and hence the scope, is unchanged.
  EXPECT_TRUE(ScopeOf(Edited(ExampleTexts(), 0, "router ospf 10",
                             "ip route 10.20.0.0/16 10.0.1.2\n!\nrouter ospf 10"),
                      annotations, annotations)
                  .Clean());
}

TEST(IncrementalScopeTest, InterfaceAddressEditDirtiesEverything) {
  // Moving C's end of the A-C link to another subnet removes the link and
  // adds two host subnets: the candidate edges differ.
  EXPECT_TRUE(
      ScopeOf(Edited(ExampleTexts(), 2, "10.0.2.3/24", "10.0.4.3/24")).diff.global);
  // Renumbering within the link's subnet keeps every candidate edge and ETG.
  EXPECT_TRUE(ScopeOf(Edited(ExampleTexts(), 2, "10.0.2.3/24", "10.0.2.4/24")).Clean());
}

TEST(IncrementalScopeTest, OspfCostEditDirtiesEverything) {
  // A cost is a candidate edge's default weight.
  EditScope scope = ScopeOf(Edited(ExampleTexts(), 1, "ip address 10.0.3.2/24",
                                   "ip address 10.0.3.2/24\n ip ospf cost 50"));
  EXPECT_TRUE(scope.diff.global);
  EXPECT_TRUE(scope.diff.dsts.empty());
  EXPECT_TRUE(scope.diff.tcs.empty());
}

TEST(IncrementalScopeTest, RoutingProcessEditDirtiesEverything) {
  // Without the passive interface, A and C form an adjacency: the aETG
  // differs, and the engine declines.
  EditScope scope =
      ScopeOf(Edited(ExampleTexts(), 2, " passive-interface Ethernet0/1\n", ""));
  EXPECT_TRUE(scope.diff.global);
  EXPECT_TRUE(scope.stats.everything_dirty);
  EXPECT_FALSE(scope.stats.skipped_reason.empty());
}

TEST(IncrementalScopeTest, AclBindingAppearingScopesToTheTrafficItDenies) {
  // Binding BLOCK-U on B's link from C denies the classes toward U that
  // edge; its trailing permit keeps every other class as it was.
  EditScope scope = ScopeOf(Edited(ExampleTexts(), 1, "ip address 10.0.3.2/24",
                                   "ip address 10.0.3.2/24\n ip access-group BLOCK-U in"));
  EXPECT_FALSE(scope.diff.global);
  EXPECT_TRUE(scope.diff.dsts.empty());
  EXPECT_TRUE(scope.TcDirty(ExampleSubnetT(), ExampleSubnetU()));
  EXPECT_FALSE(scope.TcDirty(ExampleSubnetU(), ExampleSubnetT()));
  EXPECT_EQ(scope.stats.dirty_traffic_classes, 3);  // R, S and T toward U.
}

TEST(IncrementalScopeTest, UnreferencedAclEditIsClean) {
  EditScope scope = ScopeOf(Edited(
      ExampleTexts(), 2, "router ospf 10",
      "ip access-list extended UNUSED\n deny ip any 10.1.0.0/16\n!\nrouter ospf 10"));
  EXPECT_TRUE(scope.Clean());
}

TEST(IncrementalScopeTest, DeviceSetChangeDirtiesEverything) {
  EXPECT_TRUE(ScopeOf({kExampleConfigA, kExampleConfigB}).diff.global);
}

TEST(IncrementalScopeTest, ReorderedDeviceConfigsDirtiesEverything) {
  // Device and process ids follow config order, and candidate edges name
  // them: a reordered snapshot does not line up with the session.
  EXPECT_TRUE(ScopeOf({kExampleConfigC, kExampleConfigA, kExampleConfigB}).diff.global);
}

TEST(IncrementalScopeTest, WaypointAnnotationChangeDirtiesEverything) {
  NetworkAnnotations before;
  before.waypoint_links.insert({"B", "C"});
  EXPECT_TRUE(ScopeOf(ExampleTexts(), before, {}).diff.global);
}

// The engine run on an edit of the example network (with its firewall on
// B-C) against a session holding EP1 (S->U blocked) and EP2 (S->T through
// the firewall), both satisfied, one group each.
Result<IncrementalOutcome> RunExampleEdit(const std::vector<std::string>& after) {
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});
  const std::vector<Policy> policies = {
      Policy::AlwaysBlocked(EditScope::Id(ExampleSubnetS()), EditScope::Id(ExampleSubnetU())),
      Policy::AlwaysWaypoint(EditScope::Id(ExampleSubnetS()), EditScope::Id(ExampleSubnetT()))};
  Result<std::shared_ptr<RepairSession>> session =
      BuildSession(ParseAll(ExampleTexts()), annotations, policies, InternalOptions());
  if (!session.ok()) {
    return session.error();
  }
  EXPECT_EQ((*session)->groups.size(), 2u);
  for (const GroupRecord& group : (*session)->groups) {
    EXPECT_TRUE(group.satisfied);
  }
  Result<Cpr> pipeline = Cpr::FromConfigTexts(after, annotations);
  if (!pipeline.ok()) {
    return pipeline.error();
  }
  return TryIncrementalRepair(**session, pipeline->network(), pipeline->harc(), policies,
                              InternalOptions());
}

TEST(IncrementalScopeTest, ResolvesOnlyDirtyDestinations) {
  // The static route toward T across the A-C link bypasses the firewall:
  // T's group re-solves and is repaired, U's group keeps its verdict.
  Result<IncrementalOutcome> outcome = RunExampleEdit(Edited(
      ExampleTexts(), 0, "router ospf 10", "ip route 10.20.0.0/16 10.0.2.3\n!\nrouter ospf 10"));
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  const IncrementalStats& stats = outcome->stats;
  ASSERT_TRUE(outcome->result.has_value()) << stats.skipped_reason;
  EXPECT_TRUE(stats.applied);
  EXPECT_FALSE(stats.everything_dirty);
  EXPECT_EQ(stats.dirty_destinations, 1);  // Exactly subnet T.
  EXPECT_EQ(stats.groups_total, 2);
  EXPECT_EQ(stats.groups_reused, 1);
  EXPECT_EQ(stats.groups_resolved, 1);
  EXPECT_FALSE(stats.fell_back);
  EXPECT_EQ(outcome->result->status, RepairStatus::kSuccess);
  EXPECT_GT(outcome->result->lines_changed, 0);
}

TEST(IncrementalScopeTest, GlobalDiffDeclines) {
  // A new A-C adjacency changes the aETG: the engine declines before it
  // classifies any group, and the caller runs the ordinary pipeline.
  Result<IncrementalOutcome> outcome =
      RunExampleEdit(Edited(ExampleTexts(), 2, " passive-interface Ethernet0/1\n", ""));
  ASSERT_TRUE(outcome.ok()) << outcome.error().message();
  const IncrementalStats& stats = outcome->stats;
  EXPECT_FALSE(outcome->result.has_value());
  EXPECT_TRUE(stats.attempted);
  EXPECT_FALSE(stats.applied);
  EXPECT_TRUE(stats.everything_dirty);
  EXPECT_FALSE(stats.skipped_reason.empty());
  EXPECT_EQ(stats.groups_reused, 0);
  EXPECT_EQ(stats.groups_resolved, 0);
  EXPECT_FALSE(stats.fell_back);
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
  std::shared_ptr<RepairSession> handed =
      SessionFromVerified(repaired->repaired_network, repaired->repaired_harc,
                          scenario.policies, repaired->residual_graph_violations,
                          options.repair);
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
  std::shared_ptr<RepairSession> unsound = SessionFromVerified(
      shared, harc, scenario.policies, FindViolations(*harc, scenario.policies),
      options.repair);
  built = BuildSession(ParseAll(scenario.broken_configs), scenario.annotations,
                       scenario.policies, options.repair);
  ASSERT_TRUE(built.ok()) << built.error().message();
  ExpectSameGroups(*unsound, **built);
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
  const Harc harc = Harc::Build(*network);

  Result<IncrementalOutcome> outcome =
      TryIncrementalRepair(**session, *network, harc, scenario.policies, options);
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
  // Simulate a wrong verdict: the session of the broken snapshot claims its
  // violated groups are satisfied, and the same snapshot arrives again. The
  // diff is clean, so every verdict is wrongly reused — and the concrete
  // re-verification must catch it and run the full-scope fallback, ending in
  // a sound repair. Soundness never rests on the reused verdicts. With
  // certification on, the fallback problems' verdicts must also reach the
  // merged totals that the stats-json "certify" section reports.
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  for (certify::CertifyMode mode : {certify::CertifyMode::kOff, certify::CertifyMode::kOn}) {
    SCOPED_TRACE(certify::CertifyModeName(mode));
    RepairOptions options = InternalOptions();
    options.certify = mode;
    Result<std::shared_ptr<RepairSession>> session = BuildSession(
        ParseAll(scenario.broken_configs), scenario.annotations, scenario.policies, options);
    ASSERT_TRUE(session.ok()) << session.error().message();
    int tampered = 0;
    for (GroupRecord& group : (*session)->groups) {
      tampered += group.satisfied ? 0 : 1;
      group.satisfied = true;
    }
    ASSERT_GT(tampered, 0);

    Result<Network> network =
        Network::Build(ParseAll(scenario.broken_configs), scenario.annotations);
    ASSERT_TRUE(network.ok());
    const Harc harc = Harc::Build(*network);

    Result<IncrementalOutcome> outcome =
        TryIncrementalRepair(**session, *network, harc, scenario.policies, options);
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

// One lint defect that changes no ETG, planted on a repaired fat-tree. The
// edit touches a routing process or an ACL binding, yet every dETG and
// tcETG stays as it was, so the incremental run must engage and reuse every
// group's verdict.
void ExpectEveryGroupReused(int DirtyOptions::* kind) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 4, 11);
  CprOptions options;
  options.repair = InternalOptions();
  options.lint_mode = LintMode::kWarnOnly;  // The defects are lintable by design.
  options.validate_with_simulator = false;
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  Result<CprReport> repaired = broken->Repair(scenario.policies, options);
  ASSERT_TRUE(repaired.ok() && repaired->Sound());
  std::vector<std::string> texts;
  for (const Config& config : repaired->patched_configs) {
    texts.push_back(PrintConfig(config));
  }
  DirtyOptions defect;
  defect.seed = 13;
  defect.*kind = 1;
  Result<int> planted = SeedLintDefects(&texts, defect);
  ASSERT_TRUE(planted.ok() && *planted == 1);

  Result<std::shared_ptr<RepairSession>> session =
      BuildSession(repaired->patched_configs, repaired->patched_annotations,
                   scenario.policies, options.repair);
  ASSERT_TRUE(session.ok()) << session.error().message();
  Result<Cpr> pipeline = Cpr::FromBaseline(*session, texts, repaired->patched_annotations);
  ASSERT_TRUE(pipeline.ok()) << pipeline.error().message();
  Result<CprReport> report = pipeline->Repair(scenario.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  const IncrementalStats& stats = report->incremental;
  ASSERT_TRUE(stats.applied) << stats.skipped_reason;
  EXPECT_EQ(stats.devices_changed, 1);
  EXPECT_EQ(stats.dirty_destinations + stats.dirty_traffic_classes, 0);
  EXPECT_EQ(stats.groups_reused, stats.groups_total);
  EXPECT_FALSE(stats.fell_back);
  EXPECT_TRUE(report->Sound());
}

TEST(IncrementalEngineTest, UnknownPassiveInterfaceReusesEveryGroup) {
  ExpectEveryGroupReused(&DirtyOptions::unknown_passive_interfaces);
}

TEST(IncrementalEngineTest, UndefinedAclBindingReusesEveryGroup) {
  // A binding to an undefined ACL permits all traffic.
  ExpectEveryGroupReused(&DirtyOptions::undefined_acl_refs);
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
