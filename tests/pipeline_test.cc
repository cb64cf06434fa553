// End-to-end pipeline tests: repair -> translation -> rebuilt network ->
// graph re-verification -> control-plane simulation, on the paper's running
// example (§2.2); the translator's exactness also on broken fat-trees.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/cpr.h"
#include "repair/encoder.h"
#include "repair/repair.h"
#include "simulate/simulator.h"
#include "solver/backend.h"
#include "tests/example_network.h"
#include "tests/patched_harc.h"
#include "verify/checker.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest() {
    NetworkAnnotations annotations;
    annotations.waypoint_links.insert({"B", "C"});
    Result<Cpr> built =
        Cpr::FromConfigTexts({kExampleConfigA, kExampleConfigB, kExampleConfigC},
                             std::move(annotations));
    if (!built.ok()) {
      throw std::runtime_error(built.error().message());
    }
    cpr_ = std::make_unique<Cpr>(std::move(built).value());
    r_ = *cpr_->network().FindSubnet(ExampleSubnetR());
    s_ = *cpr_->network().FindSubnet(ExampleSubnetS());
    t_ = *cpr_->network().FindSubnet(ExampleSubnetT());
    u_ = *cpr_->network().FindSubnet(ExampleSubnetU());
  }

  std::unique_ptr<Cpr> cpr_;
  SubnetId r_, s_, t_, u_;
};

// Before any repair: the simulator independently agrees with the paper's
// ground truth about the broken network.
TEST_F(PipelineTest, SimulatorAgreesWithGroundTruth) {
  const Network& network = cpr_->network();
  Simulator simulator(network);

  // No failures: S -> T delivered via A -> B -> C, crossing the firewall.
  ForwardingOutcome out = simulator.Forward(s_, t_);
  ASSERT_EQ(out.kind, ForwardingOutcome::Kind::kDelivered);
  std::vector<DeviceId> abc = {*network.FindDevice("A"), *network.FindDevice("B"),
                               *network.FindDevice("C")};
  EXPECT_EQ(out.path, abc);
  EXPECT_TRUE(out.crossed_waypoint);

  // S -> U dropped by the ACL on B's A-facing interface.
  EXPECT_EQ(simulator.Forward(s_, u_).kind, ForwardingOutcome::Kind::kAclDropped);

  // EP3 violated: failing A-B leaves T unreachable from S.
  DeviceId a = *network.FindDevice("A");
  DeviceId b = *network.FindDevice("B");
  std::set<LinkId> fail_ab = {*network.FindLink(a, b)};
  EXPECT_NE(simulator.Forward(s_, t_, fail_ab).kind,
            ForwardingOutcome::Kind::kDelivered);

  // Exhaustive policy checks (3 links -> full enumeration).
  EXPECT_TRUE(CheckPolicyBySimulation(network, Policy::AlwaysBlocked(s_, u_), 3));
  EXPECT_TRUE(CheckPolicyBySimulation(network, Policy::AlwaysWaypoint(s_, t_), 3));
  EXPECT_FALSE(CheckPolicyBySimulation(network, Policy::Reachability(s_, t_, 2), 3));
  EXPECT_TRUE(CheckPolicyBySimulation(network, Policy::PrimaryPath(r_, t_, abc), 3));
}

TEST_F(PipelineTest, FullRepairLoopIsSound) {
  std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s_, u_),
      Policy::AlwaysWaypoint(s_, t_),
      Policy::Reachability(s_, t_, 2),
  };
  CprOptions options;
  options.repair.granularity = Granularity::kPerDst;
  options.simulator_failure_cap = 3;  // Exhaustive on 3 links.
  Result<CprReport> report = cpr_->Repair(policies, options);
  ASSERT_TRUE(report.ok()) << (report.ok() ? "" : report.error().message());
  ASSERT_EQ(report->status, RepairStatus::kSuccess);

  // Sound: no residual violations, graph-theoretic or simulated.
  EXPECT_TRUE(report->residual_graph_violations.empty())
      << report->residual_graph_violations.size() << " graph violations remain";
  EXPECT_TRUE(report->residual_simulation_violations.empty())
      << report->residual_simulation_violations.size() << " simulated violations remain";
  EXPECT_TRUE(report->Sound());

  // The repair changed something, and few lines of it.
  EXPECT_GT(report->lines_changed, 0);
  EXPECT_LE(report->lines_changed, 6);
  EXPECT_FALSE(report->change_log.empty());

  // The predicted cost approximates the measured line count (each construct
  // edit is 1-3 lines).
  EXPECT_LE(report->predicted_cost, report->lines_changed * 3);
}

TEST_F(PipelineTest, RepairWithPc4PinsPrimaryPath) {
  std::vector<DeviceId> abc = {*cpr_->network().FindDevice("A"),
                               *cpr_->network().FindDevice("B"),
                               *cpr_->network().FindDevice("C")};
  std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s_, u_),
      Policy::AlwaysWaypoint(s_, t_),
      Policy::Reachability(s_, t_, 2),
      Policy::PrimaryPath(r_, t_, abc),
  };
  CprOptions options;
  options.repair.granularity = Granularity::kAllTcs;
  options.simulator_failure_cap = 3;
  Result<CprReport> report = cpr_->Repair(policies, options);
  ASSERT_TRUE(report.ok()) << (report.ok() ? "" : report.error().message());
  ASSERT_EQ(report->status, RepairStatus::kSuccess);
  EXPECT_TRUE(report->Sound()) << "graph: " << report->residual_graph_violations.size()
                               << " sim: " << report->residual_simulation_violations.size();
}

// The translator is exact when the HARC rebuilt from the patched
// configurations agrees with what the solved models predict. Encodes and
// solves every problem ComputeRepair would formulate, records each model's
// tcETG for every traffic class the problem encodes, translates the merged
// edits and rebuilds. Every edge a model predicts present must be present in
// the rebuilt HARC; with `exact`, every edge it predicts absent must be
// absent there too.
void ExpectRebuiltHarcMatchesModels(const Network& network,
                                    const std::vector<Policy>& policies,
                                    const RepairOptions& options, bool exact) {
  const Harc harc = Harc::Build(network);
  const EtgUniverse& universe = harc.universe();
  std::map<std::pair<SubnetId, SubnetId>, std::vector<bool>> predicted;
  RepairEdits edits;
  for (const RepairProblem& problem : PartitionProblems(harc, policies, options)) {
    RepairEncoder encoder(harc, problem, options);
    Status encoded = encoder.Encode();
    ASSERT_TRUE(encoded.ok()) << encoded.error().message();
    std::unique_ptr<MaxSmtBackend> backend = options.backend == BackendChoice::kZ3
                                                 ? MakeZ3Backend()
                                                 : MakeInternalBackend();
    MaxSmtResult model = backend->Solve(encoder.system(), /*timeout_seconds=*/0);
    ASSERT_TRUE(model.ok()) << MaxSmtStatusName(model.status) << ": " << model.message;
    for (const auto& [src, dst] : problem.tcs) {
      std::vector<bool>& present = predicted[{src, dst}];
      for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
        present.push_back(encoder.DecodeTc(model, src, dst, e));
      }
    }
    encoder.CollectEdits(model, &edits);
  }
  ASSERT_FALSE(predicted.empty()) << "no policy is violated";

  PatchedHarc patched = BuildPatchedHarc(network, edits);
  ASSERT_EQ(patched.harc.universe().EdgeCount(), universe.EdgeCount());
  for (const auto& [tc, present] : predicted) {
    const Etg& rebuilt = patched.harc.tcetg(tc.first, tc.second);
    for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
      const bool in_model = present[static_cast<size_t>(e)];
      if (in_model == rebuilt.IsPresent(e) || (!exact && !in_model)) {
        continue;
      }
      ADD_FAILURE() << "edge " << e << " (" << universe.VertexName(universe.edge(e).from)
                    << " -> " << universe.VertexName(universe.edge(e).to) << ") of "
                    << network.subnets()[static_cast<size_t>(tc.first)].prefix.ToString()
                    << " -> "
                    << network.subnets()[static_cast<size_t>(tc.second)].prefix.ToString()
                    << " is only in the " << (in_model ? "model" : "rebuilt HARC");
    }
  }
}

TEST_F(PipelineTest, RebuiltHarcMatchesSolvedModels) {
  std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s_, u_),
      Policy::AlwaysWaypoint(s_, t_),
      Policy::Reachability(s_, t_, 2),
  };
  ExpectRebuiltHarcMatchesModels(cpr_->network(), policies, RepairOptions{},
                                 /*exact=*/true);
}

// The same check on broken fat-trees. PC3 is checked one way only: a
// fat-tree core binds one ACL inbound on all of its interfaces, the encoder
// has one variable per (traffic class, interface direction), and the
// translator edits the ACL by name, so unblocking a traffic class on one
// interface unblocks it on every interface bound to that ACL. The rebuilt
// HARC then has edges no model predicted.
struct FatTreeCase {
  const char* name;
  int ports;
  PolicyClass pc;
  int policies;
  unsigned seed;
  BackendChoice backend;
  bool exact;
};

void PrintTo(const FatTreeCase& c, std::ostream* os) { *os << c.name; }

class TranslatorExactnessTest : public ::testing::TestWithParam<FatTreeCase> {};

TEST_P(TranslatorExactnessTest, RebuiltHarcMatchesSolvedModels) {
  const FatTreeCase& c = GetParam();
  FatTreeScenario scenario = MakeFatTreeScenario(c.ports, c.pc, c.policies, c.seed);
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  RepairOptions options;
  options.backend = c.backend;
  ExpectRebuiltHarcMatchesModels(broken->network(), scenario.policies, options, c.exact);
}

INSTANTIATE_TEST_SUITE_P(
    FatTrees, TranslatorExactnessTest,
    ::testing::Values(
        FatTreeCase{"Pc1Seed7Z3", 4, PolicyClass::kAlwaysBlocked, 40, 7,
                    BackendChoice::kZ3, true},
        FatTreeCase{"Pc1Seed11Z3", 4, PolicyClass::kAlwaysBlocked, 40, 11,
                    BackendChoice::kZ3, true},
        FatTreeCase{"Pc1Seed7Internal", 4, PolicyClass::kAlwaysBlocked, 40, 7,
                    BackendChoice::kInternal, true},
        FatTreeCase{"Pc1Seed11Internal", 4, PolicyClass::kAlwaysBlocked, 40, 11,
                    BackendChoice::kInternal, true},
        FatTreeCase{"Pc2Seed7Z3", 4, PolicyClass::kAlwaysWaypoint, 40, 7,
                    BackendChoice::kZ3, true},
        FatTreeCase{"Pc2Seed11Z3", 4, PolicyClass::kAlwaysWaypoint, 40, 11,
                    BackendChoice::kZ3, true},
        FatTreeCase{"Pc2Seed7Internal", 4, PolicyClass::kAlwaysWaypoint, 40, 7,
                    BackendChoice::kInternal, true},
        FatTreeCase{"Pc2Seed11Internal", 4, PolicyClass::kAlwaysWaypoint, 40, 11,
                    BackendChoice::kInternal, true},
        FatTreeCase{"Pc3Ports4Internal", 4, PolicyClass::kReachability, 12, 7,
                    BackendChoice::kInternal, false},
        FatTreeCase{"Pc3Ports6Internal", 6, PolicyClass::kReachability, 32, 7,
                    BackendChoice::kInternal, false}),
    [](const ::testing::TestParamInfo<FatTreeCase>& info) { return info.param.name; });

// Policy change scenario (§1): the operator newly requires S to be cut off
// from T while R must keep reaching T — a per-traffic-class block that an
// adjacency change cannot implement (it would sever R too).
TEST_F(PipelineTest, PolicyChangeBlockSToTKeepRToT) {
  std::vector<Policy> policies = {
      Policy::AlwaysBlocked(s_, t_),
      Policy::Reachability(r_, t_, 1),
      Policy::AlwaysBlocked(s_, u_),
  };
  CprOptions options;
  options.simulator_failure_cap = 3;
  Result<CprReport> report = cpr_->Repair(policies, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->status, RepairStatus::kSuccess);
  EXPECT_TRUE(report->Sound())
      << "graph: " << report->residual_graph_violations.size()
      << " sim: " << report->residual_simulation_violations.size();
  // The minimal realization is an ACL scoped to the S->T traffic class, so R
  // and U traffic classes stay untouched.
  EXPECT_LE(report->traffic_classes_impacted, 1);
}

}  // namespace
}  // namespace cpr
