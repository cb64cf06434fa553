// Differential test: the table-driven simulator against the reference
// simulator (tests/reference_simulator.*), which recomputes every route by
// configuration lookup. For every destination and every failure set up to a
// size bound, both must produce the same per-device route table (admin
// distance and out-link) and the same forwarding outcome from every source
// (kind, device path, links, waypoint); FindSimulationViolations and
// CheckPolicyBySimulation must return the same verdicts. The soundness
// figure the benchmarks report comes from this simulator, so this test is
// what keeps that figure honest.
//
// Networks: broken and working fat-tree snapshots (PC1/PC2/PC4 on 4-port,
// PC3 on 6-port), CPR's own repairs of them, the synthetic data-center
// dataset (broken and hand-fixed), the paper's running example, and two
// networks for what those leave out: a five-router mix of OSPF, BGP, RIP,
// mutual redistribution, statics, route filters and ACLs, and a fat-tree
// seeded with lint defects (RIP redistribution cycles, unresolvable static
// next hops).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "arc/harc.h"
#include "config/parser.h"
#include "core/cpr.h"
#include "simulate/simulator.h"
#include "tests/example_network.h"
#include "tests/reference_simulator.h"
#include "verify/inference.h"
#include "workload/datacenter.h"
#include "workload/dirty.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

Network BuildFromTexts(const std::vector<std::string>& texts,
                       const NetworkAnnotations& annotations) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    if (!parsed.ok()) {
      throw std::runtime_error(parsed.error().message());
    }
    configs.push_back(std::move(parsed).value());
  }
  Result<Network> network = Network::Build(std::move(configs), annotations);
  if (!network.ok()) {
    throw std::runtime_error(network.error().message());
  }
  return std::move(network).value();
}

// Calls `visit` on every set of at most `max_size` links.
void ForEachLinkSet(int link_count, int max_size,
                    const std::function<void(const std::set<LinkId>&)>& visit) {
  std::set<LinkId> failed;
  std::function<void(int, int)> recurse = [&](int start, int remaining) {
    visit(failed);
    for (int l = start; l < link_count && remaining > 0; ++l) {
      failed.insert(l);
      recurse(l + 1, remaining - 1);
      failed.erase(l);
    }
  };
  recurse(0, max_size);
}

std::string Describe(const std::set<LinkId>& failed) {
  std::ostringstream out;
  out << "failed {";
  for (LinkId link : failed) {
    out << " " << link;
  }
  out << " }";
  return out.str();
}

template <typename Outcome>
std::string Describe(const Outcome& outcome) {
  std::ostringstream out;
  out << "kind " << static_cast<int>(outcome.kind) << " path";
  for (DeviceId device : outcome.path) {
    out << " " << device;
  }
  out << " links";
  for (LinkId link : outcome.links) {
    out << " " << link;
  }
  out << " waypoint " << outcome.crossed_waypoint;
  return out.str();
}

// Compares route tables and forwarding outcomes for every destination, every
// other source and every failure set of at most `max_failures` links.
// Reports the mismatch count and the first mismatch, not one per pair.
void ExpectSameBehaviour(const Network& network, int max_failures) {
  const Simulator simulator(network);
  const reference::Simulator oracle(network);
  const SubnetId subnet_count = static_cast<SubnetId>(network.subnets().size());
  int64_t compared = 0;
  int64_t mismatches = 0;
  std::string first;
  auto mismatch = [&](const std::string& what) {
    if (mismatches++ == 0) {
      first = what;
    }
  };
  ForEachLinkSet(
      static_cast<int>(network.links().size()), max_failures,
      [&](const std::set<LinkId>& failed) {
        for (SubnetId dst = 0; dst < subnet_count; ++dst) {
          const auto routes = simulator.ComputeRoutes(dst, failed);
          const auto expected = oracle.ComputeRoutes(dst, failed);
          ++compared;
          bool same = routes.size() == expected.size();
          for (size_t d = 0; same && d < routes.size(); ++d) {
            same = routes[d].has_value() == expected[d].has_value() &&
                   (!routes[d].has_value() ||
                    (routes[d]->admin_distance == expected[d]->admin_distance &&
                     routes[d]->out_link == expected[d]->out_link));
          }
          if (!same) {
            mismatch("route table to subnet " + std::to_string(dst) + ", " + Describe(failed));
          }
          for (SubnetId src = 0; src < subnet_count; ++src) {
            if (src == dst) {
              continue;
            }
            const ForwardingOutcome got = simulator.Forward(src, dst, failed);
            const reference::ForwardingOutcome want = oracle.Forward(src, dst, failed);
            ++compared;
            if (static_cast<int>(got.kind) != static_cast<int>(want.kind) ||
                got.path != want.path || got.links != want.links ||
                got.crossed_waypoint != want.crossed_waypoint) {
              mismatch("forwarding " + std::to_string(src) + " -> " + std::to_string(dst) +
                       ", " + Describe(failed) + ": got " + Describe(got) + ", want " +
                       Describe(want));
            }
          }
        }
      });
  EXPECT_GT(compared, 0);
  EXPECT_EQ(mismatches, 0) << "of " << compared << " comparisons; first: " << first;
}

// The reference FindSimulationViolations keeps exactly the policies its
// CheckPolicyBySimulation rejects, so one reference run yields both
// expectations.
void ExpectSameVerdicts(const Network& network, const std::vector<Policy>& policies,
                        int failure_cap) {
  ASSERT_FALSE(policies.empty());
  const std::vector<Policy> expected =
      reference::FindSimulationViolations(network, policies, failure_cap);
  EXPECT_EQ(FindSimulationViolations(network, policies, failure_cap), expected);
  for (const Policy& policy : policies) {
    const bool holds = std::find(expected.begin(), expected.end(), policy) == expected.end();
    EXPECT_EQ(CheckPolicyBySimulation(network, policy, failure_cap), holds)
        << policy.ToString(network);
  }
}

// Failure sets of up to two links on 4-port fat-trees, one elsewhere.
int FailureDepth(int ports) { return ports == 4 ? 2 : 1; }

FatTreeScenario Scenario(PolicyClass pc, int* ports) {
  *ports = pc == PolicyClass::kReachability ? 6 : 4;
  return MakeFatTreeScenario(*ports, pc, *ports == 4 ? 40 : 32, 7);
}

TEST(SimulatorReferenceTest, ExampleNetworkAgreesUnderEveryFailureSet) {
  const Network network = BuildExampleNetwork();
  // Three links: enumerate every failure set.
  ExpectSameBehaviour(network, static_cast<int>(network.links().size()));
  std::vector<Policy> policies = InferPolicies(Harc::Build(network));
  const SubnetId s = *network.FindSubnet(ExampleSubnetS());
  const SubnetId t = *network.FindSubnet(ExampleSubnetT());
  const SubnetId u = *network.FindSubnet(ExampleSubnetU());
  policies.push_back(Policy::AlwaysBlocked(s, u));
  policies.push_back(Policy::AlwaysWaypoint(s, t));
  policies.push_back(Policy::Reachability(s, t, 2));
  policies.push_back(Policy::Isolated(s, t, u, t));
  ExpectSameVerdicts(network, policies, 3);
}

// Every policy class over every ordered pair of host subnets.
std::vector<Policy> AllPairPolicies(const Network& network) {
  std::vector<Policy> policies;
  const SubnetId subnet_count = static_cast<SubnetId>(network.subnets().size());
  for (SubnetId s = 0; s < subnet_count; ++s) {
    for (SubnetId d = 0; d < subnet_count; ++d) {
      if (s == d) {
        continue;
      }
      policies.push_back(Policy::AlwaysBlocked(s, d));
      policies.push_back(Policy::AlwaysWaypoint(s, d));
      policies.push_back(Policy::Reachability(s, d, 2));
      policies.push_back(Policy::PrimaryPath(
          s, d, {network.subnets()[static_cast<size_t>(s)].device,
                 network.subnets()[static_cast<size_t>(d)].device}));
      policies.push_back(Policy::Isolated(s, d, d, s));
    }
  }
  return policies;
}

// Five routers, seven links. OSPF on R1-R3 (a costed and a passive link, a
// route filter on R3), BGP on R3-R5 (a network statement, connected and
// static redistribution), RIP on the R2-R4 link, and OSPF<->BGP and
// OSPF<->RIP redistribution, so a second redistribution pass matters. R1
// holds a most-specific AD-200 static and two less specific ones of equal
// length (AD 1 first, then AD 5); R5 a static whose next hop resolves
// nowhere. ACLs filter in and out.
TEST(SimulatorReferenceTest, MixedProtocolNetworkAgreesUnderEveryFailureSet) {
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"R2", "R3"});
  const Network network = BuildFromTexts(
      {
          R"(hostname R1
interface e12
 ip address 10.0.12.1/24
interface e13
 ip address 10.0.13.1/24
interface e15
 ip address 10.0.15.1/24
interface h1
 ip address 10.1.0.1/16
router ospf 1
 redistribute connected
 redistribute static
 passive-interface e15
 passive-interface h1
 network 10.0.0.0/8 area 0
ip route 10.4.0.0/16 10.0.15.5 200
ip route 10.4.0.0/15 10.0.13.3
ip route 10.4.0.0/15 10.0.12.2 5
)",
          R"(hostname R2
interface e12
 ip address 10.0.12.2/24
interface e23
 ip address 10.0.23.2/24
 ip ospf cost 5
interface e24
 ip address 10.0.24.2/24
interface h2
 ip address 10.2.0.1/16
 ip access-group NO-H5 out
ip access-list extended NO-H5
 deny ip 10.5.0.0/16 any
 permit ip any any
router ospf 1
 redistribute connected
 redistribute rip
 passive-interface e24
 passive-interface h2
 network 10.0.0.0/8 area 0
router rip
 network 10.0.24.0/24
 redistribute ospf 1
)",
          R"(hostname R3
interface e13
 ip address 10.0.13.3/24
interface e23
 ip address 10.0.23.3/24
interface e34
 ip address 10.0.34.3/24
interface h3
 ip address 10.3.0.1/16
ip prefix-list NO-H5 deny 10.5.0.0/16
ip prefix-list NO-H5 permit 0.0.0.0/0 le 32
router ospf 1
 redistribute connected
 redistribute bgp 65003
 passive-interface e34
 passive-interface h3
 network 10.0.0.0/8 area 0
 distribute-list prefix NO-H5
router bgp 65003
 neighbor 10.0.34.4 remote-as 65004
 redistribute ospf 1
)",
          R"(hostname R4
interface e24
 ip address 10.0.24.4/24
interface e34
 ip address 10.0.34.4/24
 ip access-group NO-H1 in
interface e45
 ip address 10.0.45.4/24
interface h4
 ip address 10.4.0.1/16
ip access-list extended NO-H1
 deny ip 10.1.0.0/16 10.4.0.0/16
 permit ip any any
router bgp 65004
 neighbor 10.0.34.3 remote-as 65003
 neighbor 10.0.45.5 remote-as 65005
 network 10.4.0.0/16
 redistribute rip
router rip
 network 10.0.24.0/24
 redistribute bgp 65004
)",
          R"(hostname R5
interface e15
 ip address 10.0.15.5/24
interface e45
 ip address 10.0.45.5/24
interface h5
 ip address 10.5.0.1/16
router bgp 65005
 neighbor 10.0.45.4 remote-as 65004
 redistribute connected
 redistribute static
ip route 10.1.0.0/16 10.0.15.1
ip route 10.2.0.0/16 10.0.15.1 250
ip route 10.3.0.0/16 10.99.0.1
)",
      },
      annotations);
  ASSERT_EQ(network.links().size(), 7u);
  ASSERT_EQ(network.subnets().size(), 5u);
  const int all_links = static_cast<int>(network.links().size());
  ExpectSameBehaviour(network, all_links);
  ExpectSameVerdicts(network, AllPairPolicies(network), all_links);
}

TEST(SimulatorReferenceTest, LintDefectFatTreeAgrees) {
  FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 40, 7);
  std::vector<std::string> texts = scenario.working_configs;
  DirtyOptions defects;
  defects.seed = 3;
  defects.redistribution_cycles = 4;
  defects.static_blackholes = 4;
  defects.unknown_passive_interfaces = 2;
  Result<int> planted = SeedLintDefects(&texts, defects);
  ASSERT_TRUE(planted.ok()) << planted.error().message();
  ASSERT_EQ(*planted, defects.Total());
  const Network network = BuildFromTexts(texts, scenario.annotations);
  ExpectSameBehaviour(network, 1);
  ExpectSameVerdicts(network, scenario.policies, 1);
}

class SimulatorReferenceFatTreeTest : public ::testing::TestWithParam<PolicyClass> {};

TEST_P(SimulatorReferenceFatTreeTest, BrokenAndWorkingSnapshotsAgree) {
  int ports = 0;
  const FatTreeScenario scenario = Scenario(GetParam(), &ports);
  for (const auto* texts : {&scenario.broken_configs, &scenario.working_configs}) {
    SCOPED_TRACE(texts == &scenario.broken_configs ? "broken" : "working");
    const Network network = BuildFromTexts(*texts, scenario.annotations);
    ExpectSameBehaviour(network, FailureDepth(ports));
    ExpectSameVerdicts(network, scenario.policies, FailureDepth(ports));
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, SimulatorReferenceFatTreeTest,
                         ::testing::Values(PolicyClass::kAlwaysBlocked,
                                           PolicyClass::kAlwaysWaypoint,
                                           PolicyClass::kReachability,
                                           PolicyClass::kPrimaryPath),
                         [](const ::testing::TestParamInfo<PolicyClass>& info) {
                           return PolicyClassName(info.param);
                         });

// CPR's own repairs (internal engine, per-destination problems; PC4 is
// skipped because per-destination problems cannot split it).
class SimulatorReferenceRepairTest
    : public ::testing::TestWithParam<std::tuple<PolicyClass, CompressMode>> {};

TEST_P(SimulatorReferenceRepairTest, RepairedSnapshotAgrees) {
  const auto [pc, compress] = GetParam();
  int ports = 0;
  const FatTreeScenario scenario = Scenario(pc, &ports);
  Result<Cpr> broken = Cpr::FromConfigTexts(scenario.broken_configs, scenario.annotations);
  ASSERT_TRUE(broken.ok()) << broken.error().message();
  CprOptions options;
  options.repair.backend = BackendChoice::kInternal;
  options.repair.granularity = Granularity::kPerDst;
  options.repair.compress.mode = compress;
  options.validate_with_simulator = false;
  Result<CprReport> report = broken->Repair(scenario.policies, options);
  ASSERT_TRUE(report.ok()) << report.error().message();
  ASSERT_FALSE(report->patched_configs.empty());
  Result<Network> repaired =
      Network::Build(report->patched_configs, report->patched_annotations);
  ASSERT_TRUE(repaired.ok()) << repaired.error().message();
  ExpectSameBehaviour(*repaired, FailureDepth(ports));
  ExpectSameVerdicts(*repaired, scenario.policies, FailureDepth(ports));
}

INSTANTIATE_TEST_SUITE_P(
    CprRepairs, SimulatorReferenceRepairTest,
    ::testing::Combine(::testing::Values(PolicyClass::kAlwaysBlocked,
                                         PolicyClass::kAlwaysWaypoint,
                                         PolicyClass::kReachability),
                       ::testing::Values(CompressMode::kOff, CompressMode::kAuto)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyClass, CompressMode>>& info) {
      return PolicyClassName(std::get<0>(info.param)) +
             (std::get<1>(info.param) == CompressMode::kOff ? "_off" : "_auto");
    });

class SimulatorReferenceDatacenterTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorReferenceDatacenterTest, BrokenAndHandFixedSnapshotsAgree) {
  const DatacenterNetwork dc = GenerateDatacenterNetwork(GetParam(), 2017, 0.3);
  for (const auto* texts : {&dc.broken_configs, &dc.handfixed_configs}) {
    SCOPED_TRACE(texts == &dc.broken_configs ? "broken" : "hand-fixed");
    const Network network = BuildFromTexts(*texts, dc.annotations);
    ExpectSameBehaviour(network, 1);
    ExpectSameVerdicts(network, dc.policies, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Dataset, SimulatorReferenceDatacenterTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace cpr
