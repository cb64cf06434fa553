// Tests for the control-plane simulator: route computation (administrative
// distance, OSPF costs, statics, redistribution), ACL evaluation along the
// forwarding path, failure enumeration, and agreement with the ETG
// verifiers on choke-point-filtered networks.

#include <gtest/gtest.h>

#include "config/parser.h"
#include "obs/metrics.h"
#include "simulate/simulator.h"
#include "tests/example_network.h"
#include "verify/checker.h"
#include "verify/inference.h"
#include "workload/fattree.h"

namespace cpr {
namespace {

Network MustNetwork(std::vector<std::string> texts, NetworkAnnotations annotations = {}) {
  std::vector<Config> configs;
  for (const std::string& text : texts) {
    Result<Config> parsed = ParseConfig(text);
    if (!parsed.ok()) {
      throw std::runtime_error(parsed.error().message());
    }
    configs.push_back(std::move(parsed).value());
  }
  Result<Network> network = Network::Build(std::move(configs), std::move(annotations));
  if (!network.ok()) {
    throw std::runtime_error(network.error().message());
  }
  return std::move(network).value();
}

TEST(SimulatorTest, OspfPrefersCheaperPath) {
  Network network = BuildExampleNetwork();
  Simulator simulator(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  ForwardingOutcome out = simulator.Forward(s, t);
  ASSERT_EQ(out.kind, ForwardingOutcome::Kind::kDelivered);
  // Only available path: A -> B -> C (A-C has no adjacency).
  EXPECT_EQ(out.path.size(), 3u);
  EXPECT_EQ(out.links.size(), 2u);
}

TEST(SimulatorTest, FailureForcesNoRoute) {
  Network network = BuildExampleNetwork();
  Simulator simulator(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  DeviceId a = *network.FindDevice("A");
  DeviceId b = *network.FindDevice("B");
  std::set<LinkId> fail = {*network.FindLink(a, b)};
  EXPECT_EQ(simulator.Forward(s, t, fail).kind, ForwardingOutcome::Kind::kNoRoute);
}

TEST(SimulatorTest, PrimaryStaticWinsOverOspf) {
  // Two routers, two parallel links; static (AD 1) on the second link must
  // beat the OSPF route on the first.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e1
 ip address 10.0.2.1/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e1
 ip address 10.0.2.2/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
ip route 10.50.0.0/24 10.0.2.1
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));
  ForwardingOutcome out = simulator.Forward(src, dst);
  ASSERT_EQ(out.kind, ForwardingOutcome::Kind::kDelivered);
  ASSERT_EQ(out.links.size(), 1u);
  // The static's link is the e1-e1 (10.0.2.0/24) link.
  EXPECT_EQ(network.links()[static_cast<size_t>(out.links[0])].prefix,
            *Ipv4Prefix::Parse("10.0.2.0/24"));
}

TEST(SimulatorTest, BackupStaticUsedOnlyWhenOspfDies) {
  // Same topology, but the static has AD 200: OSPF (110) wins while its
  // link lives, and the static takes over when it fails.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e1
 ip address 10.0.2.1/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e1
 ip address 10.0.2.2/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
ip route 10.50.0.0/24 10.0.2.1 200
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));

  ForwardingOutcome normal = simulator.Forward(src, dst);
  ASSERT_EQ(normal.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_EQ(network.links()[static_cast<size_t>(normal.links[0])].prefix,
            *Ipv4Prefix::Parse("10.0.1.0/24"));  // OSPF link.

  LinkId ospf_link = normal.links[0];
  ForwardingOutcome failed_over = simulator.Forward(src, dst, {ospf_link});
  ASSERT_EQ(failed_over.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_EQ(network.links()[static_cast<size_t>(failed_over.links[0])].prefix,
            *Ipv4Prefix::Parse("10.0.2.0/24"));  // Static link.
}

TEST(SimulatorTest, BackupStaticAdvertiserUsesDistantAdvertiser) {
  // A redistributes its backup static (AD 200, over the A-C link, passive
  // for OSPF), so A advertises the destination into OSPF itself. Its own
  // advertisement comes back through B long before C's, which crosses the
  // cost-10 B-C link; A must still install C's route (OSPF, AD 110, via B)
  // and keep the static as a backup: a device settles labels of two
  // distinct sources and never uses its own.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e1
 ip address 10.0.3.1/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute static
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
ip route 10.50.0.0/24 10.0.3.3 200
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e1
 ip address 10.0.2.2/24
 ip ospf cost 10
router ospf 1
 network 10.0.0.0/8 area 0
)",
      R"(hostname C
interface e0
 ip address 10.0.2.3/24
interface e1
 ip address 10.0.3.3/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
  });
  Simulator simulator(network);
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));
  DeviceId a = *network.FindDevice("A");
  DeviceId b = *network.FindDevice("B");
  DeviceId c = *network.FindDevice("C");
  const LinkId a_b = *network.FindLink(a, b);
  auto route_at_a = [&](const std::set<LinkId>& failed) {
    std::optional<Simulator::RouteEntry> route =
        simulator.ComputeRoutes(dst, failed)[static_cast<size_t>(a)];
    EXPECT_TRUE(route.has_value() && route->out_link.has_value());
    return route.value_or(Simulator::RouteEntry{});
  };
  EXPECT_EQ(route_at_a({}).admin_distance, kAdOspf);
  EXPECT_EQ(route_at_a({}).out_link, a_b);
  // Without the A-B link the static takes over.
  EXPECT_EQ(route_at_a({a_b}).admin_distance, 200);
  EXPECT_EQ(route_at_a({a_b}).out_link, network.FindLink(a, c));
}

TEST(SimulatorTest, OffPathFailureMovesForwarding) {
  // B's most specific static (AD 200) loses to OSPF, so traffic takes the
  // OSPF link. Failing the static's own link — off the forwarding path —
  // promotes the less specific AD-1 static, which beats OSPF: forwarding
  // moves to a third link. Failure enumeration guided by the current
  // forwarding path would never try that failure.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e1
 ip address 10.0.2.1/24
interface e2
 ip address 10.50.0.1/24
interface e3
 ip address 10.0.3.1/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 passive-interface e3
 network 10.0.0.0/8 area 0
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e1
 ip address 10.0.2.2/24
interface e2
 ip address 10.60.0.1/24
interface e3
 ip address 10.0.3.2/24
router ospf 1
 redistribute connected
 passive-interface e1
 passive-interface e2
 passive-interface e3
 network 10.0.0.0/8 area 0
ip route 10.50.0.0/24 10.0.2.1 200
ip route 10.50.0.0/16 10.0.3.1
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));
  auto link_of = [&](const char* prefix) {
    for (size_t l = 0; l < network.links().size(); ++l) {
      if (network.links()[l].prefix == *Ipv4Prefix::Parse(prefix)) {
        return static_cast<LinkId>(l);
      }
    }
    throw std::runtime_error(std::string("no link ") + prefix);
  };

  ForwardingOutcome normal = simulator.Forward(src, dst);
  ASSERT_EQ(normal.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_EQ(normal.links, std::vector<LinkId>{link_of("10.0.1.0/24")});  // OSPF.

  ForwardingOutcome moved = simulator.Forward(src, dst, {link_of("10.0.2.0/24")});
  ASSERT_EQ(moved.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_EQ(moved.links, std::vector<LinkId>{link_of("10.0.3.0/24")});  // AD-1 static.
}

TEST(SimulatorTest, RouteFilterBlackholes) {
  // B filters routes to the destination: traffic blackholes at B's
  // upstream... i.e. A itself never hears the route.
  Network network = MustNetwork({
      R"(hostname A
interface e0
 ip address 10.0.1.1/24
interface e2
 ip address 10.60.0.1/24
router ospf 1
 redistribute connected
 passive-interface e2
 network 10.0.0.0/8 area 0
 distribute-list prefix NO50
ip prefix-list NO50 deny 10.50.0.0/24
ip prefix-list NO50 permit 0.0.0.0/0 le 32
)",
      R"(hostname B
interface e0
 ip address 10.0.1.2/24
interface e2
 ip address 10.50.0.1/24
router ospf 1
 redistribute connected
 passive-interface e2
 network 10.0.0.0/8 area 0
)",
  });
  Simulator simulator(network);
  SubnetId src = *network.FindSubnet(*Ipv4Prefix::Parse("10.60.0.0/24"));
  SubnetId dst = *network.FindSubnet(*Ipv4Prefix::Parse("10.50.0.0/24"));
  EXPECT_EQ(simulator.Forward(src, dst).kind, ForwardingOutcome::Kind::kNoRoute);
  // The reverse direction is unfiltered.
  EXPECT_EQ(simulator.Forward(dst, src).kind, ForwardingOutcome::Kind::kDelivered);
}

TEST(SimulatorTest, WaypointCrossingRecorded) {
  Network network = BuildExampleNetwork();
  Simulator simulator(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  SubnetId u = *network.FindSubnet(ExampleSubnetU());
  EXPECT_TRUE(simulator.Forward(s, t).crossed_waypoint);   // Crosses B-C.
  ForwardingOutcome to_u = simulator.Forward(t, u);
  ASSERT_EQ(to_u.kind, ForwardingOutcome::Kind::kDelivered);
  EXPECT_TRUE(to_u.crossed_waypoint);  // C -> B crosses the firewall link.
}

// On networks whose filters sit at destination choke points (the DC dataset
// pattern), the ETG verifier and the simulator must agree on every inferred
// policy — the model-vs-execution alignment the end-to-end validation rests
// on.
TEST(SimulatorAgreementTest, MatchesEtgVerdictsOnExampleNetwork) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  std::vector<Policy> policies = InferPolicies(harc);
  ASSERT_FALSE(policies.empty());
  // k = 0 quantifies over no failure set: both checkers hold it vacuously.
  policies.push_back(Policy::Reachability(*network.FindSubnet(ExampleSubnetS()),
                                          *network.FindSubnet(ExampleSubnetT()), 0));
  for (const Policy& policy : policies) {
    EXPECT_TRUE(VerifyPolicy(harc, policy)) << policy.ToString(network);
    EXPECT_TRUE(CheckPolicyBySimulation(network, policy, 3)) << policy.ToString(network);
  }
}

TEST(SimulatorTest, NegativeFailureCapEnumeratesNoFailureSet) {
  Network network = BuildExampleNetwork();
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  // s -> t is delivered with no failure, so the no-failure state alone
  // violates "always blocked"; a negative cap never reaches it.
  EXPECT_FALSE(CheckPolicyBySimulation(network, Policy::AlwaysBlocked(s, t), 0));
  EXPECT_TRUE(CheckPolicyBySimulation(network, Policy::AlwaysBlocked(s, t), -1));
}

// Policies sharing a destination share one route table per failure set:
// 40 PC1 policies over 8 destinations on a 32-link fat-tree, all holding,
// take 8 x 529 tables (every set of at most two links), not 40 x 529.
TEST(SimulatorTest, PoliciesSharingADestinationShareRouteTables) {
  for (unsigned seed : {1u, 7u, 101u}) {
    SCOPED_TRACE(seed);
    FatTreeScenario scenario = MakeFatTreeScenario(4, PolicyClass::kAlwaysBlocked, 40, seed);
    Network network = MustNetwork(scenario.working_configs, scenario.annotations);
    ASSERT_EQ(network.links().size(), 32u);
    std::set<SubnetId> destinations;
    for (const Policy& policy : scenario.policies) {
      destinations.insert(policy.dst);
    }
    ASSERT_EQ(destinations.size(), 8u);

    obs::Registry registry;
    obs::RegistryScope scope(&registry);
    EXPECT_TRUE(FindSimulationViolations(network, scenario.policies).empty());
    EXPECT_EQ(registry.counter("simulate.policies_checked").value(), 40);
    EXPECT_EQ(registry.counter("simulate.violations_found").value(), 0);
    EXPECT_EQ(registry.counter("simulate.route_tables").value(), 8 * 529);

    // The broken snapshot violates policies; the counters follow the result.
    Network broken = MustNetwork(scenario.broken_configs, scenario.annotations);
    const size_t violated = FindSimulationViolations(broken, scenario.policies).size();
    EXPECT_GT(violated, 0u);
    EXPECT_EQ(registry.counter("simulate.policies_checked").value(), 80);
    EXPECT_EQ(registry.counter("simulate.violations_found").value(),
              static_cast<int64_t>(violated));
  }
}

}  // namespace
}  // namespace cpr
