// Tests for ETG/HARC construction (Algorithm 1) on the paper's running
// example.

#include <gtest/gtest.h>

#include "arc/harc.h"
#include "graph/reachability.h"
#include "tests/example_network.h"
#include "verify/checker.h"

namespace cpr {
namespace {

class HarcExampleTest : public ::testing::Test {
 protected:
  HarcExampleTest() : network_(BuildExampleNetwork()), harc_(Harc::Build(network_)) {
    r_ = *network_.FindSubnet(ExampleSubnetR());
    s_ = *network_.FindSubnet(ExampleSubnetS());
    t_ = *network_.FindSubnet(ExampleSubnetT());
    u_ = *network_.FindSubnet(ExampleSubnetU());
  }

  // The candidate inter-device edge from `from`'s OSPF out-vertex to `to`'s
  // OSPF in-vertex.
  CandidateEdgeId InterDeviceEdge(const std::string& from, const std::string& to) {
    DeviceId from_dev = *network_.FindDevice(from);
    DeviceId to_dev = *network_.FindDevice(to);
    ProcessId from_proc = network_.devices()[static_cast<size_t>(from_dev)].processes[0];
    ProcessId to_proc = network_.devices()[static_cast<size_t>(to_dev)].processes[0];
    auto edge = harc_.universe().FindEdge(harc_.universe().ProcessOut(from_proc),
                                          harc_.universe().ProcessIn(to_proc));
    EXPECT_TRUE(edge.has_value()) << from << "->" << to;
    return *edge;
  }

  Network network_;
  Harc harc_;
  SubnetId r_, s_, t_, u_;
};

TEST_F(HarcExampleTest, TopologyShape) {
  EXPECT_EQ(network_.devices().size(), 3u);
  EXPECT_EQ(network_.processes().size(), 3u);
  EXPECT_EQ(network_.links().size(), 3u);   // A-B, A-C, B-C
  EXPECT_EQ(network_.subnets().size(), 4u); // R, S, T, U
  EXPECT_EQ(network_.EnumerateTrafficClasses().size(), 12u);
}

TEST_F(HarcExampleTest, WaypointAnnotationLandsOnLink) {
  DeviceId b = *network_.FindDevice("B");
  DeviceId c = *network_.FindDevice("C");
  auto link = network_.FindLink(b, c);
  ASSERT_TRUE(link.has_value());
  EXPECT_TRUE(network_.links()[static_cast<size_t>(*link)].waypoint);
  DeviceId a = *network_.FindDevice("A");
  auto ab = network_.FindLink(a, b);
  ASSERT_TRUE(ab.has_value());
  EXPECT_FALSE(network_.links()[static_cast<size_t>(*ab)].waypoint);
}

TEST_F(HarcExampleTest, AetgHasConfiguredAdjacenciesOnly) {
  // A-B and B-C adjacencies exist in both directions; A-C is suppressed by
  // C's passive interface.
  EXPECT_TRUE(harc_.aetg().IsPresent(InterDeviceEdge("A", "B")));
  EXPECT_TRUE(harc_.aetg().IsPresent(InterDeviceEdge("B", "A")));
  EXPECT_TRUE(harc_.aetg().IsPresent(InterDeviceEdge("B", "C")));
  EXPECT_TRUE(harc_.aetg().IsPresent(InterDeviceEdge("C", "B")));
  EXPECT_FALSE(harc_.aetg().IsPresent(InterDeviceEdge("A", "C")));
  EXPECT_FALSE(harc_.aetg().IsPresent(InterDeviceEdge("C", "A")));
}

TEST_F(HarcExampleTest, AclRemovesEdgeOnlyFromAffectedTcEtg) {
  CandidateEdgeId a_to_b = InterDeviceEdge("A", "B");
  // Traffic to U is blocked entering B from A; other destinations pass.
  EXPECT_FALSE(harc_.tcetg(s_, u_).IsPresent(a_to_b));
  EXPECT_FALSE(harc_.tcetg(r_, u_).IsPresent(a_to_b));
  EXPECT_TRUE(harc_.tcetg(s_, t_).IsPresent(a_to_b));
  EXPECT_TRUE(harc_.tcetg(r_, t_).IsPresent(a_to_b));
  // The dETG for U keeps the edge: ACLs are traffic-class-scoped.
  EXPECT_TRUE(harc_.detg(u_).IsPresent(a_to_b));
}

// Build() assembles tcETGs through the precomputed ACL scaffold. The naive
// reference derives each pair on its own: the dETG minus the inter-device
// edges an ACL on the link blocks for the class, minus other subnets'
// source edges and the endpoint edges an ACL blocks. The two must agree
// edge-for-edge on every pair — this pins the scaffold on a network with a
// bound ACL (the S->U block on B) and source/destination trimming.
TEST_F(HarcExampleTest, ScaffoldTcetgsMatchNaiveRebuild) {
  const EtgUniverse& universe = harc_.universe();
  const int subnets = harc_.SubnetCount();
  for (SubnetId d = 0; d < subnets; ++d) {
    for (SubnetId s = 0; s < subnets; ++s) {
      if (s == d) {
        continue;
      }
      const TrafficClass tc(network_.subnets()[static_cast<size_t>(s)].prefix,
                            network_.subnets()[static_cast<size_t>(d)].prefix);
      Etg naive = harc_.detg(d);
      for (int e = 0; e < universe.EdgeCount(); ++e) {
        const CandidateEdge& edge = universe.edge(e);
        const bool blocked =
            (edge.kind == EtgEdgeKind::kInterDevice &&
             LinkAclBlocks(network_, edge.link, edge.device, tc)) ||
            (edge.kind == EtgEdgeKind::kEndpointSrc &&
             (edge.subnet != s || EndpointAclBlocks(network_, edge.subnet, true, tc))) ||
            (edge.kind == EtgEdgeKind::kEndpointDst &&
             EndpointAclBlocks(network_, edge.subnet, false, tc));
        if (blocked) {
          naive.SetPresent(e, false);
        }
      }
      EXPECT_TRUE(naive == harc_.tcetg(s, d)) << "tcetg " << s << "->" << d;
    }
  }
}

TEST_F(HarcExampleTest, HierarchyHolds) {
  Status status = harc_.CheckHierarchy();
  EXPECT_TRUE(status.ok()) << (status.ok() ? "" : status.error().message());
}

TEST_F(HarcExampleTest, WaypointFlagOnBcEdges) {
  const EtgUniverse& universe = harc_.universe();
  EXPECT_TRUE(universe.edge(InterDeviceEdge("B", "C")).waypoint);
  EXPECT_TRUE(universe.edge(InterDeviceEdge("C", "B")).waypoint);
  EXPECT_FALSE(universe.edge(InterDeviceEdge("A", "B")).waypoint);
}

// --- Table 1 ground truth from §2.2 -----------------------------------------

TEST_F(HarcExampleTest, Ep1AlwaysBlockedHolds) {
  EXPECT_TRUE(CheckAlwaysBlocked(harc_, s_, u_));
}

TEST_F(HarcExampleTest, Ep2AlwaysWaypointHolds) {
  EXPECT_TRUE(CheckAlwaysWaypoint(harc_, s_, t_));
}

TEST_F(HarcExampleTest, Ep3SingleDisjointPathOnly) {
  EXPECT_EQ(LinkDisjointPathCount(harc_, s_, t_), 1);
}

TEST_F(HarcExampleTest, Ep4PrimaryPathHolds) {
  std::vector<DeviceId> path = {*network_.FindDevice("A"), *network_.FindDevice("B"),
                                *network_.FindDevice("C")};
  EXPECT_TRUE(CheckPrimaryPath(harc_, r_, t_, path));
}

TEST_F(HarcExampleTest, TIsReachableFromS) {
  EXPECT_FALSE(CheckAlwaysBlocked(harc_, s_, t_));
  EXPECT_EQ(LinkDisjointPathCount(harc_, s_, t_), 1);
}

// Enabling the A-C adjacency (the paper's Figure 2b repair) makes two
// disjoint paths appear but breaks EP2 and EP4 — the cross-policy effects
// CPR must avoid.
TEST_F(HarcExampleTest, Figure2bRepairSideEffects) {
  std::vector<Config> configs = ParseExampleConfigs();
  // Remove `passive-interface Ethernet0/1` from C (the paper removes line 13
  // of Figure 1).
  OspfConfig* ospf = &configs[2].ospf_processes[0];
  ospf->passive_interfaces.erase("Ethernet0/1");
  NetworkAnnotations annotations;
  annotations.waypoint_links.insert({"B", "C"});
  Result<Network> repaired_net = Network::Build(std::move(configs), std::move(annotations));
  ASSERT_TRUE(repaired_net.ok());
  Harc repaired = Harc::Build(*repaired_net);

  SubnetId s = *repaired_net->FindSubnet(ExampleSubnetS());
  SubnetId t = *repaired_net->FindSubnet(ExampleSubnetT());
  SubnetId r = *repaired_net->FindSubnet(ExampleSubnetR());
  SubnetId u = *repaired_net->FindSubnet(ExampleSubnetU());

  EXPECT_EQ(LinkDisjointPathCount(repaired, s, t), 2);  // EP3 now satisfied...
  EXPECT_FALSE(CheckAlwaysWaypoint(repaired, s, t));    // ...but EP2 broke,
  EXPECT_FALSE(CheckAlwaysBlocked(repaired, s, u));     // EP1 broke (A->C->B),
  std::vector<DeviceId> abc = {*repaired_net->FindDevice("A"), *repaired_net->FindDevice("B"),
                               *repaired_net->FindDevice("C")};
  EXPECT_FALSE(CheckPrimaryPath(repaired, r, t, abc));  // and EP4 broke (A->C).
}

}  // namespace
}  // namespace cpr
