// Property tests for the HARC abstraction itself.
//
// The central claim ARC rests on (paper §4.1, pathset-equivalence): a
// traffic class's ETG contains a SRC->DST path iff the real network
// delivers that traffic under *some* combination of link failures. The
// first test checks both directions against the simulator, exhaustively
// over all failure subsets of the example network.

#include <gtest/gtest.h>

#include "arc/harc.h"
#include "graph/reachability.h"
#include "simulate/simulator.h"
#include "tests/example_network.h"
#include "workload/datacenter.h"

namespace cpr {
namespace {

TEST(HarcPropertyTest, PathsetEquivalenceOnExampleNetwork) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  Simulator simulator(network);
  const int link_count = static_cast<int>(network.links().size());
  ASSERT_LE(link_count, 10);

  for (SubnetId s = 0; s < harc.SubnetCount(); ++s) {
    for (SubnetId d = 0; d < harc.SubnetCount(); ++d) {
      if (s == d ||
          network.subnets()[static_cast<size_t>(s)].device ==
              network.subnets()[static_cast<size_t>(d)].device) {
        continue;
      }
      Digraph graph = harc.tcetg(s, d).ToDigraph();
      bool etg_reachable = IsReachable(graph, harc.SrcVertex(s), harc.DstVertex(d));

      bool delivered_somewhere = false;
      for (uint32_t mask = 0; mask < (1u << link_count); ++mask) {
        std::set<LinkId> failed;
        for (int l = 0; l < link_count; ++l) {
          if ((mask >> l) & 1) {
            failed.insert(l);
          }
        }
        if (simulator.Forward(s, d, failed).kind == ForwardingOutcome::Kind::kDelivered) {
          delivered_somewhere = true;
          break;
        }
      }
      EXPECT_EQ(etg_reachable, delivered_somewhere)
          << "tc " << network.subnets()[static_cast<size_t>(s)].prefix.ToString() << " -> "
          << network.subnets()[static_cast<size_t>(d)].prefix.ToString();
    }
  }
}

TEST(HarcPropertyTest, UniverseCandidateEdgesWellFormed) {
  Network network = BuildExampleNetwork();
  EtgUniverse universe = EtgUniverse::Build(network);
  const int process_vertices = 2 * static_cast<int>(network.processes().size());
  for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    ASSERT_GE(edge.from, 0);
    ASSERT_LT(edge.from, universe.VertexCount());
    ASSERT_GE(edge.to, 0);
    ASSERT_LT(edge.to, universe.VertexCount());
    switch (edge.kind) {
      case EtgEdgeKind::kIntraSelf:
        EXPECT_EQ(edge.from_process, edge.to_process);
        EXPECT_EQ(universe.ProcessIn(edge.from_process), edge.from);
        EXPECT_EQ(universe.ProcessOut(edge.to_process), edge.to);
        break;
      case EtgEdgeKind::kRedistribution:
        EXPECT_NE(edge.from_process, edge.to_process);
        // Same device on both ends.
        EXPECT_EQ(network.processes()[static_cast<size_t>(edge.from_process)].device,
                  network.processes()[static_cast<size_t>(edge.to_process)].device);
        break;
      case EtgEdgeKind::kInterDevice: {
        ASSERT_GE(edge.link, 0);
        const RoutingProcess& from =
            network.processes()[static_cast<size_t>(edge.from_process)];
        const RoutingProcess& to =
            network.processes()[static_cast<size_t>(edge.to_process)];
        EXPECT_NE(from.device, to.device);
        EXPECT_EQ(edge.adjacency_realizable, from.kind == to.kind);
        EXPECT_EQ(edge.device, from.device);
        break;
      }
      case EtgEdgeKind::kEndpointSrc:
        EXPECT_GE(edge.subnet, 0);
        EXPECT_EQ(universe.SubnetVertex(edge.subnet), edge.from);
        EXPECT_GE(edge.to, process_vertices == 0 ? 0 : 0);
        break;
      case EtgEdgeKind::kEndpointDst:
        EXPECT_GE(edge.subnet, 0);
        EXPECT_EQ(universe.SubnetVertex(edge.subnet), edge.to);
        break;
    }
  }
}

TEST(HarcPropertyTest, EtgDigraphAlignsWithCandidateIds) {
  Network network = BuildExampleNetwork();
  Harc harc = Harc::Build(network);
  SubnetId s = *network.FindSubnet(ExampleSubnetS());
  SubnetId t = *network.FindSubnet(ExampleSubnetT());
  const Etg& etg = harc.tcetg(s, t);
  Digraph graph = etg.ToDigraph();
  ASSERT_EQ(graph.EdgeCount(), harc.universe().EdgeCount());
  for (CandidateEdgeId e = 0; e < harc.universe().EdgeCount(); ++e) {
    const CandidateEdge& candidate = harc.universe().edge(e);
    EXPECT_EQ(graph.edge(e).from, candidate.from);
    EXPECT_EQ(graph.edge(e).to, candidate.to);
    EXPECT_EQ(graph.IsEdgeRemoved(e), !etg.IsPresent(e));
  }
  EXPECT_EQ(graph.ActiveEdgeCount(), etg.PresentEdgeCount());
}

// Hierarchy invariant holds on generated networks, not just the example.
TEST(HarcPropertyTest, HierarchyHoldsOnGeneratedNetworks) {
  for (int index : {0, 7, 23, 41}) {
    DatacenterNetwork dc = GenerateDatacenterNetwork(index, 9, 0.2);
    std::vector<Config> configs;
    for (const std::string& text : dc.broken_configs) {
      Result<Config> parsed = ParseConfig(text);
      ASSERT_TRUE(parsed.ok());
      configs.push_back(std::move(parsed).value());
    }
    Result<Network> network = Network::Build(std::move(configs), dc.annotations);
    ASSERT_TRUE(network.ok());
    Harc harc = Harc::Build(*network);
    Status status = harc.CheckHierarchy();
    EXPECT_TRUE(status.ok()) << "network " << index << ": "
                             << (status.ok() ? "" : status.error().message());
  }
}

// The pipeline counts impacted traffic classes by comparing presence
// bitmaps whole (Etg::SamePresence). Every edge must count, on both sides
// of a word boundary, and weights must not.
TEST(HarcPropertyTest, SamePresenceSeesEveryEdge) {
  DatacenterNetwork dc = GenerateDatacenterNetwork(41, 9, 1.0);
  std::vector<Config> configs;
  for (const std::string& text : dc.broken_configs) {
    Result<Config> parsed = ParseConfig(text);
    ASSERT_TRUE(parsed.ok());
    configs.push_back(std::move(parsed).value());
  }
  Result<Network> network = Network::Build(std::move(configs), dc.annotations);
  ASSERT_TRUE(network.ok());
  Harc harc = Harc::Build(*network);
  const Etg& base = harc.tcetg(0, 1);
  const int edges = harc.universe().EdgeCount();
  ASSERT_GT(edges, 129);
  for (CandidateEdgeId e : {0, 63, 64, 127, 128, edges - 1}) {
    Etg changed = base;
    changed.SetPresent(e, !base.IsPresent(e));
    EXPECT_FALSE(base.SamePresence(changed)) << "edge " << e;
    EXPECT_EQ(changed.PresentEdgeCount(),
              base.PresentEdgeCount() + (base.IsPresent(e) ? -1 : 1));
    changed.SetPresent(e, base.IsPresent(e));
    EXPECT_TRUE(base.SamePresence(changed)) << "edge " << e;
  }
  Etg reweighted = base;
  reweighted.SetWeight(0, 7.5);
  EXPECT_TRUE(base.SamePresence(reweighted));
  EXPECT_FALSE(base == reweighted);
}

}  // namespace
}  // namespace cpr
