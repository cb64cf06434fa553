#include "verify/checker.h"

#include <set>

#include "graph/max_flow.h"
#include "graph/reachability.h"
#include "graph/shortest_path.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace cpr {

namespace {

// Maps an ETG path (vertex sequence) to the devices it visits, collapsing
// the in/out vertex pairs and dropping subnet endpoints.
std::vector<DeviceId> DevicesOfVertexPath(const EtgUniverse& universe,
                                          const std::vector<VertexId>& vertices) {
  const Network& network = universe.network();
  const int process_vertices = 2 * static_cast<int>(network.processes().size());
  std::vector<DeviceId> devices;
  for (VertexId v : vertices) {
    if (v >= process_vertices) {
      continue;  // Subnet endpoint.
    }
    DeviceId device = network.processes()[static_cast<size_t>(v / 2)].device;
    if (devices.empty() || devices.back() != device) {
      devices.push_back(device);
    }
  }
  return devices;
}

}  // namespace

bool CheckAlwaysBlocked(const Harc& harc, SubnetId src, SubnetId dst) {
  Digraph graph = harc.tcetg(src, dst).ToDigraph();
  return !IsReachable(graph, harc.SrcVertex(src), harc.DstVertex(dst));
}

bool CheckAlwaysWaypoint(const Harc& harc, SubnetId src, SubnetId dst) {
  Digraph graph = harc.tcetg(src, dst).ToDigraph();
  const EtgUniverse& universe = harc.universe();
  EdgeFilter no_waypoint_edges = [&universe](EdgeId id) {
    return !universe.edge(id).waypoint;
  };
  return !IsReachable(graph, harc.SrcVertex(src), harc.DstVertex(dst), no_waypoint_edges);
}

int LinkDisjointPathCount(const Harc& harc, SubnetId src, SubnetId dst) {
  const Etg& tcetg = harc.tcetg(src, dst);
  Digraph graph = tcetg.ToDigraph();
  MaxFlowResult flow = ComputeMaxFlow(graph, harc.SrcVertex(src), harc.DstVertex(dst),
                                      tcetg.LinkDisjointCapacities());
  return flow.value;
}

std::vector<DeviceId> ShortestPathDevices(const Harc& harc, SubnetId src, SubnetId dst) {
  Digraph graph = harc.tcetg(src, dst).ToDigraph();
  std::vector<VertexId> vertices =
      ShortestPathVertices(graph, harc.SrcVertex(src), harc.DstVertex(dst));
  return DevicesOfVertexPath(harc.universe(), vertices);
}

bool CheckPrimaryPath(const Harc& harc, SubnetId src, SubnetId dst,
                      const std::vector<DeviceId>& path) {
  std::vector<DeviceId> actual = ShortestPathDevices(harc, src, dst);
  return !actual.empty() && actual == path;
}

namespace {

// Links backing inter-device edges that lie on some SRC->DST path of the
// tcETG (edges stranded off every path cannot carry the traffic class).
std::set<LinkId> PathRelevantLinks(const Harc& harc, SubnetId src, SubnetId dst) {
  const EtgUniverse& universe = harc.universe();
  const Etg& tcetg = harc.tcetg(src, dst);
  Digraph graph = tcetg.ToDigraph();
  std::vector<VertexId> forward = ReachableSet(graph, harc.SrcVertex(src));
  std::set<VertexId> from_src(forward.begin(), forward.end());
  // Backward reachability: vertices that can reach DST.
  std::set<VertexId> to_dst;
  {
    Digraph reversed(graph.VertexCount());
    for (EdgeId e = 0; e < graph.EdgeCount(); ++e) {
      if (!graph.IsEdgeRemoved(e)) {
        reversed.AddEdge(graph.edge(e).to, graph.edge(e).from);
      }
    }
    std::vector<VertexId> backward = ReachableSet(reversed, harc.DstVertex(dst));
    to_dst.insert(backward.begin(), backward.end());
  }
  std::set<LinkId> links;
  for (CandidateEdgeId e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    if (edge.kind == EtgEdgeKind::kInterDevice && tcetg.IsPresent(e) &&
        from_src.count(edge.from) > 0 && to_dst.count(edge.to) > 0) {
      links.insert(edge.link);
    }
  }
  return links;
}

}  // namespace

bool CheckIsolation(const Harc& harc, SubnetId src1, SubnetId dst1, SubnetId src2,
                    SubnetId dst2) {
  std::set<LinkId> links_a = PathRelevantLinks(harc, src1, dst1);
  std::set<LinkId> links_b = PathRelevantLinks(harc, src2, dst2);
  for (LinkId link : links_b) {
    if (links_a.count(link) > 0) {
      return false;
    }
  }
  return true;
}

bool VerifyPolicy(const Harc& harc, const Policy& policy) {
  switch (policy.pc) {
    case PolicyClass::kAlwaysBlocked:
      return CheckAlwaysBlocked(harc, policy.src, policy.dst);
    case PolicyClass::kAlwaysWaypoint:
      return CheckAlwaysWaypoint(harc, policy.src, policy.dst);
    case PolicyClass::kReachability:
      return LinkDisjointPathCount(harc, policy.src, policy.dst) >= policy.k;
    case PolicyClass::kPrimaryPath:
      return CheckPrimaryPath(harc, policy.src, policy.dst, policy.primary_path);
    case PolicyClass::kIsolation:
      return CheckIsolation(harc, policy.src, policy.dst, policy.src2, policy.dst2);
  }
  return false;
}

std::vector<Policy> FindViolations(const Harc& harc, const std::vector<Policy>& policies) {
  obs::StageSpan span("verify.find_violations");
  std::vector<Policy> violations;
  for (const Policy& policy : policies) {
    if (!VerifyPolicy(harc, policy)) {
      violations.push_back(policy);
    }
  }
  obs::Registry& registry = obs::CurrentRegistry();
  registry.counter("verify.policies_checked").Add(static_cast<int64_t>(policies.size()));
  registry.counter("verify.violations_found").Add(static_cast<int64_t>(violations.size()));
  return violations;
}

}  // namespace cpr
