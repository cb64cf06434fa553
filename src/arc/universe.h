// The ETG universe: shared vertex layout and candidate edge set for all ETGs
// of one network.
//
// HARC's hierarchy constraints (paper §4.3, §5.1 constraints 18-19) and soft
// constraints (Table 2) relate "the same edge" across tcETGs, dETGs, and the
// aETG. To make that identity first-class, every ETG of a network is a
// presence bitmap over one shared *candidate edge* universe:
//
//  * two vertices (in/out) per routing process, one vertex per host subnet;
//  * an intra-device self edge per process (procI -> procO, always present);
//  * a candidate redistribution edge for every ordered pair of distinct
//    processes on a device;
//  * a candidate inter-device edge per physical link direction and process
//    pair across it (footnote 6: edges may only be added where a physical
//    link exists);
//  * endpoint edges between subnet vertices and the attached device's
//    processes.
//
// Whether a candidate is *present* in a given ETG is decided by the builder
// (Algorithm 1); whether it *may become present at the aETG level* is the
// `adjacency_realizable` flag (a routing adjacency needs same-protocol
// processes; a dETG-only edge can instead be realized by a static route).

#ifndef CPR_SRC_ARC_UNIVERSE_H_
#define CPR_SRC_ARC_UNIVERSE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/digraph.h"
#include "topo/network.h"

namespace cpr {

// Index of a candidate edge within the universe.
using CandidateEdgeId = int;

enum class EtgEdgeKind {
  kIntraSelf,        // procI -> procO of one process
  kRedistribution,   // procI of one process -> procO of another, same device
  kInterDevice,      // procO -> procI across a physical link
  kEndpointSrc,      // subnet vertex -> procO on the attached device
  kEndpointDst,      // procI on the attached device -> subnet vertex
};

struct CandidateEdge {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  EtgEdgeKind kind = EtgEdgeKind::kInterDevice;
  // The process owning the `from` endpoint (I or O vertex); -1 for subnet
  // endpoints.
  ProcessId from_process = -1;
  ProcessId to_process = -1;
  LinkId link = -1;      // kInterDevice only
  SubnetId subnet = -1;  // endpoint edges only
  DeviceId device = -1;  // device owning the edge (intra/endpoint); egress
                         // device for inter-device edges
  // Default weight from configurations (egress interface OSPF cost for
  // inter-device edges; 0 otherwise).
  double default_weight = 0.0;
  // True when the underlying physical link carries a waypoint (wedge flag).
  bool waypoint = false;
  // True when this edge could be realized by a routing adjacency
  // (same-protocol processes on both ends) and hence may appear in the aETG.
  bool adjacency_realizable = false;

  bool operator==(const CandidateEdge& other) const = default;
};

class EtgUniverse {
 public:
  static EtgUniverse Build(const Network& network);

  const Network& network() const { return *network_; }

  int VertexCount() const { return vertex_count_; }
  int EdgeCount() const { return static_cast<int>(edges_.size()); }
  const std::vector<CandidateEdge>& edges() const { return edges_; }
  const CandidateEdge& edge(CandidateEdgeId id) const {
    return edges_[static_cast<size_t>(id)];
  }

  VertexId ProcessIn(ProcessId process) const { return 2 * process; }
  VertexId ProcessOut(ProcessId process) const { return 2 * process + 1; }
  VertexId SubnetVertex(SubnetId subnet) const {
    return 2 * static_cast<VertexId>(network_->processes().size()) + subnet;
  }

  // Candidate edge from `from` to `to`, if one exists.
  std::optional<CandidateEdgeId> FindEdge(VertexId from, VertexId to) const;

  // Human-readable vertex label, e.g. "B.ospf10.in" or "net:10.20.0.0/16".
  std::string VertexName(VertexId vertex) const;

 private:
  const Network* network_ = nullptr;
  int vertex_count_ = 0;
  std::vector<CandidateEdge> edges_;
  std::unordered_map<int64_t, CandidateEdgeId> edge_index_;
};

}  // namespace cpr

#endif  // CPR_SRC_ARC_UNIVERSE_H_
