// Hierarchical ARC (HARC), paper §4.3.
//
// A HARC is three layers of ETGs over one candidate edge universe:
//
//   aETG   — one graph capturing routing adjacencies and redistribution,
//            which apply to *all* traffic classes;
//   dETG   — one graph per destination subnet, additionally applying
//            static routes and route filters (destination-scoped);
//   tcETG  — one graph per traffic class, additionally applying ACLs
//            (traffic-class-scoped).
//
// The hierarchy invariant: every edge present in a tcETG is present in its
// dETG, and every dETG edge not arising from a static route is present in
// the aETG. Build() constructs all layers from the network's configurations
// by Algorithm 1; CheckHierarchy() validates the invariant (tests and the
// repair decoder rely on it).

#ifndef CPR_SRC_ARC_HARC_H_
#define CPR_SRC_ARC_HARC_H_

#include <memory>
#include <vector>

#include "arc/etg.h"
#include "arc/universe.h"
#include "netbase/result.h"
#include "topo/network.h"

namespace cpr {

class Harc {
 public:
  // Builds the full HARC for a network. The network must outlive the HARC.
  static Harc Build(const Network& network);

  const EtgUniverse& universe() const { return *universe_; }
  const Network& network() const { return universe_->network(); }

  const Etg& aetg() const { return aetg_; }
  const Etg& detg(SubnetId dst) const { return detgs_[static_cast<size_t>(dst)]; }
  const Etg& tcetg(SubnetId src, SubnetId dst) const {
    return tcetgs_[TcIndex(src, dst)];
  }

  int SubnetCount() const { return static_cast<int>(detgs_.size()); }

  // SRC/DST vertices of a traffic class's tcETG.
  VertexId SrcVertex(SubnetId src) const { return universe_->SubnetVertex(src); }
  VertexId DstVertex(SubnetId dst) const { return universe_->SubnetVertex(dst); }

  // Verifies hierarchy constraints 18-19 (§5.1) hold on every layer.
  Status CheckHierarchy() const;

 private:
  size_t TcIndex(SubnetId src, SubnetId dst) const {
    return static_cast<size_t>(src) * detgs_.size() + static_cast<size_t>(dst);
  }

  std::shared_ptr<const EtgUniverse> universe_;
  Etg aetg_;
  std::vector<Etg> detgs_;
  std::vector<Etg> tcetgs_;  // SubnetCount^2, diagonal unused.
};

// --- Building blocks shared with the translator -----------------------------

// The distribute-list `process` applies to its routes, or null when it has
// none.
const DistributeList* ProcessDistributeList(const Network& network, ProcessId process);

// The `redistribute` statements of `process`, or null when its stanza is
// missing (or the process is connected/static, which has none).
const std::vector<Redistribution>* ProcessRedistributions(const Network& network,
                                                          ProcessId process);

// Whether `process` is configured to filter routes toward `destination`
// (its distribute-list's prefix list denies the destination prefix).
bool ProcessBlocksDestination(const Network& network, ProcessId process,
                              const Ipv4Prefix& destination);

// Whether the routing adjacency modeled by an inter-device candidate edge is
// currently established by the configurations (same protocol, both sides
// configured on the link, neither passive; BGP checks neighbor statements).
bool AdjacencyConfigured(const Network& network, const CandidateEdge& edge);

// Whether the redistribution modeled by a redistribution candidate edge is
// configured (the from-process redistributes the to-process's routes).
bool RedistributionConfigured(const Network& network, const CandidateEdge& edge);

// Whether ACLs currently block `tc` crossing `link` in the direction leaving
// `egress_device` (egress interface out-ACL or ingress interface in-ACL).
bool LinkAclBlocks(const Network& network, LinkId link, DeviceId egress_device,
                   const TrafficClass& tc);

// Whether an ACL blocks `tc` at a host-facing subnet interface: the in-ACL
// when the subnet is the traffic source, the out-ACL when it is the
// destination.
bool EndpointAclBlocks(const Network& network, SubnetId subnet, bool src_side,
                       const TrafficClass& tc);

// Whether a static route on `device` covers `dst` with a next hop across
// `link`.
bool StaticRouteConfigured(const Network& network, DeviceId device, LinkId link,
                           const Ipv4Prefix& dst);

}  // namespace cpr

#endif  // CPR_SRC_ARC_HARC_H_
