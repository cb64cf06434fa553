// MaxSMT encoding of HARC repair (paper §5, Figure 5 and Table 2).
//
// A RepairProblem names the slice of the HARC being repaired: a set of
// destinations (their dETGs), the policied traffic classes under those
// destinations (their tcETGs) and the policies that must hold. The aETG may
// change only under Granularity::kAllTcs (options.h).
//
// Decision variables correspond to *configuration constructs* rather than
// raw edges (a soundness refinement over the paper's per-edge formulation —
// see DESIGN.md §4): one boolean per candidate routing adjacency (symmetric
// across the link, as protocols are), per redistribution, per (destination,
// process) route-filter entry, per (destination, device, link) static route,
// per (traffic class, interface direction) ACL application, plus integer
// OSPF costs per link direction and waypoint placements per link. Edge
// presence at each HARC level is then a *defined expression*:
//
//   all(e)  = adjacency / redistribution variable (or a constant)
//   dst(e)  = (all(e) & !filter[dst,from] & !filter[dst,to]) | static[...]
//   tc(e)   = dst(e) & !acl[tc, crossing]
//
// which makes the hierarchy constraints (18-19) hold by construction, makes
// every model exactly realizable in configuration, and makes each violated
// soft constraint (one per construct, "keep it as configured") cost one
// construct change — the paper's minimality objective. Each soft also
// carries the configuration lines its change adds (SoftConstraint::lines),
// by which the internal engine breaks ties between equally cheap repairs.
//
// Per-policy hard constraints (Figure 5):
//   PC1  backward-reachability implications + unreachable(SRC)
//   PC2  the same over non-waypoint edges, with optional waypoint placement
//   PC3  K link-disjoint path copies (constraints 7-12), disjointness
//        enforced per physical link across copies
//   PC4  integer edge costs with shortest-path label constraints; the
//        paper's Dijkstra-style pred/scost encoding (16-17) admits spurious
//        models when read as one-directional implications, so we use the
//        tight form: labels are 0 at SRC, relaxation-feasible on every
//        present edge, tight along the desired path, and strictly dominated
//        on every non-path edge into a path vertex — forcing P to be the
//        unique shortest path.

#ifndef CPR_SRC_REPAIR_ENCODER_H_
#define CPR_SRC_REPAIR_ENCODER_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "arc/harc.h"
#include "netbase/result.h"
#include "repair/edits.h"
#include "repair/options.h"
#include "solver/backend.h"
#include "solver/constraint_system.h"
#include "verify/policy.h"

namespace cpr {

struct RepairProblem {
  // Destinations whose dETGs are included (deduplicated, sorted).
  std::vector<SubnetId> dsts;
  // Traffic classes whose tcETGs are included.
  std::vector<std::pair<SubnetId, SubnetId>> tcs;
  // Policies to enforce (their traffic classes must all appear in `tcs`).
  std::vector<Policy> policies;
};

class RepairEncoder {
 public:
  RepairEncoder(const Harc& harc, const RepairProblem& problem,
                const RepairOptions& options);

  // Emits all constraints. Fails when a PC4 policy's path cannot be mapped
  // onto the ETG (unknown device, ambiguous process, missing physical link).
  Status Encode();

  const ConstraintSystem& system() const { return system_; }

  // --- Decoding ---
  // Presence of edge `e` in the tcETG of (src, dst) under the model.
  bool DecodeTc(const MaxSmtResult& model, SubnetId src, SubnetId dst,
                CandidateEdgeId e) const;
  // Appends every construct whose model value differs from the original
  // configurations.
  void CollectEdits(const MaxSmtResult& model, RepairEdits* edits) const;

 private:
  // ExprId-per-edge layers; entries are defined expressions over construct
  // variables (True/False constants where structurally fixed).
  using Layer = std::vector<ExprId>;

  struct AdjacencyKey {
    LinkId link;
    ProcessId low;
    ProcessId high;
    auto operator<=>(const AdjacencyKey&) const = default;
  };
  struct FilterKey {
    SubnetId dst;
    ProcessId process;
    auto operator<=>(const FilterKey&) const = default;
  };
  struct StaticKey {
    SubnetId dst;
    DeviceId device;
    LinkId link;
    auto operator<=>(const StaticKey&) const = default;
  };
  struct LinkAclKey {
    SubnetId src;
    SubnetId dst;
    LinkId link;
    DeviceId egress_device;
    auto operator<=>(const LinkAclKey&) const = default;
  };
  struct EndpointAclKey {
    SubnetId src;
    SubnetId dst;
    bool src_side;
    auto operator<=>(const EndpointAclKey&) const = default;
  };
  struct CostKey {
    LinkId link;
    DeviceId egress_device;
    auto operator<=>(const CostKey&) const = default;
  };

  void BuildAetgLayer();
  Layer BuildDetgLayer(SubnetId dst);
  Layer BuildTcLayer(SubnetId src, SubnetId dst, const Layer& dst_layer);

  void EncodePc1(const Policy& policy);
  void EncodePc2(const Policy& policy);
  void EncodePc3(const Policy& policy);
  Status EncodePc4(const Policy& policy);
  void EncodeIsolation(const Policy& policy);
  void EncodeNoPath(const Layer& tc_layer, SubnetId src, SubnetId dst,
                    bool waypoint_free_only, const std::string& tag);

  // Construct-variable factories; each creates the variable on first use and
  // attaches its "stay as configured" soft constraint (weight 1, plus the
  // lines its change adds).
  ExprId AdjacencyExpr(const CandidateEdge& edge, CandidateEdgeId e);
  ExprId FilterLit(SubnetId dst, ProcessId process);    // true = blocks dst
  ExprId StaticLit(SubnetId dst, DeviceId device, LinkId link);
  ExprId LinkAclLit(SubnetId src, SubnetId dst, LinkId link, DeviceId egress);
  ExprId EndpointAclLit(SubnetId src, SubnetId dst, SubnetId subnet, bool src_side);
  ExprId WaypointExpr(LinkId link);
  IVarId CostVar(const CandidateEdge& edge);

  // Registers the weight-1 "keep this construct as configured" soft
  // constraint with the `lines` its change adds, labelled with the
  // construct's canonical key (edits.h) for provenance, and, under the
  // minimize-devices objective, records the deviation against the devices
  // whose configurations realizing a change would touch.
  void KeepSoft(ExprId expr, bool original, int64_t lines, std::string label,
                std::initializer_list<DeviceId> devices);
  void AddDeviceObjective();

  Result<std::vector<CandidateEdgeId>> MapDevicePath(const Policy& policy) const;

  bool EvalExpr(const MaxSmtResult& model, ExprId e) const;

  const Harc& harc_;
  const EtgUniverse& universe_;
  const RepairProblem& problem_;
  const RepairOptions& options_;

  ConstraintSystem system_;
  Layer all_layer_;
  std::map<SubnetId, Layer> dst_layers_;
  std::map<std::pair<SubnetId, SubnetId>, Layer> tc_layers_;

  // Construct variables, each paired with its original configured value.
  std::map<AdjacencyKey, ExprId> adjacency_exprs_;
  std::map<FilterKey, ExprId> filter_exprs_;
  std::map<StaticKey, ExprId> static_exprs_;
  std::map<LinkAclKey, ExprId> link_acl_exprs_;
  std::map<EndpointAclKey, ExprId> endpoint_acl_exprs_;
  std::map<LinkId, ExprId> waypoint_exprs_;
  std::map<LinkId, BVarId> new_waypoint_vars_;
  std::map<CostKey, IVarId> cost_vars_;
  // kDevices objective: expressions that are true when a device's
  // configuration must change.
  std::map<DeviceId, std::vector<ExprId>> device_deviations_;
};

}  // namespace cpr

#endif  // CPR_SRC_REPAIR_ENCODER_H_
