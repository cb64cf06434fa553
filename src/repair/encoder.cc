#include "repair/encoder.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace cpr {

namespace {

std::string EdgeName(const EtgUniverse& universe, CandidateEdgeId e) {
  const CandidateEdge& edge = universe.edge(e);
  return universe.VertexName(edge.from) + ">" + universe.VertexName(edge.to);
}

// Provenance label for a policy's hard constraints; matches the variable
// name tags the per-policy encoders already use.
std::string PolicyTag(const Policy& policy) {
  std::string sd = std::to_string(policy.src) + "_" + std::to_string(policy.dst);
  switch (policy.pc) {
    case PolicyClass::kAlwaysBlocked:
      return "pc1_" + sd;
    case PolicyClass::kAlwaysWaypoint:
      return "pc2_" + sd;
    case PolicyClass::kReachability:
      return "pc3_" + sd;
    case PolicyClass::kPrimaryPath:
      return "pc4_" + sd;
    case PolicyClass::kIsolation:
      return "pc5_" + sd + "_" + std::to_string(policy.src2) + "_" +
             std::to_string(policy.dst2);
  }
  return "pc?_" + sd;
}

// --- Line counts --------------------------------------------------------------
//
// How many lines changing one construct adds to the input configurations,
// read from the facts the translator reads (translate/translator.cc:
// ApplyFilter, EditAclAt, ApplyStaticRoute and the adjacency editors). Each
// construct is counted alone: two changes that share one new prefix-list or
// ACL header are each charged the header.

// A waypoint placement adds no configuration line. It is charged the dearest
// single addition (a new ACL with its application) so that a tie never
// trades a configuration edit for a new middlebox.
constexpr int64_t kWaypointLines = 4;

int64_t FilterLines(const Network& network, ProcessId process, bool block) {
  if (!block) {
    return 1;  // Drop the deny, or put a permit in front.
  }
  const DistributeList* dist_list = ProcessDistributeList(network, process);
  if (dist_list == nullptr) {
    return 3;  // A new prefix-list (deny, permit-all) and its distribute-list.
  }
  const Config& config =
      network.config_for(network.processes()[static_cast<size_t>(process)].device);
  // An undefined prefix list is written out with its permit-all first.
  return config.FindPrefixList(dist_list->prefix_list) == nullptr ? 2 : 1;
}

// The lines EditAclAt writes on one interface direction.
int64_t AclSideLines(const Config& config, const std::string& interface, bool inbound,
                     const TrafficClass& tc, bool block) {
  const InterfaceConfig* intf = config.FindInterface(interface);
  if (intf == nullptr) {
    return 0;
  }
  const std::optional<std::string>& applied = inbound ? intf->acl_in : intf->acl_out;
  if (!applied.has_value()) {
    // A new ACL: access-group, header, deny, permit-any.
    return block ? 4 : 0;
  }
  const AccessList* acl = config.FindAccessList(*applied);
  if (acl == nullptr) {
    // An undefined ACL permits all; it is written out (header, permit-any)
    // before the edit.
    return block ? 3 : 2;
  }
  return acl->Permits(tc) == block ? 1 : 0;
}

int64_t LinkAclLines(const Network& network, LinkId link, DeviceId egress,
                     const TrafficClass& tc, bool block) {
  auto [egress_intf, ingress_intf] = network.LinkInterfaces(link, egress);
  // Blocks land on the ingress side; unblocks on every side that blocks.
  int64_t lines = AclSideLines(network.config_for(network.LinkPeer(link, egress)),
                               ingress_intf, /*inbound=*/true, tc, block);
  if (!block) {
    lines += AclSideLines(network.config_for(egress), egress_intf, /*inbound=*/false, tc,
                          false);
  }
  return lines;
}

int64_t StaticRouteLines(const Network& network, DeviceId device, bool add) {
  if (!add) {
    return 1;
  }
  // An added route is also redistributed into the first of the device's
  // processes that has a redistribution list.
  for (ProcessId process : network.devices()[static_cast<size_t>(device)].processes) {
    const std::vector<Redistribution>* redists = ProcessRedistributions(network, process);
    if (redists != nullptr) {
      const Redistribution redist_static{RouteSource::kStatic, 0};
      return std::find(redists->begin(), redists->end(), redist_static) == redists->end()
                 ? 2
                 : 1;
    }
  }
  return 1;
}

int64_t AdjacencyLines(const Network& network, LinkId link, ProcessId low, ProcessId high,
                       bool enable) {
  const auto& processes = network.processes();
  const RoutingProcess& first = processes[static_cast<size_t>(low)];
  // `proc`'s interface on the link, with its address when configured.
  auto end_of = [&](const RoutingProcess& proc) {
    const std::string intf_name = network.LinkInterfaces(link, proc.device).first;
    const InterfaceConfig* intf = network.config_for(proc.device).FindInterface(intf_name);
    return std::make_pair(intf_name, intf != nullptr ? intf->address
                                                     : std::optional<InterfaceAddress>());
  };
  int64_t lines = 0;
  switch (first.kind) {
    case RouteSource::kOspf:
      // Enable: unset passive and cover the interface on both ends. Disable:
      // one passive-interface on the low end.
      for (ProcessId p : {low, high}) {
        if (!enable && p == high) {
          break;
        }
        const RoutingProcess& proc = processes[static_cast<size_t>(p)];
        const OspfConfig* ospf = network.config_for(proc.device).FindOspf(proc.protocol_id);
        if (ospf == nullptr) {
          continue;
        }
        auto [intf_name, address] = end_of(proc);
        lines += (ospf->passive_interfaces.count(intf_name) > 0) == enable ? 1 : 0;
        if (enable && address.has_value() &&
            std::none_of(ospf->networks.begin(), ospf->networks.end(),
                         [&](const Ipv4Prefix& n) { return n.Contains(address->ip); })) {
          ++lines;
        }
      }
      return lines;
    case RouteSource::kBgp: {
      // Enable: a neighbor statement on each end that lacks one. Disable:
      // remove the low end's statements naming the peer.
      const RoutingProcess& second = processes[static_cast<size_t>(high)];
      for (auto [self, peer] : {std::pair{&first, &second}, std::pair{&second, &first}}) {
        const Config& config = network.config_for(self->device);
        std::optional<InterfaceAddress> peer_address = end_of(*peer).second;
        if (!config.bgp.has_value() || !peer_address.has_value()) {
          continue;
        }
        const std::vector<BgpNeighbor>& neighbors = config.bgp->neighbors;
        if (!enable) {
          return std::count_if(neighbors.begin(), neighbors.end(), [&](const BgpNeighbor& n) {
            return n.ip == peer_address->ip;
          });
        }
        lines += std::none_of(neighbors.begin(), neighbors.end(), [&](const BgpNeighbor& n) {
          return n.ip == peer_address->ip && n.remote_as == peer->protocol_id;
        });
      }
      return lines;
    }
    default:
      return 1;
  }
}

}  // namespace

RepairEncoder::RepairEncoder(const Harc& harc, const RepairProblem& problem,
                             const RepairOptions& options)
    : harc_(harc), universe_(harc.universe()), problem_(problem), options_(options) {}

Status RepairEncoder::Encode() {
  BuildAetgLayer();
  for (SubnetId dst : problem_.dsts) {
    dst_layers_.emplace(dst, BuildDetgLayer(dst));
  }
  for (const auto& [src, dst] : problem_.tcs) {
    const Layer& dst_layer = dst_layers_.at(dst);
    tc_layers_.emplace(std::make_pair(src, dst), BuildTcLayer(src, dst, dst_layer));
  }

  for (const Policy& policy : problem_.policies) {
    // Every hard constraint emitted while encoding this policy carries its
    // tag, so backend unsat cores map straight back to policies.
    system_.SetHardLabelContext(PolicyTag(policy));
    switch (policy.pc) {
      case PolicyClass::kAlwaysBlocked:
        EncodePc1(policy);
        break;
      case PolicyClass::kAlwaysWaypoint:
        EncodePc2(policy);
        break;
      case PolicyClass::kReachability:
        EncodePc3(policy);
        break;
      case PolicyClass::kPrimaryPath: {
        Status status = EncodePc4(policy);
        if (!status.ok()) {
          return status;
        }
        break;
      }
      case PolicyClass::kIsolation:
        EncodeIsolation(policy);
        break;
    }
  }
  system_.SetHardLabelContext({});
  if (options_.objective == MinimizeObjective::kDevices) {
    AddDeviceObjective();
  }
  return Status::Ok();
}

void RepairEncoder::KeepSoft(ExprId expr, bool original, int64_t lines, std::string label,
                             std::initializer_list<DeviceId> devices) {
  ExprId keep = original ? expr : system_.Not(expr);
  // One construct change per violated construct soft (Table 2's unit of
  // utility); `lines` breaks ties on the internal engine. Under kDevices
  // these become the tiebreak.
  system_.AddSoft(keep, 1, std::move(label), options_.line_tie_break ? lines : 0);
  if (options_.objective == MinimizeObjective::kDevices) {
    for (DeviceId device : devices) {
      device_deviations_[device].push_back(system_.Not(keep));
    }
  }
}

void RepairEncoder::AddDeviceObjective() {
  // Touching a device costs far more than any realistic number of lines, so
  // the solver minimizes devices first, then lines.
  constexpr int64_t kDeviceWeight = 1000;
  for (const auto& [device, deviations] : device_deviations_) {
    std::string label = "devchg:" + std::to_string(device);
    ExprId changed = system_.Var(system_.NewBool("devchg_" + std::to_string(device)));
    for (ExprId deviation : deviations) {
      system_.AddHard(system_.Implies(deviation, changed), label);
    }
    system_.AddSoft(system_.Not(changed), kDeviceWeight, label);
  }
}

// ---------------------------------------------------------------------------
// Construct variables
// ---------------------------------------------------------------------------

ExprId RepairEncoder::AdjacencyExpr(const CandidateEdge& edge, CandidateEdgeId /*e*/) {
  if (!edge.adjacency_realizable) {
    return system_.False();
  }
  AdjacencyKey key{edge.link, std::min(edge.from_process, edge.to_process),
                   std::max(edge.from_process, edge.to_process)};
  auto it = adjacency_exprs_.find(key);
  if (it != adjacency_exprs_.end()) {
    return it->second;
  }
  bool original = AdjacencyConfigured(universe_.network(), edge);
  ExprId expr;
  // Only kAllTcs may change the aETG: per-destination problems hold it fixed
  // so that they commute.
  if (options_.granularity != Granularity::kAllTcs) {
    expr = original ? system_.True() : system_.False();
  } else {
    BVarId var = system_.NewBool("adj_l" + std::to_string(key.link) + "_p" +
                                 std::to_string(key.low) + "_" + std::to_string(key.high));
    expr = system_.Var(var);
    const auto& processes = universe_.network().processes();
    KeepSoft(expr, original,
             AdjacencyLines(universe_.network(), key.link, key.low, key.high, !original),
             AdjacencyConstructKey(key.link, key.low, key.high),
             {processes[static_cast<size_t>(key.low)].device,
              processes[static_cast<size_t>(key.high)].device});
  }
  adjacency_exprs_.emplace(key, expr);
  return expr;
}

ExprId RepairEncoder::FilterLit(SubnetId dst, ProcessId process) {
  FilterKey key{dst, process};
  auto it = filter_exprs_.find(key);
  if (it != filter_exprs_.end()) {
    return it->second;
  }
  const Network& network = universe_.network();
  bool original = ProcessBlocksDestination(
      network, process, network.subnets()[static_cast<size_t>(dst)].prefix);
  BVarId var = system_.NewBool("flt_d" + std::to_string(dst) + "_p" + std::to_string(process));
  ExprId expr = system_.Var(var);
  KeepSoft(expr, original, FilterLines(network, process, !original),
           FilterConstructKey(dst, process),
           {network.processes()[static_cast<size_t>(process)].device});
  filter_exprs_.emplace(key, expr);
  return expr;
}

ExprId RepairEncoder::StaticLit(SubnetId dst, DeviceId device, LinkId link) {
  StaticKey key{dst, device, link};
  auto it = static_exprs_.find(key);
  if (it != static_exprs_.end()) {
    return it->second;
  }
  const Network& network = universe_.network();
  bool original = StaticRouteConfigured(network, device, link,
                                        network.subnets()[static_cast<size_t>(dst)].prefix);
  BVarId var = system_.NewBool("sr_d" + std::to_string(dst) + "_dev" +
                               std::to_string(device) + "_l" + std::to_string(link));
  ExprId expr = system_.Var(var);
  KeepSoft(expr, original, StaticRouteLines(network, device, !original),
           StaticRouteConstructKey(dst, device, link), {device});
  static_exprs_.emplace(key, expr);
  return expr;
}

ExprId RepairEncoder::LinkAclLit(SubnetId src, SubnetId dst, LinkId link,
                                 DeviceId egress) {
  LinkAclKey key{src, dst, link, egress};
  auto it = link_acl_exprs_.find(key);
  if (it != link_acl_exprs_.end()) {
    return it->second;
  }
  const Network& network = universe_.network();
  TrafficClass tc(network.subnets()[static_cast<size_t>(src)].prefix,
                  network.subnets()[static_cast<size_t>(dst)].prefix);
  bool original = LinkAclBlocks(network, link, egress, tc);
  BVarId var = system_.NewBool("acl_t" + std::to_string(src) + "_" + std::to_string(dst) +
                               "_l" + std::to_string(link) + "_e" + std::to_string(egress));
  ExprId expr = system_.Var(var);
  // An ACL change may land on either end of the link (blocks apply on the
  // ingress side; unblocks may touch both).
  KeepSoft(expr, original, LinkAclLines(network, link, egress, tc, !original),
           LinkAclConstructKey(src, dst, link, egress),
           {egress, network.LinkPeer(link, egress)});
  link_acl_exprs_.emplace(key, expr);
  return expr;
}

ExprId RepairEncoder::EndpointAclLit(SubnetId src, SubnetId dst, SubnetId subnet,
                                     bool src_side) {
  EndpointAclKey key{src, dst, src_side};
  auto it = endpoint_acl_exprs_.find(key);
  if (it != endpoint_acl_exprs_.end()) {
    return it->second;
  }
  const Network& network = universe_.network();
  TrafficClass tc(network.subnets()[static_cast<size_t>(src)].prefix,
                  network.subnets()[static_cast<size_t>(dst)].prefix);
  bool original = EndpointAclBlocks(network, subnet, src_side, tc);
  BVarId var = system_.NewBool("eacl_t" + std::to_string(src) + "_" + std::to_string(dst) +
                               (src_side ? "_in" : "_out"));
  ExprId expr = system_.Var(var);
  const Subnet& endpoint = network.subnets()[static_cast<size_t>(subnet)];
  KeepSoft(expr, original,
           AclSideLines(network.config_for(endpoint.device), endpoint.interface,
                        /*inbound=*/src_side, tc, !original),
           EndpointAclConstructKey(src, dst, src_side),
           {endpoint.device});
  endpoint_acl_exprs_.emplace(key, expr);
  return expr;
}

ExprId RepairEncoder::WaypointExpr(LinkId link) {
  auto it = waypoint_exprs_.find(link);
  if (it != waypoint_exprs_.end()) {
    return it->second;
  }
  ExprId expr;
  if (universe_.network().links()[static_cast<size_t>(link)].waypoint) {
    expr = system_.True();
  } else {
    BVarId var = system_.NewBool("wp_link" + std::to_string(link));
    new_waypoint_vars_.emplace(link, var);
    expr = system_.Var(var);
    // Placing a waypoint costs one change (paper: "plus a firewall").
    system_.AddSoft(system_.Not(expr), kWaypointWeight, WaypointConstructKey(link),
                    options_.line_tie_break ? kWaypointLines : 0);
  }
  waypoint_exprs_.emplace(link, expr);
  return expr;
}

IVarId RepairEncoder::CostVar(const CandidateEdge& edge) {
  CostKey key{edge.link, edge.device};
  auto it = cost_vars_.find(key);
  if (it != cost_vars_.end()) {
    return it->second;
  }
  IVarId var = system_.NewInt(
      "cost_l" + std::to_string(edge.link) + "_d" + std::to_string(edge.device), 1,
      kMaxEdgeCost);
  cost_vars_.emplace(key, var);
  // Keeping the configured cost avoids one configuration change (on the
  // egress interface's device).
  int64_t original = static_cast<int64_t>(edge.default_weight);
  KeepSoft(system_.LinearEq({{var, 1}}, -original), true, /*lines=*/1,
           CostConstructKey(edge.link, edge.device), {edge.device});
  return var;
}

// ---------------------------------------------------------------------------
// Layers
// ---------------------------------------------------------------------------

void RepairEncoder::BuildAetgLayer() {
  all_layer_.resize(static_cast<size_t>(universe_.EdgeCount()));
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe_.edge(e);
    ExprId expr = system_.True();
    switch (edge.kind) {
      case EtgEdgeKind::kIntraSelf:
      case EtgEdgeKind::kEndpointSrc:
      case EtgEdgeKind::kEndpointDst:
        expr = system_.True();  // Structurally present at the aETG level.
        break;
      case EtgEdgeKind::kInterDevice:
        expr = AdjacencyExpr(edge, e);
        break;
      case EtgEdgeKind::kRedistribution: {
        bool original = RedistributionConfigured(universe_.network(), edge);
        if (options_.granularity != Granularity::kAllTcs) {
          expr = original ? system_.True() : system_.False();
        } else {
          BVarId var = system_.NewBool("rd_" + EdgeName(universe_, e));
          expr = system_.Var(var);
          KeepSoft(expr, original, /*lines=*/1,
                   RedistributionConstructKey(edge.from_process, edge.to_process),
                   {edge.device});
        }
        break;
      }
    }
    all_layer_[static_cast<size_t>(e)] = expr;
  }
}

RepairEncoder::Layer RepairEncoder::BuildDetgLayer(SubnetId dst) {
  Layer layer(static_cast<size_t>(universe_.EdgeCount()));
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe_.edge(e);
    ExprId all_expr = all_layer_[static_cast<size_t>(e)];
    ExprId expr = system_.False();
    switch (edge.kind) {
      case EtgEdgeKind::kIntraSelf:
        expr = system_.True();
        break;
      case EtgEdgeKind::kEndpointSrc:
        expr = edge.subnet == dst ? system_.False() : system_.True();
        break;
      case EtgEdgeKind::kEndpointDst:
        expr = edge.subnet == dst ? system_.True() : system_.False();
        break;
      case EtgEdgeKind::kRedistribution:
        // A route filter on either process suppresses the exchange for this
        // destination (Algorithm 1 lines 4 and 7).
        expr = system_.And({all_expr,
                            system_.Not(FilterLit(dst, edge.from_process)),
                            system_.Not(FilterLit(dst, edge.to_process))});
        break;
      case EtgEdgeKind::kInterDevice:
        // Adjacency minus route filters, or a static route on the egress
        // device pointing across this link (constraint 19's static-route
        // exemption).
        expr = system_.Or(
            {system_.And({all_expr,
                          system_.Not(FilterLit(dst, edge.from_process)),
                          system_.Not(FilterLit(dst, edge.to_process))}),
             StaticLit(dst, edge.device, edge.link)});
        break;
    }
    layer[static_cast<size_t>(e)] = expr;
  }
  return layer;
}

RepairEncoder::Layer RepairEncoder::BuildTcLayer(SubnetId src, SubnetId dst,
                                                 const Layer& dst_layer) {
  Layer layer(static_cast<size_t>(universe_.EdgeCount()));
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe_.edge(e);
    ExprId dst_expr = dst_layer[static_cast<size_t>(e)];
    ExprId expr = system_.False();
    switch (edge.kind) {
      case EtgEdgeKind::kIntraSelf:
      case EtgEdgeKind::kRedistribution:
        // ACLs cannot sever intra-device route exchange: locked to the dETG
        // (constraint 18 as an equality).
        expr = dst_expr;
        break;
      case EtgEdgeKind::kEndpointSrc:
        if (edge.subnet != src || dst_expr == system_.False()) {
          expr = system_.False();
        } else {
          expr = system_.And(
              {dst_expr, system_.Not(EndpointAclLit(src, dst, src, /*src_side=*/true))});
        }
        break;
      case EtgEdgeKind::kEndpointDst:
        if (edge.subnet != dst || dst_expr == system_.False()) {
          expr = system_.False();
        } else {
          expr = system_.And(
              {dst_expr, system_.Not(EndpointAclLit(src, dst, dst, /*src_side=*/false))});
        }
        break;
      case EtgEdgeKind::kInterDevice:
        if (dst_expr == system_.False()) {
          expr = system_.False();
        } else {
          expr = system_.And(
              {dst_expr, system_.Not(LinkAclLit(src, dst, edge.link, edge.device))});
        }
        break;
    }
    layer[static_cast<size_t>(e)] = expr;
  }
  return layer;
}

// ---------------------------------------------------------------------------
// Policy constraints (Figure 5)
// ---------------------------------------------------------------------------

void RepairEncoder::EncodeNoPath(const Layer& tc_layer, SubnetId src, SubnetId dst,
                                 bool waypoint_free_only, const std::string& tag) {
  const VertexId src_vertex = harc_.SrcVertex(src);
  const VertexId dst_vertex = harc_.DstVertex(dst);
  // r[v]: v can reach DST (through waypoint-free edges if requested).
  std::vector<ExprId> reach(static_cast<size_t>(universe_.VertexCount()));
  for (VertexId v = 0; v < universe_.VertexCount(); ++v) {
    reach[static_cast<size_t>(v)] =
        system_.Var(system_.NewBool(tag + "_r" + std::to_string(v)));
  }
  system_.AddHard(reach[static_cast<size_t>(dst_vertex)]);
  system_.AddHard(system_.Not(reach[static_cast<size_t>(src_vertex)]));
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    ExprId tc_expr = tc_layer[static_cast<size_t>(e)];
    if (tc_expr == system_.False()) {
      continue;
    }
    const CandidateEdge& edge = universe_.edge(e);
    std::vector<ExprId> antecedent = {tc_expr, reach[static_cast<size_t>(edge.to)]};
    if (waypoint_free_only && edge.kind == EtgEdgeKind::kInterDevice) {
      antecedent.push_back(system_.Not(WaypointExpr(edge.link)));
    }
    system_.AddHard(system_.Implies(system_.And(std::move(antecedent)),
                                    reach[static_cast<size_t>(edge.from)]));
  }
}

void RepairEncoder::EncodePc1(const Policy& policy) {
  const Layer& layer = tc_layers_.at({policy.src, policy.dst});
  EncodeNoPath(layer, policy.src, policy.dst, /*waypoint_free_only=*/false,
               "pc1_" + std::to_string(policy.src) + "_" + std::to_string(policy.dst));
}

void RepairEncoder::EncodePc2(const Policy& policy) {
  const Layer& layer = tc_layers_.at({policy.src, policy.dst});
  EncodeNoPath(layer, policy.src, policy.dst, /*waypoint_free_only=*/true,
               "pc2_" + std::to_string(policy.src) + "_" + std::to_string(policy.dst));
}

void RepairEncoder::EncodePc3(const Policy& policy) {
  const Layer& layer = tc_layers_.at({policy.src, policy.dst});
  const VertexId src_vertex = harc_.SrcVertex(policy.src);
  const VertexId dst_vertex = harc_.DstVertex(policy.dst);
  const int k_paths = policy.k;
  std::string tag =
      "pc3_" + std::to_string(policy.src) + "_" + std::to_string(policy.dst) + "_";

  // Candidate edges that may appear in this tcETG.
  std::vector<CandidateEdgeId> graph_edges;
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    if (layer[static_cast<size_t>(e)] != system_.False()) {
      graph_edges.push_back(e);
    }
  }

  // edgek[k][e]: edge e lies on link-disjoint path k (constraints 7-12).
  std::vector<std::map<CandidateEdgeId, ExprId>> copies(static_cast<size_t>(k_paths));
  for (int k = 0; k < k_paths; ++k) {
    for (CandidateEdgeId e : graph_edges) {
      ExprId var = system_.Var(
          system_.NewBool(tag + "k" + std::to_string(k) + "_" + EdgeName(universe_, e)));
      copies[static_cast<size_t>(k)][e] = var;
      // Constraint 7: a path edge must exist in the tcETG.
      system_.AddHard(system_.Implies(var, layer[static_cast<size_t>(e)]));
    }
  }

  // Per-vertex incidence lists.
  std::vector<std::vector<CandidateEdgeId>> out_of(
      static_cast<size_t>(universe_.VertexCount()));
  std::vector<std::vector<CandidateEdgeId>> into(
      static_cast<size_t>(universe_.VertexCount()));
  for (CandidateEdgeId e : graph_edges) {
    out_of[static_cast<size_t>(universe_.edge(e).from)].push_back(e);
    into[static_cast<size_t>(universe_.edge(e).to)].push_back(e);
  }

  for (int k = 0; k < k_paths; ++k) {
    auto& copy = copies[static_cast<size_t>(k)];
    // Constraint 8: the path leaves SRC; constraint 9: it enters DST.
    std::vector<ExprId> src_out;
    for (CandidateEdgeId e : out_of[static_cast<size_t>(src_vertex)]) {
      src_out.push_back(copy.at(e));
    }
    system_.AddHard(system_.Or(src_out));
    std::vector<ExprId> dst_in;
    for (CandidateEdgeId e : into[static_cast<size_t>(dst_vertex)]) {
      dst_in.push_back(copy.at(e));
    }
    system_.AddHard(system_.Or(dst_in));

    // Constraint 10: every path edge not at SRC has a predecessor; 11: every
    // path edge not at DST has exactly one successor. The "exactly one" is
    // realized as a global at-most-one over each vertex's out-edges, which
    // also rules out branches feeding DST from a disconnected cycle.
    for (CandidateEdgeId e : graph_edges) {
      const CandidateEdge& edge = universe_.edge(e);
      if (edge.from != src_vertex) {
        std::vector<ExprId> preds;
        for (CandidateEdgeId p : into[static_cast<size_t>(edge.from)]) {
          preds.push_back(copy.at(p));
        }
        system_.AddHard(system_.Implies(copy.at(e), system_.Or(std::move(preds))));
      }
      if (edge.to != dst_vertex) {
        std::vector<ExprId> succs;
        for (CandidateEdgeId s : out_of[static_cast<size_t>(edge.to)]) {
          succs.push_back(copy.at(s));
        }
        system_.AddHard(system_.Implies(copy.at(e), system_.Or(std::move(succs))));
      }
    }
    for (VertexId v = 0; v < universe_.VertexCount(); ++v) {
      const auto& outs = out_of[static_cast<size_t>(v)];
      for (size_t i = 0; i < outs.size(); ++i) {
        for (size_t j = i + 1; j < outs.size(); ++j) {
          system_.AddHard(
              system_.Or({system_.Not(copy.at(outs[i])), system_.Not(copy.at(outs[j]))}));
        }
      }
    }
  }

  // Constraint 12 (strengthened): each physical link carries at most one
  // path, over both directions and all process pairs — a link failure kills
  // every edge the link backs.
  std::map<LinkId, std::vector<ExprId>> link_uses;
  for (CandidateEdgeId e : graph_edges) {
    const CandidateEdge& edge = universe_.edge(e);
    if (edge.kind != EtgEdgeKind::kInterDevice) {
      continue;
    }
    for (int k = 0; k < k_paths; ++k) {
      link_uses[edge.link].push_back(copies[static_cast<size_t>(k)].at(e));
    }
  }
  for (const auto& [link, uses] : link_uses) {
    for (size_t i = 0; i < uses.size(); ++i) {
      for (size_t j = i + 1; j < uses.size(); ++j) {
        system_.AddHard(system_.Or({system_.Not(uses[i]), system_.Not(uses[j])}));
      }
    }
  }
}

Result<std::vector<CandidateEdgeId>> RepairEncoder::MapDevicePath(
    const Policy& policy) const {
  const Network& network = universe_.network();
  const std::vector<DeviceId>& devices = policy.primary_path;
  if (devices.empty()) {
    return Error("PC4 policy has an empty path");
  }
  const Subnet& src_subnet = network.subnets()[static_cast<size_t>(policy.src)];
  const Subnet& dst_subnet = network.subnets()[static_cast<size_t>(policy.dst)];
  if (src_subnet.device != devices.front() || dst_subnet.device != devices.back()) {
    return Error("PC4 path endpoints do not match the traffic class attachment points");
  }
  auto sole_process = [&network](DeviceId device) -> Result<ProcessId> {
    const Device& dev = network.devices()[static_cast<size_t>(device)];
    if (dev.processes.size() != 1) {
      return Error("PC4 path device " + dev.name +
                   " must run exactly one routing process for path mapping");
    }
    return dev.processes[0];
  };

  std::vector<CandidateEdgeId> chain;
  auto push_edge = [this, &chain](VertexId from, VertexId to) -> Status {
    std::optional<CandidateEdgeId> e = universe_.FindEdge(from, to);
    if (!e.has_value()) {
      return Error("PC4 path uses a nonexistent candidate edge " +
                   universe_.VertexName(from) + " -> " + universe_.VertexName(to));
    }
    chain.push_back(*e);
    return Status::Ok();
  };

  Result<ProcessId> first = sole_process(devices.front());
  if (!first.ok()) {
    return first.error();
  }
  Status status = push_edge(harc_.SrcVertex(policy.src), universe_.ProcessOut(*first));
  if (!status.ok()) {
    return status.error();
  }
  ProcessId prev = *first;
  for (size_t i = 1; i < devices.size(); ++i) {
    Result<ProcessId> next = sole_process(devices[i]);
    if (!next.ok()) {
      return next.error();
    }
    status = push_edge(universe_.ProcessOut(prev), universe_.ProcessIn(*next));
    if (!status.ok()) {
      return status.error();
    }
    if (i + 1 < devices.size()) {
      status = push_edge(universe_.ProcessIn(*next), universe_.ProcessOut(*next));
      if (!status.ok()) {
        return status.error();
      }
    }
    prev = *next;
  }
  status = push_edge(universe_.ProcessIn(prev), harc_.DstVertex(policy.dst));
  if (!status.ok()) {
    return status.error();
  }
  return chain;
}

Status RepairEncoder::EncodePc4(const Policy& policy) {
  Result<std::vector<CandidateEdgeId>> path = MapDevicePath(policy);
  if (!path.ok()) {
    return path.error();
  }
  const Layer& layer = tc_layers_.at({policy.src, policy.dst});
  const VertexId src_vertex = harc_.SrcVertex(policy.src);
  std::string tag =
      "pc4_" + std::to_string(policy.src) + "_" + std::to_string(policy.dst) + "_";

  // Shortest-path labels per vertex (constraints 13-16, tight form; see the
  // header comment for why the paper's pred/scost implications are
  // strengthened).
  const int64_t scost_max =
      static_cast<int64_t>(kMaxEdgeCost) * universe_.VertexCount();
  std::vector<IVarId> scost(static_cast<size_t>(universe_.VertexCount()));
  for (VertexId v = 0; v < universe_.VertexCount(); ++v) {
    scost[static_cast<size_t>(v)] =
        system_.NewInt(tag + "s" + std::to_string(v), 0, scost_max);
  }
  system_.AddHard(system_.LinearEq({{scost[static_cast<size_t>(src_vertex)], 1}}, 0));

  // Builds `scost[v2] - scost[v1] - cost(e) + extra <= / == 0`.
  auto relax_terms = [this, &scost](CandidateEdgeId e, int64_t extra,
                                    int64_t* constant) -> std::vector<LinearTerm> {
    const CandidateEdge& edge = universe_.edge(e);
    std::vector<LinearTerm> terms = {{scost[static_cast<size_t>(edge.to)], 1},
                                     {scost[static_cast<size_t>(edge.from)], -1}};
    *constant = extra;
    if (edge.kind == EtgEdgeKind::kInterDevice) {
      terms.push_back({CostVar(edge), -1});
    } else {
      *constant -= static_cast<int64_t>(edge.default_weight);
    }
    return terms;
  };

  // Feasibility: every present edge relaxes its endpoint labels.
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    ExprId tc_expr = layer[static_cast<size_t>(e)];
    if (tc_expr == system_.False()) {
      continue;
    }
    int64_t constant = 0;
    std::vector<LinearTerm> terms = relax_terms(e, 0, &constant);
    system_.AddHard(system_.Implies(tc_expr, system_.LinearLe(std::move(terms), constant)));
  }

  // The desired path exists and is tight.
  std::vector<bool> on_path_edge(static_cast<size_t>(universe_.EdgeCount()), false);
  std::vector<bool> on_path_vertex(static_cast<size_t>(universe_.VertexCount()), false);
  for (CandidateEdgeId e : *path) {
    on_path_edge[static_cast<size_t>(e)] = true;
    on_path_vertex[static_cast<size_t>(universe_.edge(e).to)] = true;
    system_.AddHard(layer[static_cast<size_t>(e)]);
    int64_t constant = 0;
    std::vector<LinearTerm> terms = relax_terms(e, 0, &constant);
    system_.AddHard(system_.LinearEq(std::move(terms), constant));
  }

  // Uniqueness: any non-path edge into a path vertex is strictly worse, so P
  // is the unique shortest path (the policy's "uses path P").
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    if (on_path_edge[static_cast<size_t>(e)]) {
      continue;
    }
    const CandidateEdge& edge = universe_.edge(e);
    if (!on_path_vertex[static_cast<size_t>(edge.to)]) {
      continue;
    }
    ExprId tc_expr = layer[static_cast<size_t>(e)];
    if (tc_expr == system_.False()) {
      continue;
    }
    // scost[to] + 1 <= scost[from] + cost(e)
    int64_t constant = 0;
    std::vector<LinearTerm> terms = relax_terms(e, 1, &constant);
    system_.AddHard(system_.Implies(tc_expr, system_.LinearLe(std::move(terms), constant)));
  }
  return Status::Ok();
}

void RepairEncoder::EncodeIsolation(const Policy& policy) {
  // PC5 (paper §5.1's sketched extension): the two traffic classes must not
  // share any physical link, in either direction — a link failure or
  // congestion event on one class can then never touch the other.
  const Layer& layer_a = tc_layers_.at({policy.src, policy.dst});
  const Layer& layer_b = tc_layers_.at({policy.src2, policy.dst2});
  std::map<LinkId, std::vector<ExprId>> a_on_link;
  std::map<LinkId, std::vector<ExprId>> b_on_link;
  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe_.edge(e);
    if (edge.kind != EtgEdgeKind::kInterDevice) {
      continue;
    }
    if (layer_a[static_cast<size_t>(e)] != system_.False()) {
      a_on_link[edge.link].push_back(layer_a[static_cast<size_t>(e)]);
    }
    if (layer_b[static_cast<size_t>(e)] != system_.False()) {
      b_on_link[edge.link].push_back(layer_b[static_cast<size_t>(e)]);
    }
  }
  for (const auto& [link, a_exprs] : a_on_link) {
    auto it = b_on_link.find(link);
    if (it == b_on_link.end()) {
      continue;
    }
    for (ExprId a : a_exprs) {
      for (ExprId b : it->second) {
        system_.AddHard(system_.Or({system_.Not(a), system_.Not(b)}));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

bool RepairEncoder::EvalExpr(const MaxSmtResult& model, ExprId e) const {
  // The recursion lives on ConstraintSystem so backends evaluate models the
  // same way the decoder does (one semantics for "violated").
  return system_.EvalOnModel(e, model.bool_values, model.int_values);
}

bool RepairEncoder::DecodeTc(const MaxSmtResult& model, SubnetId src, SubnetId dst,
                             CandidateEdgeId e) const {
  return EvalExpr(model, tc_layers_.at({src, dst})[static_cast<size_t>(e)]);
}

void RepairEncoder::CollectEdits(const MaxSmtResult& model, RepairEdits* edits) const {
  const Network& network = universe_.network();
  auto is_constant = [this](ExprId e) {
    return e == system_.True() || e == system_.False();
  };

  for (const auto& [key, expr] : adjacency_exprs_) {
    if (is_constant(expr)) {
      continue;
    }
    // Reconstruct the original value from configuration.
    std::optional<CandidateEdgeId> sample;
    for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
      const CandidateEdge& edge = universe_.edge(e);
      if (edge.kind == EtgEdgeKind::kInterDevice && edge.link == key.link &&
          std::min(edge.from_process, edge.to_process) == key.low &&
          std::max(edge.from_process, edge.to_process) == key.high) {
        sample = e;
        break;
      }
    }
    bool original = sample.has_value() &&
                    AdjacencyConfigured(network, universe_.edge(*sample));
    bool now = EvalExpr(model, expr);
    if (now != original) {
      edits->adjacencies.push_back(AdjacencyEdit{key.link, key.low, key.high, now});
    }
  }

  for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe_.edge(e);
    if (edge.kind != EtgEdgeKind::kRedistribution) {
      continue;
    }
    ExprId expr = all_layer_[static_cast<size_t>(e)];
    if (is_constant(expr)) {
      continue;
    }
    bool original = RedistributionConfigured(network, edge);
    bool now = EvalExpr(model, expr);
    if (now != original) {
      edits->redistributions.push_back(
          RedistributionEdit{edge.from_process, edge.to_process, now});
    }
  }

  for (const auto& [key, expr] : filter_exprs_) {
    bool original = ProcessBlocksDestination(
        network, key.process, network.subnets()[static_cast<size_t>(key.dst)].prefix);
    bool now = EvalExpr(model, expr);
    if (now != original) {
      edits->filters.push_back(FilterEdit{key.dst, key.process, now});
    }
  }

  bool has_pc4 = std::any_of(problem_.policies.begin(), problem_.policies.end(),
                             [](const Policy& p) {
                               return p.pc == PolicyClass::kPrimaryPath;
                             });
  for (const auto& [key, expr] : static_exprs_) {
    bool original = StaticRouteConfigured(
        network, key.device, key.link,
        network.subnets()[static_cast<size_t>(key.dst)].prefix);
    bool now = EvalExpr(model, expr);
    if (now != original) {
      edits->static_routes.push_back(
          StaticRouteEdit{key.dst, key.device, key.link, now, has_pc4 ? 200 : 1});
    }
  }

  for (const auto& [key, expr] : link_acl_exprs_) {
    TrafficClass tc(network.subnets()[static_cast<size_t>(key.src)].prefix,
                    network.subnets()[static_cast<size_t>(key.dst)].prefix);
    bool original = LinkAclBlocks(network, key.link, key.egress_device, tc);
    bool now = EvalExpr(model, expr);
    if (now != original) {
      edits->acls.push_back(AclEdit{key.src, key.dst, AclEdit::Where::kLink, key.link,
                                    key.egress_device, -1, now});
    }
  }

  for (const auto& [key, expr] : endpoint_acl_exprs_) {
    TrafficClass tc(network.subnets()[static_cast<size_t>(key.src)].prefix,
                    network.subnets()[static_cast<size_t>(key.dst)].prefix);
    SubnetId subnet = key.src_side ? key.src : key.dst;
    bool original = EndpointAclBlocks(network, subnet, key.src_side, tc);
    bool now = EvalExpr(model, expr);
    if (now != original) {
      edits->acls.push_back(AclEdit{
          key.src, key.dst,
          key.src_side ? AclEdit::Where::kSubnetSrcSide : AclEdit::Where::kSubnetDstSide,
          -1, -1, subnet, now});
    }
  }

  for (const auto& [key, var] : cost_vars_) {
    int now = static_cast<int>(model.int_values[static_cast<size_t>(var)]);
    // Original cost from any edge sharing this (link, direction).
    for (CandidateEdgeId e = 0; e < universe_.EdgeCount(); ++e) {
      const CandidateEdge& edge = universe_.edge(e);
      if (edge.kind == EtgEdgeKind::kInterDevice && edge.link == key.link &&
          edge.device == key.egress_device) {
        int original = static_cast<int>(edge.default_weight);
        if (now != original) {
          edits->costs.push_back(CostEdit{key.link, key.egress_device, original, now});
        }
        break;
      }
    }
  }

  for (const auto& [link, var] : new_waypoint_vars_) {
    if (model.bool_values[static_cast<size_t>(var)]) {
      edits->waypoints.push_back(WaypointEdit{link});
    }
  }
}

}  // namespace cpr
