#include "arc/harc.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/span.h"

namespace cpr {

const DistributeList* ProcessDistributeList(const Network& network, ProcessId process) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  const Config& config = network.config_for(proc.device);
  switch (proc.kind) {
    case RouteSource::kOspf: {
      const OspfConfig* ospf = config.FindOspf(proc.protocol_id);
      return ospf != nullptr && ospf->distribute_list.has_value() ? &*ospf->distribute_list
                                                                  : nullptr;
    }
    case RouteSource::kBgp:
      return config.bgp.has_value() && config.bgp->distribute_list.has_value()
                 ? &*config.bgp->distribute_list
                 : nullptr;
    case RouteSource::kRip:
      return config.rip.has_value() && config.rip->distribute_list.has_value()
                 ? &*config.rip->distribute_list
                 : nullptr;
    case RouteSource::kConnected:
    case RouteSource::kStatic:
      return nullptr;
  }
  return nullptr;
}

namespace {

// Link interface names oriented so `.first` is on `egress_device`.
std::pair<std::string, std::string> OrientLink(const TopoLink& link, DeviceId egress_device) {
  if (link.device_a == egress_device) {
    return {link.interface_a, link.interface_b};
  }
  assert(link.device_b == egress_device);
  return {link.interface_b, link.interface_a};
}

bool OspfInterfacePassive(const Network& network, ProcessId process,
                          const std::string& interface) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  const Config& config = network.config_for(proc.device);
  const OspfConfig* ospf = config.FindOspf(proc.protocol_id);
  return ospf != nullptr && ospf->passive_interfaces.count(interface) > 0;
}

bool BgpSessionConfigured(const Network& network, ProcessId from, DeviceId to_device,
                          const std::string& to_interface, int to_asn) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(from)];
  const Config& config = network.config_for(proc.device);
  if (!config.bgp.has_value()) {
    return false;
  }
  const InterfaceConfig* peer_intf = network.config_for(to_device).FindInterface(to_interface);
  if (peer_intf == nullptr || !peer_intf->address.has_value()) {
    return false;
  }
  for (const BgpNeighbor& neighbor : config.bgp->neighbors) {
    if (neighbor.ip == peer_intf->address->ip && neighbor.remote_as == to_asn) {
      return true;
    }
  }
  return false;
}

// Whether an ACL named `acl_name` (applied on some interface) blocks `tc`.
bool AclBlocks(const Config& config, const std::optional<std::string>& acl_name,
               const TrafficClass& tc) {
  if (!acl_name.has_value()) {
    return false;
  }
  const AccessList* acl = config.FindAccessList(*acl_name);
  if (acl == nullptr) {
    return false;  // Referencing an undefined ACL permits all traffic (IOS).
  }
  return !acl->Permits(tc);
}

}  // namespace

namespace {

// One destination's dETG: the aETG minus blocked processes and
// destination-scoped endpoint trimming, plus static-route edges (Algorithm 1
// lines 4-12, Figure 4).
Etg BuildDetgLayer(const Network& network, const EtgUniverse& universe, const Etg& aetg,
                   SubnetId d) {
  const Subnet& dst = network.subnets()[static_cast<size_t>(d)];
  Etg detg = aetg;

  // Processes whose route filter blocks this destination lose all route
  // exchange (Algorithm 1 lines 4-5, 7, 12).
  std::vector<bool> blocked(network.processes().size(), false);
  for (size_t p = 0; p < network.processes().size(); ++p) {
    blocked[p] = ProcessBlocksDestination(network, static_cast<ProcessId>(p), dst.prefix);
  }
  for (int e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    if (edge.kind == EtgEdgeKind::kInterDevice ||
        edge.kind == EtgEdgeKind::kRedistribution) {
      if (blocked[static_cast<size_t>(edge.from_process)] ||
          blocked[static_cast<size_t>(edge.to_process)]) {
        detg.SetPresent(e, false);
      }
    }
    // Destination-scoped endpoint trimming: a dETG routes *to* d from any
    // source, so only d's delivery edges and other subnets' source edges
    // remain.
    if (edge.kind == EtgEdgeKind::kEndpointDst && edge.subnet != d) {
      detg.SetPresent(e, false);
    }
    if (edge.kind == EtgEdgeKind::kEndpointSrc && edge.subnet == d) {
      detg.SetPresent(e, false);
    }
  }

  // Static routes covering this destination add inter-device edges from
  // every process on the configuring device toward the next hop (Figure 4).
  // Their weight is the route's administrative distance so a backup static
  // route (AD > 110) loses to protocol-computed paths in shortest-path
  // queries, as in the paper's Figure 2d repair.
  for (size_t dev = 0; dev < network.devices().size(); ++dev) {
    const Config& config = network.configs()[dev];
    for (const StaticRouteConfig& route : config.static_routes) {
      if (!route.prefix.Contains(dst.prefix)) {
        continue;
      }
      auto next_hop = network.ResolveNextHop(static_cast<DeviceId>(dev), route.next_hop);
      if (!next_hop.has_value()) {
        continue;  // Unresolvable next hop: route is inert.
      }
      for (int e = 0; e < universe.EdgeCount(); ++e) {
        const CandidateEdge& edge = universe.edge(e);
        if (edge.kind == EtgEdgeKind::kInterDevice && edge.link == next_hop->link &&
            edge.device == static_cast<DeviceId>(dev)) {
          if (!detg.IsPresent(e)) {
            detg.SetPresent(e, true);
            detg.SetWeight(e, route.distance);
          }
        }
      }
    }
  }

  return detg;
}

// Precomputed traffic-class scaffolding for Build()'s S^2 tcETG loop.
//
// A tcETG is its dETG minus the edges the traffic class loses, but only two
// kinds of edges actually depend on the (src, dst) pair: endpoint-source
// edges (trimmed to the source subnet) and edges whose interfaces carry a
// *defined* ACL binding (an undefined ACL permits all traffic, so it can
// never clear an edge). Resolving interface and ACL names once per network
// turns the per-pair work from O(E) string lookups into a bitmap copy plus a
// handful of Permits() calls. arc_test re-derives every pair naively through
// LinkAclBlocks and EndpointAclBlocks and holds the two equal edge-for-edge.
struct TcetgScaffold {
  // kEndpointSrc candidate edges grouped by their subnet.
  std::vector<std::vector<CandidateEdgeId>> src_edges_by_subnet;
  // Edges whose presence depends on the traffic class through a resolved
  // ACL. An inter-device edge with ACLs on both sides contributes two
  // entries.
  struct AclCheck {
    CandidateEdgeId edge;
    const AccessList* acl;  // Never null.
  };
  std::vector<AclCheck> checks;
};

TcetgScaffold BuildTcetgScaffold(const Network& network, const EtgUniverse& universe) {
  TcetgScaffold scaffold;
  scaffold.src_edges_by_subnet.assign(network.subnets().size(), {});
  auto resolve = [](const Config& config, const InterfaceConfig* intf,
                    bool inbound) -> const AccessList* {
    if (intf == nullptr) {
      return nullptr;
    }
    const std::optional<std::string>& name = inbound ? intf->acl_in : intf->acl_out;
    return name.has_value() ? config.FindAccessList(*name) : nullptr;
  };
  for (int e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    switch (edge.kind) {
      case EtgEdgeKind::kInterDevice: {
        const TopoLink& link = network.links()[static_cast<size_t>(edge.link)];
        auto [egress_intf, ingress_intf] = OrientLink(link, edge.device);
        DeviceId ingress_device =
            link.device_a == edge.device ? link.device_b : link.device_a;
        const Config& egress_config = network.config_for(edge.device);
        const Config& ingress_config = network.config_for(ingress_device);
        const AccessList* out_acl =
            resolve(egress_config, egress_config.FindInterface(egress_intf), false);
        const AccessList* in_acl =
            resolve(ingress_config, ingress_config.FindInterface(ingress_intf), true);
        if (out_acl != nullptr) {
          scaffold.checks.push_back({e, out_acl});
        }
        if (in_acl != nullptr) {
          scaffold.checks.push_back({e, in_acl});
        }
        break;
      }
      case EtgEdgeKind::kEndpointSrc: {
        scaffold.src_edges_by_subnet[static_cast<size_t>(edge.subnet)].push_back(e);
        const Subnet& subnet = network.subnets()[static_cast<size_t>(edge.subnet)];
        const Config& config = network.config_for(subnet.device);
        const AccessList* acl =
            resolve(config, config.FindInterface(subnet.interface), true);
        if (acl != nullptr) {
          scaffold.checks.push_back({e, acl});
        }
        break;
      }
      case EtgEdgeKind::kEndpointDst: {
        const Subnet& subnet = network.subnets()[static_cast<size_t>(edge.subnet)];
        const Config& config = network.config_for(subnet.device);
        const AccessList* acl =
            resolve(config, config.FindInterface(subnet.interface), false);
        if (acl != nullptr) {
          scaffold.checks.push_back({e, acl});
        }
        break;
      }
      case EtgEdgeKind::kIntraSelf:
      case EtgEdgeKind::kRedistribution:
        break;
    }
  }
  return scaffold;
}

}  // namespace

bool ProcessBlocksDestination(const Network& network, ProcessId process,
                              const Ipv4Prefix& destination) {
  const DistributeList* dist_list = ProcessDistributeList(network, process);
  if (dist_list == nullptr) {
    return false;
  }
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  const PrefixList* prefix_list =
      network.config_for(proc.device).FindPrefixList(dist_list->prefix_list);
  if (prefix_list == nullptr) {
    return false;  // Undefined prefix list: no filtering.
  }
  return !prefix_list->Permits(destination);
}

bool AdjacencyConfigured(const Network& network, const CandidateEdge& edge) {
  assert(edge.kind == EtgEdgeKind::kInterDevice);
  if (!edge.adjacency_realizable) {
    return false;
  }
  const RoutingProcess& from_proc =
      network.processes()[static_cast<size_t>(edge.from_process)];
  const RoutingProcess& to_proc = network.processes()[static_cast<size_t>(edge.to_process)];
  const TopoLink& link = network.links()[static_cast<size_t>(edge.link)];
  auto [egress_intf, ingress_intf] = OrientLink(link, edge.device);
  switch (from_proc.kind) {
    case RouteSource::kOspf:
      return network.ProcessUsesInterface(edge.from_process, egress_intf) &&
             network.ProcessUsesInterface(edge.to_process, ingress_intf) &&
             !OspfInterfacePassive(network, edge.from_process, egress_intf) &&
             !OspfInterfacePassive(network, edge.to_process, ingress_intf);
    case RouteSource::kRip:
      return network.ProcessUsesInterface(edge.from_process, egress_intf) &&
             network.ProcessUsesInterface(edge.to_process, ingress_intf);
    case RouteSource::kBgp: {
      DeviceId to_device = to_proc.device;
      DeviceId from_device = from_proc.device;
      return BgpSessionConfigured(network, edge.from_process, to_device, ingress_intf,
                                  to_proc.protocol_id) &&
             BgpSessionConfigured(network, edge.to_process, from_device, egress_intf,
                                  from_proc.protocol_id);
    }
    case RouteSource::kConnected:
    case RouteSource::kStatic:
      return false;
  }
  return false;
}

const std::vector<Redistribution>* ProcessRedistributions(const Network& network,
                                                          ProcessId process) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  const Config& config = network.config_for(proc.device);
  switch (proc.kind) {
    case RouteSource::kOspf: {
      const OspfConfig* ospf = config.FindOspf(proc.protocol_id);
      return ospf != nullptr ? &ospf->redistributes : nullptr;
    }
    case RouteSource::kBgp:
      return config.bgp.has_value() ? &config.bgp->redistributes : nullptr;
    case RouteSource::kRip:
      return config.rip.has_value() ? &config.rip->redistributes : nullptr;
    case RouteSource::kConnected:
    case RouteSource::kStatic:
      return nullptr;
  }
  return nullptr;
}

bool RedistributionConfigured(const Network& network, const CandidateEdge& edge) {
  assert(edge.kind == EtgEdgeKind::kRedistribution);
  // `from_process` (whose I vertex the edge leaves) is the process that
  // advertises the routes, i.e. the one configured with `redistribute`.
  const RoutingProcess& source = network.processes()[static_cast<size_t>(edge.to_process)];
  const std::vector<Redistribution>* redists =
      ProcessRedistributions(network, edge.from_process);
  if (redists == nullptr) {
    return false;
  }
  for (const Redistribution& redist : *redists) {
    if (redist.from == source.kind &&
        (redist.from == RouteSource::kRip || redist.process_id == source.protocol_id)) {
      return true;
    }
  }
  return false;
}

bool LinkAclBlocks(const Network& network, LinkId link_id, DeviceId egress_device,
                   const TrafficClass& tc) {
  const TopoLink& link = network.links()[static_cast<size_t>(link_id)];
  auto [egress_intf, ingress_intf] = OrientLink(link, egress_device);
  DeviceId ingress_device = link.device_a == egress_device ? link.device_b : link.device_a;
  const Config& egress_config = network.config_for(egress_device);
  const Config& ingress_config = network.config_for(ingress_device);
  const InterfaceConfig* out_intf = egress_config.FindInterface(egress_intf);
  const InterfaceConfig* in_intf = ingress_config.FindInterface(ingress_intf);
  return (out_intf != nullptr && AclBlocks(egress_config, out_intf->acl_out, tc)) ||
         (in_intf != nullptr && AclBlocks(ingress_config, in_intf->acl_in, tc));
}

bool EndpointAclBlocks(const Network& network, SubnetId subnet_id, bool src_side,
                       const TrafficClass& tc) {
  const Subnet& subnet = network.subnets()[static_cast<size_t>(subnet_id)];
  const Config& config = network.config_for(subnet.device);
  const InterfaceConfig* intf = config.FindInterface(subnet.interface);
  if (intf == nullptr) {
    return false;
  }
  return AclBlocks(config, src_side ? intf->acl_in : intf->acl_out, tc);
}

bool StaticRouteConfigured(const Network& network, DeviceId device, LinkId link,
                           const Ipv4Prefix& dst) {
  const Config& config = network.config_for(device);
  for (const StaticRouteConfig& route : config.static_routes) {
    if (!route.prefix.Contains(dst)) {
      continue;
    }
    auto next_hop = network.ResolveNextHop(device, route.next_hop);
    if (next_hop.has_value() && next_hop->link == link) {
      return true;
    }
  }
  return false;
}

Harc Harc::Build(const Network& network) {
  obs::StageSpan span("harc.build");
  Harc harc;
  harc.universe_ = std::make_shared<const EtgUniverse>(EtgUniverse::Build(network));
  const EtgUniverse& universe = *harc.universe_;
  const int subnet_count = static_cast<int>(network.subnets().size());
  {
    obs::Registry& registry = obs::CurrentRegistry();
    registry.gauge("harc.subnets").Set(subnet_count);
    registry.gauge("harc.candidate_vertices").Set(universe.VertexCount());
    registry.gauge("harc.candidate_edges").Set(universe.EdgeCount());
    // Per-traffic-class ETGs: one per ordered (src, dst) subnet pair.
    registry.gauge("harc.tcetgs").Set(static_cast<int64_t>(subnet_count) *
                                      (subnet_count - 1));
  }

  // ---- aETG: adjacencies and redistribution (applies to everything). ----
  harc.aetg_ = Etg(&universe);
  for (int e = 0; e < universe.EdgeCount(); ++e) {
    const CandidateEdge& edge = universe.edge(e);
    switch (edge.kind) {
      case EtgEdgeKind::kIntraSelf:
      case EtgEdgeKind::kEndpointSrc:
      case EtgEdgeKind::kEndpointDst:
        harc.aetg_.SetPresent(e, true);
        break;
      case EtgEdgeKind::kRedistribution:
        harc.aetg_.SetPresent(e, RedistributionConfigured(network, edge));
        break;
      case EtgEdgeKind::kInterDevice:
        harc.aetg_.SetPresent(e, AdjacencyConfigured(network, edge));
        break;
    }
  }

  // ---- dETGs: plus route filters and static routes (per destination). ----
  harc.detgs_.reserve(static_cast<size_t>(subnet_count));
  for (SubnetId d = 0; d < subnet_count; ++d) {
    harc.detgs_.push_back(BuildDetgLayer(network, universe, harc.aetg_, d));
  }

  // ---- tcETGs: plus ACLs (per traffic class). ----
  //
  // Assembled via the scaffold: per destination, start from the dETG with
  // every endpoint-source edge cleared, then per source restore that
  // source's own edges and apply the (typically few) resolved ACL checks.
  // Same result as the naive per-pair derivation — arc_test holds the two
  // equal — at a bitmap copy per pair instead of an O(E) re-scan with name
  // lookups.
  const TcetgScaffold scaffold = BuildTcetgScaffold(network, universe);
  harc.tcetgs_.assign(static_cast<size_t>(subnet_count) * static_cast<size_t>(subnet_count),
                      Etg());
  for (SubnetId d = 0; d < subnet_count; ++d) {
    const Etg& detg = harc.detgs_[static_cast<size_t>(d)];
    Etg base = detg;
    for (const std::vector<CandidateEdgeId>& edges : scaffold.src_edges_by_subnet) {
      for (CandidateEdgeId e : edges) {
        base.SetPresent(e, false);
      }
    }
    const Ipv4Prefix& dst_prefix = network.subnets()[static_cast<size_t>(d)].prefix;
    for (SubnetId s = 0; s < subnet_count; ++s) {
      if (s == d) {
        continue;
      }
      Etg tcetg = base;
      for (CandidateEdgeId e :
           scaffold.src_edges_by_subnet[static_cast<size_t>(s)]) {
        tcetg.SetPresent(e, detg.IsPresent(e));
      }
      if (!scaffold.checks.empty()) {
        const TrafficClass tc(network.subnets()[static_cast<size_t>(s)].prefix,
                              dst_prefix);
        for (const TcetgScaffold::AclCheck& check : scaffold.checks) {
          if (tcetg.IsPresent(check.edge) && !check.acl->Permits(tc)) {
            tcetg.SetPresent(check.edge, false);
          }
        }
      }
      harc.tcetgs_[harc.TcIndex(s, d)] = std::move(tcetg);
    }
  }

  return harc;
}

Status Harc::CheckHierarchy() const {
  const EtgUniverse& universe = *universe_;
  const int subnet_count = SubnetCount();
  for (SubnetId d = 0; d < subnet_count; ++d) {
    const Etg& detg = detgs_[static_cast<size_t>(d)];
    for (int e = 0; e < universe.EdgeCount(); ++e) {
      if (detg.IsPresent(e) && !aetg_.IsPresent(e) &&
          universe.edge(e).kind != EtgEdgeKind::kInterDevice) {
        return Error("dETG " + std::to_string(d) + " edge " + std::to_string(e) +
                     " is absent from the aETG and not static-route-realizable");
      }
    }
    for (SubnetId s = 0; s < subnet_count; ++s) {
      if (s == d) {
        continue;
      }
      const Etg& tcetg = tcetgs_[TcIndex(s, d)];
      for (int e = 0; e < universe.EdgeCount(); ++e) {
        if (tcetg.IsPresent(e) && !detg.IsPresent(e)) {
          return Error("tcETG (" + std::to_string(s) + "," + std::to_string(d) + ") edge " +
                       std::to_string(e) + " violates the tcETG<=dETG hierarchy");
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace cpr
