#include "simulate/simulator.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>

#include "arc/harc.h"
#include "obs/metrics.h"

namespace cpr {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Admin distance of a device without a route in a route table.
constexpr int kNoRoute = std::numeric_limits<int>::max();

// The routing protocols, in the order each redistribution pass computes them.
struct ProtocolSpec {
  RouteSource kind;
  int admin_distance;
  bool use_interface_costs;
};
constexpr int kProtocols = 3;
constexpr ProtocolSpec kSpecs[kProtocols] = {
    {RouteSource::kBgp, kAdBgp, false},
    {RouteSource::kOspf, kAdOspf, true},
    {RouteSource::kRip, kAdRip, false},
};

// Whether `process` on `device` participates on its side of `link` for
// adjacency formation. (Duplicated from the HARC builder on purpose: the
// simulator is an independent check of the same configuration semantics.)
bool SideConfigured(const Network& network, ProcessId process, LinkId link,
                    DeviceId device) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  if (proc.device != device) {
    return false;
  }
  auto [intf, peer_intf] = network.LinkInterfaces(link, device);
  if (!network.ProcessUsesInterface(process, intf)) {
    return false;
  }
  if (proc.kind == RouteSource::kOspf) {
    const OspfConfig* ospf = network.config_for(device).FindOspf(proc.protocol_id);
    if (ospf != nullptr && ospf->passive_interfaces.count(intf) > 0) {
      return false;
    }
  }
  return true;
}

// The process of the given kind on a device (-1 if none).
ProcessId ProcessOfKind(const Network& network, DeviceId device, RouteSource kind) {
  for (ProcessId p : network.devices()[static_cast<size_t>(device)].processes) {
    if (network.processes()[static_cast<size_t>(p)].kind == kind) {
      return p;
    }
  }
  return -1;
}

bool ProcessRedistributes(const Network& network, ProcessId process, RouteSource from) {
  const RoutingProcess& proc = network.processes()[static_cast<size_t>(process)];
  const Config& config = network.config_for(proc.device);
  const std::vector<Redistribution>* redists = nullptr;
  switch (proc.kind) {
    case RouteSource::kOspf: {
      const OspfConfig* ospf = config.FindOspf(proc.protocol_id);
      redists = ospf != nullptr ? &ospf->redistributes : nullptr;
      break;
    }
    case RouteSource::kBgp:
      redists = config.bgp.has_value() ? &config.bgp->redistributes : nullptr;
      break;
    case RouteSource::kRip:
      redists = config.rip.has_value() ? &config.rip->redistributes : nullptr;
      break;
    default:
      break;
  }
  if (redists == nullptr) {
    return false;
  }
  return std::any_of(redists->begin(), redists->end(),
                     [from](const Redistribution& r) { return r.from == from; });
}

int InterfaceCost(const Network& network, DeviceId device, const std::string& interface) {
  const InterfaceConfig* intf = network.config_for(device).FindInterface(interface);
  return intf != nullptr ? intf->ospf_cost : 1;
}

// The access list bound to an interface in one direction (nullptr: none, or
// bound to an undefined name — both forward everything).
const AccessList* AclAt(const Network& network, DeviceId device,
                        const std::string& interface, bool inbound) {
  const Config& config = network.config_for(device);
  const InterfaceConfig* intf = config.FindInterface(interface);
  if (intf == nullptr) {
    return nullptr;
  }
  const std::optional<std::string>& name = inbound ? intf->acl_in : intf->acl_out;
  return name.has_value() ? config.FindAccessList(*name) : nullptr;
}

bool Drops(const AccessList* acl, const TrafficClass& tc) {
  return acl != nullptr && !acl->Permits(tc);
}

}  // namespace

struct Simulator::Tables {
  // A link out of a device: the device on its other end, and the OSPF cost
  // of that peer's interface (what the peer pays to route over the link).
  struct Arc {
    LinkId link;
    DeviceId peer;
    double peer_cost;
  };
  // A static route whose next hop resolves onto a link.
  struct Static {
    Ipv4Prefix prefix;
    int distance;
    LinkId link;
  };
  // The packet filters bound to one interface.
  struct Acls {
    const AccessList* in = nullptr;
    const AccessList* out = nullptr;
  };

  explicit Tables(const Network& network);

  const Network* network;
  std::vector<std::vector<Arc>> arcs;                      // [device], link order
  std::array<std::vector<ProcessId>, kProtocols> process;  // [protocol][device], -1: none
  std::array<std::vector<char>, kProtocols> adjacent;      // [protocol][link]
  std::vector<std::vector<Static>> statics;                // [device], config order
  std::vector<std::array<Acls, 2>> link_acls;              // [link][a side, b side]
  std::vector<Acls> subnet_acls;                           // [subnet]
};

Simulator::Tables::Tables(const Network& net) : network(&net) {
  const size_t device_count = net.devices().size();
  const size_t link_count = net.links().size();
  arcs.resize(device_count);
  for (size_t l = 0; l < link_count; ++l) {
    const TopoLink& link = net.links()[l];
    const LinkId id = static_cast<LinkId>(l);
    const double cost_a = InterfaceCost(net, link.device_a, link.interface_a);
    const double cost_b = InterfaceCost(net, link.device_b, link.interface_b);
    arcs[static_cast<size_t>(link.device_a)].push_back(Arc{id, link.device_b, cost_b});
    arcs[static_cast<size_t>(link.device_b)].push_back(Arc{id, link.device_a, cost_a});
    link_acls.push_back({Acls{AclAt(net, link.device_a, link.interface_a, true),
                              AclAt(net, link.device_a, link.interface_a, false)},
                         Acls{AclAt(net, link.device_b, link.interface_b, true),
                              AclAt(net, link.device_b, link.interface_b, false)}});
  }
  for (int si = 0; si < kProtocols; ++si) {
    std::vector<ProcessId>& of_kind = process[static_cast<size_t>(si)];
    for (size_t d = 0; d < device_count; ++d) {
      of_kind.push_back(ProcessOfKind(net, static_cast<DeviceId>(d), kSpecs[si].kind));
    }
    std::vector<char>& up = adjacent[static_cast<size_t>(si)];
    for (size_t l = 0; l < link_count; ++l) {
      const TopoLink& link = net.links()[l];
      const ProcessId a = of_kind[static_cast<size_t>(link.device_a)];
      const ProcessId b = of_kind[static_cast<size_t>(link.device_b)];
      up.push_back(a >= 0 && b >= 0 &&
                   SideConfigured(net, a, static_cast<LinkId>(l), link.device_a) &&
                   SideConfigured(net, b, static_cast<LinkId>(l), link.device_b));
    }
  }
  statics.resize(device_count);
  for (size_t d = 0; d < device_count; ++d) {
    for (const StaticRouteConfig& route : net.config_for(static_cast<DeviceId>(d)).static_routes) {
      // A next hop that resolves onto no link never routes.
      if (auto next_hop = net.ResolveNextHop(static_cast<DeviceId>(d), route.next_hop)) {
        statics[d].push_back(Static{route.prefix, route.distance, next_hop->link});
      }
    }
  }
  for (const Subnet& subnet : net.subnets()) {
    subnet_acls.push_back(Acls{AclAt(net, subnet.device, subnet.interface, true),
                               AclAt(net, subnet.device, subnet.interface, false)});
  }
}

namespace {

using Tables = Simulator::Tables;

// Everything about routing toward one destination that no link failure
// changes.
struct DestinationPlan {
  // A device's part in one protocol for this destination.
  struct Member {
    // Its process of the protocol, unless that process's distribute-list
    // filters the destination (ARC semantics: a filtered process neither
    // uses nor relays routes for it). -1: no part.
    ProcessId process = -1;
    // Origination: 0 for a directly participating destination interface,
    // connected redistribution or a BGP `network` statement; kInf otherwise.
    double origin = kInf;
    bool redistributes_static = false;
    std::array<bool, kProtocols> redistributes{};  // From each other protocol.
  };
  // The statics of one device that cover the destination, in config order.
  struct CoveringStatics {
    DeviceId device;
    std::vector<Tables::Static> routes;
  };

  DestinationPlan(const Tables& tables, SubnetId dst);

  DeviceId attached;  // The destination's attachment device.
  std::array<std::vector<Member>, kProtocols> members;  // [protocol][device]
  std::vector<CoveringStatics> statics;
  // Some member redistributes another protocol: only then can a second
  // redistribution pass differ from the first.
  bool two_passes = false;
};

DestinationPlan::DestinationPlan(const Tables& tables, SubnetId dst) {
  const Network& network = *tables.network;
  const Subnet& subnet = network.subnets()[static_cast<size_t>(dst)];
  const size_t device_count = network.devices().size();
  attached = subnet.device;
  for (int si = 0; si < kProtocols; ++si) {
    std::vector<Member>& of_kind = members[static_cast<size_t>(si)];
    of_kind.resize(device_count);
    for (size_t d = 0; d < device_count; ++d) {
      const ProcessId p = tables.process[static_cast<size_t>(si)][d];
      if (p < 0 || ProcessBlocksDestination(network, p, subnet.prefix)) {
        continue;
      }
      Member& member = of_kind[d];
      member.process = p;
      const Config& config = network.config_for(static_cast<DeviceId>(d));
      if (static_cast<DeviceId>(d) == subnet.device) {
        // Direct participation: the destination interface is covered by a
        // `network` statement.
        const InterfaceConfig* intf = config.FindInterface(subnet.interface);
        if ((intf != nullptr && intf->address.has_value() &&
             network.ProcessUsesInterface(p, subnet.interface)) ||
            ProcessRedistributes(network, p, RouteSource::kConnected)) {
          member.origin = 0.0;
        }
        // BGP `network` statements originate configured prefixes.
        if (kSpecs[si].kind == RouteSource::kBgp && config.bgp.has_value() &&
            std::any_of(config.bgp->networks.begin(), config.bgp->networks.end(),
                        [&](const Ipv4Prefix& net) { return net.Contains(subnet.prefix); })) {
          member.origin = 0.0;
        }
      }
      member.redistributes_static = ProcessRedistributes(network, p, RouteSource::kStatic);
      for (int sj = 0; sj < kProtocols; ++sj) {
        if (sj != si && ProcessRedistributes(network, p, kSpecs[sj].kind)) {
          member.redistributes[static_cast<size_t>(sj)] = true;
          two_passes = true;
        }
      }
    }
  }
  for (size_t d = 0; d < device_count; ++d) {
    CoveringStatics covering{static_cast<DeviceId>(d), {}};
    for (const Tables::Static& route : tables.statics[d]) {
      if (route.prefix.Contains(subnet.prefix)) {
        covering.routes.push_back(route);
      }
    }
    if (!covering.routes.empty()) {
      statics.push_back(std::move(covering));
    }
  }
}

// One device's best route in a route table.
struct Route {
  int admin_distance = kNoRoute;
  LinkId out_link = -1;  // -1: locally attached.
};

// Computes route tables over the network tables; its scratch space is reused
// across failure sets and lives only as long as one simulator call.
class RouteComputer {
 public:
  explicit RouteComputer(const Tables& tables);

  // The best route of every device toward the plan's destination with the
  // links flagged in `failed` down.
  void Compute(const DestinationPlan& plan, const std::vector<char>& failed,
               std::vector<Route>* routes);

 private:
  struct Label {
    double dist;
    DeviceId source;
    LinkId via;  // -1: self-originated.
  };
  // A device settles at most two labels, each for a distinct source.
  struct Settled {
    std::array<Label, 2> labels;
    int count = 0;
    bool Accepts(DeviceId source) const {
      return count == 0 || (count == 1 && labels[0].source != source);
    }
  };
  struct QueueEntry {
    double dist;
    DeviceId device;
    DeviceId source;
    LinkId via;
    // Deterministic total order: distance first, then stable tie-breaks.
    bool operator>(const QueueEntry& other) const {
      if (dist != other.dist) {
        return dist > other.dist;
      }
      if (source != other.source) {
        return source > other.source;
      }
      if (device != other.device) {
        return device > other.device;
      }
      return via > other.via;
    }
  };

  void RunProtocol(const DestinationPlan& plan, int si, const std::vector<char>& failed,
                   std::vector<Route>* routes);

  const Tables& tables_;
  std::vector<char> has_static_;                          // [device]
  std::array<std::vector<double>, kProtocols> proto_dist_;  // [protocol][device]
  std::vector<Settled> settled_;                          // [device]
  std::vector<QueueEntry> queue_;                         // Min-heap.
};

RouteComputer::RouteComputer(const Tables& tables)
    : tables_(tables),
      has_static_(tables.arcs.size()),
      settled_(tables.arcs.size()) {
  for (std::vector<double>& dist : proto_dist_) {
    dist.resize(tables.arcs.size());
  }
}

void RouteComputer::Compute(const DestinationPlan& plan, const std::vector<char>& failed,
                            std::vector<Route>* routes) {
  std::vector<Route>& best = *routes;
  best.assign(tables_.arcs.size(), Route{});

  // Connected route on the attachment device.
  best[static_cast<size_t>(plan.attached)] = Route{kAdConnected, -1};

  // Static routes over an alive link: the first most-specific prefix wins,
  // then the lowest administrative distance.
  std::fill(has_static_.begin(), has_static_.end(), 0);
  for (const DestinationPlan::CoveringStatics& covering : plan.statics) {
    const Tables::Static* chosen = nullptr;
    for (const Tables::Static& route : covering.routes) {
      if (failed[static_cast<size_t>(route.link)]) {
        continue;
      }
      if (chosen == nullptr || route.prefix.length() > chosen->prefix.length() ||
          (route.prefix.length() == chosen->prefix.length() &&
           route.distance < chosen->distance)) {
        chosen = &route;
      }
    }
    if (chosen != nullptr) {
      const size_t d = static_cast<size_t>(covering.device);
      has_static_[d] = 1;
      if (best[d].admin_distance == kNoRoute || chosen->distance < best[d].admin_distance) {
        best[d] = Route{chosen->distance, chosen->link};
      }
    }
  }

  // Protocol routes; a second pass lets redistribution between protocols
  // stabilize (redistribution chains in the supported config model are
  // acyclic and short). Without cross-protocol redistribution it would
  // recompute the first pass exactly.
  for (std::vector<double>& dist : proto_dist_) {
    std::fill(dist.begin(), dist.end(), kInf);
  }
  for (int pass = 0; pass < (plan.two_passes ? 2 : 1); ++pass) {
    for (int si = 0; si < kProtocols; ++si) {
      RunProtocol(plan, si, failed, routes);
    }
  }
}

void RouteComputer::RunProtocol(const DestinationPlan& plan, int si,
                                const std::vector<char>& failed, std::vector<Route>* routes) {
  const ProtocolSpec& spec = kSpecs[si];
  const std::vector<DestinationPlan::Member>& members = plan.members[static_cast<size_t>(si)];
  const std::vector<char>& adjacent = tables_.adjacent[static_cast<size_t>(si)];
  const size_t device_count = members.size();

  // Origination: who advertises dst into this protocol? Advertisements
  // carry a starting metric: 0 for directly participating interfaces and
  // connected redistribution, a small penalty for redistributed routes —
  // mirroring OSPF's preference for internal routes over externals and
  // keeping backup-static advertisers from attracting ties. Redistribution
  // from other protocols uses the routes computed so far.
  constexpr double kRedistPenalty = 0.5;
  queue_.clear();
  for (size_t d = 0; d < device_count; ++d) {
    settled_[d].count = 0;
    const DestinationPlan::Member& member = members[d];
    if (member.process < 0) {
      continue;
    }
    double advertises = member.origin;
    if (member.redistributes_static && has_static_[d]) {
      advertises = std::min(advertises, kRedistPenalty);
    }
    for (int sj = 0; sj < kProtocols; ++sj) {
      if (member.redistributes[static_cast<size_t>(sj)] &&
          proto_dist_[static_cast<size_t>(sj)][d] != kInf) {
        advertises = std::min(advertises, kRedistPenalty);
      }
    }
    if (advertises != kInf) {
      queue_.push_back({advertises, static_cast<DeviceId>(d), static_cast<DeviceId>(d), -1});
    }
  }
  std::make_heap(queue_.begin(), queue_.end(), std::greater<>());

  // Multi-source Dijkstra toward the advertisers over established
  // adjacencies, keeping the two best labels with *distinct* sources per
  // device. An advertiser routes toward the nearest other advertiser (real
  // OSPF: an ASBR does not install its self-originated external, but does
  // install other ASBRs' — exactly how a backup static route stays a
  // backup). Entries pop in nondecreasing distance.
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
    const QueueEntry entry = queue_.back();
    queue_.pop_back();
    Settled& settled = settled_[static_cast<size_t>(entry.device)];
    if (!settled.Accepts(entry.source)) {
      continue;
    }
    settled.labels[static_cast<size_t>(settled.count++)] =
        Label{entry.dist, entry.source, entry.via};
    for (const Tables::Arc& arc : tables_.arcs[static_cast<size_t>(entry.device)]) {
      // An entry its device can no longer accept would pop without effect,
      // so it is never queued.
      if (failed[static_cast<size_t>(arc.link)] || !adjacent[static_cast<size_t>(arc.link)] ||
          members[static_cast<size_t>(arc.peer)].process < 0 ||
          !settled_[static_cast<size_t>(arc.peer)].Accepts(entry.source)) {
        continue;
      }
      const double edge_cost = spec.use_interface_costs ? arc.peer_cost : 1.0;
      queue_.push_back({entry.dist + edge_cost, arc.peer, entry.source, arc.link});
      std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
    }
  }

  // Install protocol routes where they beat the current best; a device
  // never uses a route sourced at itself. Protocol-level reachability (any
  // advertiser, itself included) feeds redistribution chains.
  std::vector<Route>& best = *routes;
  std::vector<double>& dist = proto_dist_[static_cast<size_t>(si)];
  for (size_t d = 0; d < device_count; ++d) {
    const Settled& settled = settled_[d];
    const Label* chosen = nullptr;
    dist[d] = kInf;
    for (int i = 0; i < settled.count; ++i) {
      const Label& label = settled.labels[static_cast<size_t>(i)];
      if (label.source != static_cast<DeviceId>(d) && label.via >= 0 &&
          (chosen == nullptr || label.dist < chosen->dist)) {
        chosen = &label;
      }
      dist[d] = std::min(dist[d], label.dist);
    }
    if (chosen != nullptr &&
        (best[d].admin_distance == kNoRoute || spec.admin_distance < best[d].admin_distance)) {
      best[d] = Route{spec.admin_distance, chosen->via};
    }
  }
}

// Walks one packet of (src -> dst) hop by hop over a computed route table,
// evaluating the ACL at every interface crossing. `outcome` is overwritten.
void Walk(const Tables& tables, const std::vector<Route>& routes, SubnetId src, SubnetId dst,
          ForwardingOutcome* outcome) {
  const Network& network = *tables.network;
  const Subnet& src_subnet = network.subnets()[static_cast<size_t>(src)];
  const Subnet& dst_subnet = network.subnets()[static_cast<size_t>(dst)];
  const TrafficClass tc(src_subnet.prefix, dst_subnet.prefix);
  outcome->path.clear();
  outcome->links.clear();
  outcome->crossed_waypoint = false;

  // Entering the first router from the source subnet.
  if (Drops(tables.subnet_acls[static_cast<size_t>(src)].in, tc)) {
    outcome->kind = ForwardingOutcome::Kind::kAclDropped;
    return;
  }
  DeviceId current = src_subnet.device;
  while (true) {
    const bool revisited =
        std::find(outcome->path.begin(), outcome->path.end(), current) != outcome->path.end();
    outcome->path.push_back(current);
    if (revisited) {
      outcome->kind = ForwardingOutcome::Kind::kLoop;
      return;
    }
    if (current == dst_subnet.device) {
      // Local delivery through the destination-facing interface.
      outcome->kind = Drops(tables.subnet_acls[static_cast<size_t>(dst)].out, tc)
                          ? ForwardingOutcome::Kind::kAclDropped
                          : ForwardingOutcome::Kind::kDelivered;
      return;
    }
    const Route& route = routes[static_cast<size_t>(current)];
    if (route.admin_distance == kNoRoute || route.out_link < 0) {
      outcome->kind = ForwardingOutcome::Kind::kNoRoute;
      return;
    }
    const LinkId link = route.out_link;
    const TopoLink& topo_link = network.links()[static_cast<size_t>(link)];
    const int egress_side = topo_link.device_a == current ? 0 : 1;
    const DeviceId next = egress_side == 0 ? topo_link.device_b : topo_link.device_a;
    const std::array<Tables::Acls, 2>& acls = tables.link_acls[static_cast<size_t>(link)];
    if (Drops(acls[static_cast<size_t>(egress_side)].out, tc) ||
        Drops(acls[static_cast<size_t>(1 - egress_side)].in, tc)) {
      outcome->kind = ForwardingOutcome::Kind::kAclDropped;
      return;
    }
    outcome->links.push_back(link);
    if (topo_link.waypoint) {
      outcome->crossed_waypoint = true;
    }
    current = next;
  }
}

std::vector<char> FailureFlags(const Tables& tables, const std::set<LinkId>& failed) {
  std::vector<char> flags(tables.network->links().size(), 0);
  for (LinkId link : failed) {
    if (link >= 0 && static_cast<size_t>(link) < flags.size()) {
      flags[static_cast<size_t>(link)] = 1;
    }
  }
  return flags;
}

// Enumerates link failure sets depth-first in lexicographic order — {},
// {0}, {0,1}, ..., {0,n-1}, {1}, {1,2}, ... — flagging the current set in
// `failed`. `visit(size)` returns the largest set size still worth
// visiting: sets larger than it are skipped, and a negative value stops the
// enumeration. A negative `max_size` enumerates nothing.
template <typename Visit>
void ForEachFailureSet(int max_size, std::vector<char>* failed, const Visit& visit) {
  const int link_count = static_cast<int>(failed->size());
  int limit = std::min(max_size, link_count);
  auto recurse = [&](auto& self, int start, int size) -> void {
    limit = std::min(limit, visit(size));
    for (int l = start; l < link_count && size < limit; ++l) {
      (*failed)[static_cast<size_t>(l)] = 1;
      self(self, l + 1, size + 1);
      (*failed)[static_cast<size_t>(l)] = 0;
    }
  };
  if (limit >= 0) {
    recurse(recurse, 0, 0);
  }
}

// The largest failure set a single-destination policy quantifies over.
int FailureBound(const Policy& policy, int failure_cap) {
  switch (policy.pc) {
    case PolicyClass::kReachability:
      return policy.k - 1;  // "< k failures" is the exact quantifier.
    case PolicyClass::kPrimaryPath:
      return 0;  // The no-failure state only.
    case PolicyClass::kAlwaysBlocked:
    case PolicyClass::kAlwaysWaypoint:
    case PolicyClass::kIsolation:
      break;
  }
  return failure_cap;
}

// Whether a single-destination policy holds for one forwarding outcome.
bool Holds(const Policy& policy, const ForwardingOutcome& outcome) {
  const bool delivered = outcome.kind == ForwardingOutcome::Kind::kDelivered;
  switch (policy.pc) {
    case PolicyClass::kAlwaysBlocked:
      return !delivered;
    case PolicyClass::kAlwaysWaypoint:
      return !delivered || outcome.crossed_waypoint;
    case PolicyClass::kReachability:
      return delivered;
    case PolicyClass::kPrimaryPath:
      return delivered && outcome.path == policy.primary_path;
    case PolicyClass::kIsolation:
      break;
  }
  return false;
}

// Flags in `violated` every policy that fails simulation and returns how
// many route tables that took. Policies sharing a destination share one
// route table per failure set; a group stops enumerating once all its
// policies are violated. Isolation policies, which span two destinations,
// enumerate on their own.
int64_t CheckPolicies(const Tables& tables, const std::vector<Policy>& policies,
                      int failure_cap, std::vector<char>* violated) {
  RouteComputer computer(tables);
  std::vector<char> failed(tables.network->links().size(), 0);
  std::vector<Route> routes;
  std::vector<Route> routes2;
  ForwardingOutcome outcome;
  ForwardingOutcome outcome2;
  int64_t route_tables = 0;

  std::map<SubnetId, std::vector<size_t>> by_dst;
  for (size_t i = 0; i < policies.size(); ++i) {
    const Policy& policy = policies[i];
    if (policy.pc != PolicyClass::kIsolation) {
      by_dst[policy.dst].push_back(i);
      continue;
    }
    // Under every enumerated failure set, the two flows must not cross a
    // common link (vacuous when either is not delivered).
    const DestinationPlan plan(tables, policy.dst);
    const DestinationPlan plan2(tables, policy.dst2);
    ForEachFailureSet(failure_cap, &failed, [&](int) {
      computer.Compute(plan, failed, &routes);
      computer.Compute(plan2, failed, &routes2);
      route_tables += 2;
      Walk(tables, routes, policy.src, policy.dst, &outcome);
      Walk(tables, routes2, policy.src2, policy.dst2, &outcome2);
      if (outcome.kind == ForwardingOutcome::Kind::kDelivered &&
          outcome2.kind == ForwardingOutcome::Kind::kDelivered &&
          std::any_of(outcome2.links.begin(), outcome2.links.end(), [&](LinkId l) {
            return std::find(outcome.links.begin(), outcome.links.end(), l) !=
                   outcome.links.end();
          })) {
        (*violated)[i] = 1;
        return -1;
      }
      return failure_cap;
    });
  }

  for (const auto& [dst, group] : by_dst) {
    std::vector<int> bounds;
    for (size_t i : group) {
      bounds.push_back(FailureBound(policies[i], failure_cap));
    }
    // The largest bound among the group's undecided policies (-1: none).
    auto open_bound = [&] {
      int bound = -1;
      for (size_t j = 0; j < group.size(); ++j) {
        if (!(*violated)[group[j]]) {
          bound = std::max(bound, bounds[j]);
        }
      }
      return bound;
    };
    const DestinationPlan plan(tables, dst);
    ForEachFailureSet(open_bound(), &failed, [&](int size) {
      computer.Compute(plan, failed, &routes);
      ++route_tables;
      for (size_t j = 0; j < group.size(); ++j) {
        const Policy& policy = policies[group[j]];
        if ((*violated)[group[j]] || bounds[j] < size) {
          continue;
        }
        Walk(tables, routes, policy.src, policy.dst, &outcome);
        if (!Holds(policy, outcome)) {
          (*violated)[group[j]] = 1;
        }
      }
      return open_bound();
    });
  }
  return route_tables;
}

}  // namespace

Simulator::Simulator(const Network& network)
    : tables_(std::make_shared<const Tables>(network)) {}

std::vector<std::optional<Simulator::RouteEntry>> Simulator::ComputeRoutes(
    SubnetId dst, const std::set<LinkId>& failed) const {
  std::vector<Route> routes;
  RouteComputer(*tables_).Compute(DestinationPlan(*tables_, dst), FailureFlags(*tables_, failed),
                                  &routes);
  std::vector<std::optional<RouteEntry>> best(routes.size());
  for (size_t d = 0; d < routes.size(); ++d) {
    if (routes[d].admin_distance != kNoRoute) {
      best[d] = RouteEntry{routes[d].admin_distance,
                           routes[d].out_link < 0 ? std::nullopt
                                                  : std::optional<LinkId>(routes[d].out_link)};
    }
  }
  return best;
}

ForwardingOutcome Simulator::Forward(SubnetId src, SubnetId dst,
                                     const std::set<LinkId>& failed) const {
  std::vector<Route> routes;
  RouteComputer(*tables_).Compute(DestinationPlan(*tables_, dst), FailureFlags(*tables_, failed),
                                  &routes);
  ForwardingOutcome outcome;
  Walk(*tables_, routes, src, dst, &outcome);
  return outcome;
}

bool CheckPolicyBySimulation(const Network& network, const Policy& policy,
                             int failure_cap) {
  std::vector<char> violated(1, 0);
  CheckPolicies(Tables(network), {policy}, failure_cap, &violated);
  return !violated[0];
}

std::vector<Policy> FindSimulationViolations(const Network& network,
                                             const std::vector<Policy>& policies,
                                             int failure_cap) {
  std::vector<char> violated(policies.size(), 0);
  const int64_t route_tables = CheckPolicies(Tables(network), policies, failure_cap, &violated);
  std::vector<Policy> violations;
  for (size_t i = 0; i < policies.size(); ++i) {
    if (violated[i]) {
      violations.push_back(policies[i]);
    }
  }
  obs::Registry& registry = obs::CurrentRegistry();
  registry.counter("simulate.policies_checked").Add(static_cast<int64_t>(policies.size()));
  registry.counter("simulate.violations_found").Add(static_cast<int64_t>(violations.size()));
  registry.counter("simulate.route_tables").Add(route_tables);
  return violations;
}

}  // namespace cpr
