// Construct-level repair edits.
//
// CPR's MaxSMT variables correspond one-to-one with configuration
// constructs: a routing adjacency (per link and same-protocol process pair,
// symmetric — protocols form adjacencies in both directions), a
// redistribution (per ordered process pair on a device), a route filter
// entry (per destination and process), a static route (per destination,
// device, and outgoing link), an ACL application (per traffic class and
// interface direction), an OSPF interface cost (per link direction), and a
// waypoint placement (per link). A solved model therefore decodes into a
// flat list of construct changes — the RepairEdits — which the translator
// (src/translate) turns into configuration lines mechanically and exactly.

#ifndef CPR_SRC_REPAIR_EDITS_H_
#define CPR_SRC_REPAIR_EDITS_H_

#include <string>
#include <vector>

#include "topo/network.h"

namespace cpr {

struct AdjacencyEdit {
  LinkId link = -1;
  ProcessId process_a = -1;  // Normalized: process_a < process_b.
  ProcessId process_b = -1;
  bool enable = true;  // false: tear the adjacency down.
};

struct RedistributionEdit {
  // The process that gains/loses a `redistribute` statement...
  ProcessId redistributing = -1;
  // ...naming this process's protocol as the source.
  ProcessId source = -1;
  bool enable = true;
};

struct FilterEdit {
  SubnetId dst = -1;
  ProcessId process = -1;
  bool block = true;  // true: filter out routes to dst; false: stop filtering.
};

struct StaticRouteEdit {
  SubnetId dst = -1;
  DeviceId device = -1;
  LinkId link = -1;  // Next hop is the neighbor across this link.
  bool add = true;
  // Administrative distance for added routes. Default 1 (primary): the
  // device then always forwards via its own static, which keeps mutually
  // redistributing repair statics from forming externals-preference loops.
  // Problems carrying PC4 policies use 200 instead (backup, paper Figure 2d)
  // so the repair cannot preempt the policy's primary path.
  int distance = 1;
};

struct AclEdit {
  SubnetId src = -1;
  SubnetId dst = -1;
  // Where the filter applies: on a router-router link (ingress side of the
  // direction egressing `egress_device`), or on a host-facing interface.
  enum class Where { kLink, kSubnetSrcSide, kSubnetDstSide };
  Where where = Where::kLink;
  LinkId link = -1;               // kLink
  DeviceId egress_device = -1;    // kLink: direction selector
  SubnetId endpoint_subnet = -1;  // kSubnet*
  bool block = true;
};

struct CostEdit {
  LinkId link = -1;
  DeviceId egress_device = -1;
  int old_cost = 1;
  int new_cost = 1;
};

struct WaypointEdit {
  LinkId link = -1;
};

struct RepairEdits {
  std::vector<AdjacencyEdit> adjacencies;
  std::vector<RedistributionEdit> redistributions;
  std::vector<FilterEdit> filters;
  std::vector<StaticRouteEdit> static_routes;
  std::vector<AclEdit> acls;
  std::vector<CostEdit> costs;
  std::vector<WaypointEdit> waypoints;

  int TotalChanges() const {
    return static_cast<int>(adjacencies.size() + redistributions.size() + filters.size() +
                            static_routes.size() + acls.size() + costs.size() +
                            waypoints.size());
  }
  bool empty() const { return TotalChanges() == 0; }
};

// Appends every edit of `from` to `into`, kind by kind, keeping order.
inline void AppendEdits(const RepairEdits& from, RepairEdits* into) {
  auto append = [](const auto& src, auto* dst) {
    dst->insert(dst->end(), src.begin(), src.end());
  };
  append(from.adjacencies, &into->adjacencies);
  append(from.redistributions, &into->redistributions);
  append(from.filters, &into->filters);
  append(from.static_routes, &into->static_routes);
  append(from.acls, &into->acls);
  append(from.costs, &into->costs);
  append(from.waypoints, &into->waypoints);
}

// --- Canonical construct keys (provenance) ---
//
// One stable string per construct, shared by three layers: the encoder
// labels each "keep as configured" soft constraint with it, the repair
// engine matches decoded edits to violated soft labels through it, and the
// translator tags emitted configuration lines with it. Changing a format
// here changes it everywhere at once.

inline std::string AdjacencyConstructKey(LinkId link, ProcessId low, ProcessId high) {
  return "adj:l" + std::to_string(link) + ":p" + std::to_string(low) + "-" +
         std::to_string(high);
}
inline std::string RedistributionConstructKey(ProcessId redistributing, ProcessId source) {
  return "redist:p" + std::to_string(redistributing) + "-p" + std::to_string(source);
}
inline std::string FilterConstructKey(SubnetId dst, ProcessId process) {
  return "flt:d" + std::to_string(dst) + ":p" + std::to_string(process);
}
inline std::string StaticRouteConstructKey(SubnetId dst, DeviceId device, LinkId link) {
  return "static:d" + std::to_string(dst) + ":dev" + std::to_string(device) + ":l" +
         std::to_string(link);
}
inline std::string LinkAclConstructKey(SubnetId src, SubnetId dst, LinkId link,
                                       DeviceId egress) {
  return "acl:t" + std::to_string(src) + "-" + std::to_string(dst) + ":l" +
         std::to_string(link) + ":e" + std::to_string(egress);
}
inline std::string EndpointAclConstructKey(SubnetId src, SubnetId dst, bool src_side) {
  return "eacl:t" + std::to_string(src) + "-" + std::to_string(dst) +
         (src_side ? ":in" : ":out");
}
inline std::string CostConstructKey(LinkId link, DeviceId egress_device) {
  return "cost:l" + std::to_string(link) + ":d" + std::to_string(egress_device);
}
inline std::string WaypointConstructKey(LinkId link) {
  return "wp:l" + std::to_string(link);
}

inline std::string ConstructKey(const AdjacencyEdit& e) {
  return AdjacencyConstructKey(e.link, e.process_a, e.process_b);
}
inline std::string ConstructKey(const RedistributionEdit& e) {
  return RedistributionConstructKey(e.redistributing, e.source);
}
inline std::string ConstructKey(const FilterEdit& e) {
  return FilterConstructKey(e.dst, e.process);
}
inline std::string ConstructKey(const StaticRouteEdit& e) {
  return StaticRouteConstructKey(e.dst, e.device, e.link);
}
inline std::string ConstructKey(const AclEdit& e) {
  return e.where == AclEdit::Where::kLink
             ? LinkAclConstructKey(e.src, e.dst, e.link, e.egress_device)
             : EndpointAclConstructKey(e.src, e.dst,
                                       e.where == AclEdit::Where::kSubnetSrcSide);
}
inline std::string ConstructKey(const CostEdit& e) {
  return CostConstructKey(e.link, e.egress_device);
}
inline std::string ConstructKey(const WaypointEdit& e) {
  return WaypointConstructKey(e.link);
}

// Short human-readable edit summaries for provenance reports (id-based; the
// translator's change log carries the device/file-level rendering).
inline std::string Describe(const AdjacencyEdit& e) {
  return std::string(e.enable ? "establish" : "tear down") + " adjacency on link " +
         std::to_string(e.link) + " between processes " + std::to_string(e.process_a) +
         " and " + std::to_string(e.process_b);
}
inline std::string Describe(const RedistributionEdit& e) {
  return std::string(e.enable ? "add" : "remove") + " redistribution into process " +
         std::to_string(e.redistributing) + " from process " + std::to_string(e.source);
}
inline std::string Describe(const FilterEdit& e) {
  return std::string(e.block ? "add" : "remove") + " route filter for subnet " +
         std::to_string(e.dst) + " on process " + std::to_string(e.process);
}
inline std::string Describe(const StaticRouteEdit& e) {
  return std::string(e.add ? "add" : "remove") + " static route to subnet " +
         std::to_string(e.dst) + " on device " + std::to_string(e.device) + " via link " +
         std::to_string(e.link) + " (distance " + std::to_string(e.distance) + ")";
}
inline std::string Describe(const AclEdit& e) {
  std::string where;
  switch (e.where) {
    case AclEdit::Where::kLink:
      where = "on link " + std::to_string(e.link) + " (egress device " +
              std::to_string(e.egress_device) + ")";
      break;
    case AclEdit::Where::kSubnetSrcSide:
      where = "on the source subnet interface";
      break;
    case AclEdit::Where::kSubnetDstSide:
      where = "on the destination subnet interface";
      break;
  }
  return std::string(e.block ? "block" : "unblock") + " traffic class " +
         std::to_string(e.src) + "->" + std::to_string(e.dst) + " " + where;
}
inline std::string Describe(const CostEdit& e) {
  return "set OSPF cost on link " + std::to_string(e.link) + " (egress device " +
         std::to_string(e.egress_device) + ") from " + std::to_string(e.old_cost) +
         " to " + std::to_string(e.new_cost);
}
inline std::string Describe(const WaypointEdit& e) {
  return "place a waypoint on link " + std::to_string(e.link);
}

}  // namespace cpr

#endif  // CPR_SRC_REPAIR_EDITS_H_
