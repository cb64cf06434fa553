// Reference simulator for tests: the straightforward control-plane
// simulator that recomputes every route by configuration lookup, once per
// (policy, destination, failure set). It is kept unchanged, in namespace
// cpr::reference, as the oracle tests/simulator_reference_test.cc holds the
// table-driven src/simulate to: same route tables, same forwarding outcomes,
// same verdicts. Linked only into tests.
//
// Control-plane simulator: independent, execution-based validation of
// repairs.
//
// The paper's guarantee is that after applying CPR's patches "the network is
// guaranteed to compute policy-compliant paths for all traffic classes under
// arbitrary failures". This module checks that property the way a network
// would realize it — not through the ETG abstraction, but by actually
// computing per-destination routing tables (connected > static-by-AD > BGP >
// OSPF > RIP, with redistribution), walking the forwarding path hop by hop
// with ACL evaluation at each interface crossing, and enumerating link
// failure sets.
//
// Deliberate semantic alignment with ARC (and its documented deviation from
// some real OSPF deployments, paper §2.1 footnote 1): a process whose route
// filter blocks a destination neither uses nor relays routes for it.

#ifndef CPR_TESTS_REFERENCE_SIMULATOR_H_
#define CPR_TESTS_REFERENCE_SIMULATOR_H_

#include <optional>
#include <set>
#include <vector>

#include "topo/network.h"
#include "verify/policy.h"

namespace cpr::reference {

struct ForwardingOutcome {
  enum class Kind {
    kDelivered,   // Reached the destination subnet.
    kAclDropped,  // A packet filter discarded the traffic.
    kNoRoute,     // A device had no route (blackhole).
    kLoop,        // Forwarding revisited a device.
  };
  Kind kind = Kind::kNoRoute;
  std::vector<DeviceId> path;   // Devices visited, in order.
  std::vector<LinkId> links;    // Links traversed.
  bool crossed_waypoint = false;
};

class Simulator {
 public:
  explicit Simulator(const Network& network) : network_(&network) {}

  // Forwards one packet of the (src subnet -> dst subnet) traffic class with
  // the given links failed.
  ForwardingOutcome Forward(SubnetId src, SubnetId dst,
                            const std::set<LinkId>& failed = {}) const;

  // The best route each device holds toward `dst` under the failure set:
  // the link to forward on, or nullopt for no route / local delivery.
  struct RouteEntry {
    int admin_distance = 255;
    std::optional<LinkId> out_link;  // nullopt: locally attached.
  };
  std::vector<std::optional<RouteEntry>> ComputeRoutes(
      SubnetId dst, const std::set<LinkId>& failed) const;

 private:
  const Network* network_;
};

// Checks `policy` by failure enumeration. PC3 enumerates exactly the failure
// sets its semantics quantify over (< k failed links); PC1/PC2 quantify over
// *arbitrary* failures, so enumeration is truncated at `failure_cap`
// simultaneous failures (pass the link count for an exhaustive check on
// small networks). PC4 is checked in the no-failure state.
bool CheckPolicyBySimulation(const Network& network, const Policy& policy,
                             int failure_cap = 2);

// All policies that fail simulation.
std::vector<Policy> FindSimulationViolations(const Network& network,
                                             const std::vector<Policy>& policies,
                                             int failure_cap = 2);

}  // namespace cpr::reference

#endif  // CPR_TESTS_REFERENCE_SIMULATOR_H_
