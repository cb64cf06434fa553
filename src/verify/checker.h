// Graph-theoretic policy verification, paper Table 1.
//
// Each policy class maps to a characteristic of the traffic class's ETG:
// PC1 needs SRC and DST separated; PC2 needs them separated once waypoint
// edges are dropped; PC3 needs link-disjoint max-flow >= k; PC4 needs the
// shortest path to equal P. Because ETGs are pathset-equivalent, these
// checks certify the policy under *arbitrary* failures.

#ifndef CPR_SRC_VERIFY_CHECKER_H_
#define CPR_SRC_VERIFY_CHECKER_H_

#include <vector>

#include "arc/harc.h"
#include "verify/policy.h"

namespace cpr {

// Whether `policy` holds on the (traffic class ETG of the) given HARC.
bool VerifyPolicy(const Harc& harc, const Policy& policy);

// All policies that do not hold.
std::vector<Policy> FindViolations(const Harc& harc, const std::vector<Policy>& policies);

// Individual Table 1 characteristics, exposed for tests and repair:

// PC1: SRC and DST are in separate components of the tcETG.
bool CheckAlwaysBlocked(const Harc& harc, SubnetId src, SubnetId dst);

// PC2: removing waypoint edges separates SRC and DST.
bool CheckAlwaysWaypoint(const Harc& harc, SubnetId src, SubnetId dst);

// PC3: link-disjoint max-flow from SRC to DST is >= k. Returns the flow
// value so inference can reuse it.
int LinkDisjointPathCount(const Harc& harc, SubnetId src, SubnetId dst);

// PC4: the weighted shortest SRC->DST path in the tcETG visits exactly the
// devices in `path`.
bool CheckPrimaryPath(const Harc& harc, SubnetId src, SubnetId dst,
                      const std::vector<DeviceId>& path);

// The device sequence visited by the current shortest SRC->DST path (empty
// if unreachable). Used by PC4 inference and the simulator cross-check.
std::vector<DeviceId> ShortestPathDevices(const Harc& harc, SubnetId src, SubnetId dst);

// PC5: the two traffic classes' tcETGs share no inter-device (link-backed)
// edge — under arbitrary failures they can never ride the same link.
bool CheckIsolation(const Harc& harc, SubnetId src1, SubnetId dst1, SubnetId src2,
                    SubnetId dst2);

}  // namespace cpr

#endif  // CPR_SRC_VERIFY_CHECKER_H_
