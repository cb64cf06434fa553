// Re-breaking a repaired snapshot, for tests of incremental re-repair.

#ifndef CPR_TESTS_REBREAK_H_
#define CPR_TESTS_REBREAK_H_

#include <string>
#include <vector>

namespace cpr {

// Removes the first deny line a repair left on a router: a `deny ip 10.`
// entry of a router with a bound ACL, else a deny of a repair-created
// CPR-FLT prefix-list. That re-breaks the traffic class (ACL) or the
// destination (route filter) the deny policed with a one-router edit — the
// rule perfbench's lineage edits use. Returns false when no router carries
// such a deny.
inline bool RemoveOneRepairDeny(std::vector<std::string>* texts) {
  for (std::string& text : *texts) {
    size_t at = text.find("access-group") != std::string::npos ? text.find(" deny ip 10.")
                                                                : std::string::npos;
    for (size_t p = text.find("ip prefix-list CPR-FLT");
         at == std::string::npos && p != std::string::npos;
         p = text.find("ip prefix-list CPR-FLT", p + 1)) {
      if (text.substr(p, text.find('\n', p) - p).find(" deny ") != std::string::npos) {
        at = p;
      }
    }
    if (at == std::string::npos) {
      continue;
    }
    const size_t end = text.find('\n', at);
    text.erase(at, end == std::string::npos ? std::string::npos : end - at + 1);
    return true;
  }
  return false;
}

}  // namespace cpr

#endif  // CPR_TESTS_REBREAK_H_
