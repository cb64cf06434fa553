// An extended topology graph (ETG): a presence bitmap plus sparse weight
// overrides over the network's candidate edge universe.
//
// ARC models the control plane's forwarding behaviour for one traffic class
// as a digraph whose paths are exactly the paths the network can use under
// some failure combination (pathset-equivalence, paper §4.1). HARC keeps
// three flavours — tcETG, dETG, aETG — that differ only in which candidate
// edges are present, so one type represents all of them.
//
// Edge weights default to the universe's configuration-derived values (OSPF
// interface costs); the only weights stored per ETG are the administrative
// distances of static-route edges a dETG adds. This keeps a network with
// tens of thousands of traffic classes (the paper's largest has 82K) at a
// bit per candidate edge per tcETG.

#ifndef CPR_SRC_ARC_ETG_H_
#define CPR_SRC_ARC_ETG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "arc/universe.h"
#include "graph/digraph.h"

namespace cpr {

class Etg {
 public:
  Etg() = default;
  explicit Etg(const EtgUniverse* universe)
      : universe_(universe),
        present_((static_cast<size_t>(universe->EdgeCount()) + kWordBits - 1) / kWordBits,
                 0) {}

  const EtgUniverse& universe() const { return *universe_; }

  bool IsPresent(CandidateEdgeId edge) const {
    const size_t e = static_cast<size_t>(edge);
    return ((present_[e / kWordBits] >> (e % kWordBits)) & 1) != 0;
  }
  void SetPresent(CandidateEdgeId edge, bool present) {
    const size_t e = static_cast<size_t>(edge);
    const uint64_t bit = uint64_t{1} << (e % kWordBits);
    if (present) {
      present_[e / kWordBits] |= bit;
    } else {
      present_[e / kWordBits] &= ~bit;
    }
  }
  // Whether both ETGs have the same edges present (weights aside): one
  // word-wise compare of the bitmaps.
  bool SamePresence(const Etg& other) const { return present_ == other.present_; }
  // SamePresence plus the same weight overrides. Unlike operator==, it
  // compares ETGs of two HARCs whose universes are equal but distinct.
  bool SameEdges(const Etg& other) const {
    return SamePresence(other) && weight_overrides_ == other.weight_overrides_;
  }

  double weight(CandidateEdgeId edge) const {
    auto it = weight_overrides_.find(edge);
    return it != weight_overrides_.end() ? it->second
                                         : universe_->edge(edge).default_weight;
  }
  void SetWeight(CandidateEdgeId edge, double weight) { weight_overrides_[edge] = weight; }

  int PresentEdgeCount() const;

  // Materializes the ETG as a Digraph whose edge ids equal candidate edge
  // ids (absent candidates are added then logically removed, keeping the id
  // spaces aligned for algorithms that report edges back).
  Digraph ToDigraph() const;

  // Capacities for link-disjoint max-flow (PC3, Table 1): inter-device edges
  // get capacity 1, everything else is effectively uncapacitated. Sized for
  // the digraph returned by ToDigraph().
  std::vector<int> LinkDisjointCapacities() const;

  bool operator==(const Etg& other) const = default;

 private:
  static constexpr size_t kWordBits = 64;

  const EtgUniverse* universe_ = nullptr;
  std::vector<uint64_t> present_;  // Bit e: candidate edge e is present.
  std::unordered_map<CandidateEdgeId, double> weight_overrides_;
};

}  // namespace cpr

#endif  // CPR_SRC_ARC_ETG_H_
