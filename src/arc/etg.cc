#include "arc/etg.h"

#include <bit>

#include "graph/max_flow.h"

namespace cpr {

int Etg::PresentEdgeCount() const {
  int count = 0;
  for (uint64_t word : present_) {
    count += std::popcount(word);
  }
  return count;
}

Digraph Etg::ToDigraph() const {
  Digraph graph(universe_->VertexCount());
  for (int e = 0; e < universe_->EdgeCount(); ++e) {
    const CandidateEdge& candidate = universe_->edge(e);
    EdgeId id = graph.AddEdge(candidate.from, candidate.to, weight(e));
    if (!IsPresent(e)) {
      graph.RemoveEdge(id);
    }
  }
  return graph;
}

std::vector<int> Etg::LinkDisjointCapacities() const {
  std::vector<int> capacity(static_cast<size_t>(universe_->EdgeCount()), kInfiniteCapacity);
  for (int e = 0; e < universe_->EdgeCount(); ++e) {
    if (universe_->edge(e).kind == EtgEdgeKind::kInterDevice) {
      capacity[static_cast<size_t>(e)] = 1;
    }
  }
  return capacity;
}

}  // namespace cpr
