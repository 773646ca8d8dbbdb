// Dynamic ring adversary -- the setting of the only prior dynamic-graph
// dispersion work the paper cites (Agarwalla et al., ICDCN 2018). A
// 1-interval connected dynamic ring is a cycle from which the adversary may
// remove at most one edge per round (removing more would disconnect it).
// This adversary removes the worst edge it can: by default the one whose
// removal maximizes the distance from the largest multiplicity node to the
// nearest empty node, forcing robots the long way around.
#pragma once

#include <string>

#include "dynamic/dynamic_graph.h"
#include "util/rng.h"

namespace dyndisp {

class RingAdversary final : public Adversary {
 public:
  enum class Strategy {
    kRandomEdge,   ///< Remove a uniformly random edge each round.
    kWorstEdge,    ///< Maximize multiplicity-to-empty distance.
    kFixedRing,    ///< Never remove an edge (static ring control).
  };

  /// Throws std::invalid_argument when n < 3 (a ring needs three nodes).
  RingAdversary(std::size_t n, Strategy strategy, std::uint64_t seed = 3);

  std::string name() const override;
  std::size_t node_count() const override { return n_; }
  Graph next_graph(Round r, const Configuration& conf) override;
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;

 private:
  std::size_t n_;
  Strategy strategy_;
  Rng rng_;

  /// The worst-edge strategy's cut in O(n); n_ = keep the full cycle.
  std::size_t worst_edge(const Configuration& conf) const;
  /// Refills `out` with the ring minus edge `missing` (n_ = no removal).
  void emit_ring(std::size_t missing, Graph& out) const;
};

}  // namespace dyndisp
