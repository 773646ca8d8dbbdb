#include "dynamic/star_star_adversary.h"

#include <cassert>
#include <utility>

namespace dyndisp {

namespace {

/// Swaps the largest-capacity row of a freshly reset `g` onto node `a` and
/// the runner-up onto `b` (rows are empty; only their capacity moves).
/// Recycled rows keep their capacity and only a star's centre row is big,
/// so without this every node that was ever a centre would keep a
/// centre-sized row: O(n) half-edges on each of up to n nodes as the
/// centres move, where one star-star graph needs O(n) in all.
void give_largest_rows(Graph& g, NodeId a, NodeId b) {
  const auto cap = [&](NodeId v) { return g.assembly_row(v).capacity(); };
  NodeId top = 0;
  NodeId runner = kInvalidNode;
  for (NodeId v = 1; v < g.node_count(); ++v) {
    if (cap(v) > cap(top)) {
      runner = top;
      top = v;
    } else if (runner == kInvalidNode || cap(v) > cap(runner)) {
      runner = v;
    }
  }
  std::swap(g.assembly_row(a), g.assembly_row(top));
  if (runner == a) runner = top;  // the first swap moved it
  if (b != a && runner != kInvalidNode)
    std::swap(g.assembly_row(b), g.assembly_row(runner));
}

}  // namespace

StarStarAdversary::StarStarAdversary(std::size_t n, bool shuffle_ports,
                                     std::uint64_t seed)
    : n_(n), shuffle_ports_(shuffle_ports), rng_(seed) {}

void StarStarAdversary::next_graph_into(Round, const Configuration& conf,
                                        Graph& out) {
  assert(conf.node_count() == n_);
  occupied_.clear();
  empty_.clear();
  for (NodeId v = 0; v < n_; ++v)
    (conf.count_at(v) > 0 ? occupied_ : empty_).push_back(v);

  out.reset_assembly(n_);
  if (occupied_.empty() || empty_.empty()) {
    // Degenerate rounds (no robots alive, or every node occupied): any
    // connected graph satisfies the model; a single star does.
    give_largest_rows(out, 0, 0);
    for (NodeId v = 1; v < n_; ++v) out.add_edge(0, v);
  } else {
    const NodeId center_a = occupied_.front();
    const NodeId center_b = empty_.front();
    if (occupied_.size() >= empty_.size())
      give_largest_rows(out, center_a, center_b);
    else
      give_largest_rows(out, center_b, center_a);
    for (const NodeId v : occupied_)
      if (v != center_a) out.add_edge(center_a, v);
    for (const NodeId v : empty_)
      if (v != center_b) out.add_edge(center_b, v);
    out.add_edge(center_a, center_b);
  }
  if (shuffle_ports_) out.shuffle_ports(rng_, shuffle_scratch_);
}

Graph StarStarAdversary::next_graph(Round r, const Configuration& conf) {
  Graph g;
  next_graph_into(r, conf, g);
  return g;
}

}  // namespace dyndisp
