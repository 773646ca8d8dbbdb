#include "dynamic/ring_adversary.h"

#include <stdexcept>

#include "util/contract.h"

namespace dyndisp {

RingAdversary::RingAdversary(std::size_t n, Strategy strategy,
                             std::uint64_t seed)
    : n_(n), strategy_(strategy), rng_(seed) {
  if (n < 3)
    throw std::invalid_argument("ring adversary needs n >= 3; got n=" +
                                std::to_string(n));
}

std::string RingAdversary::name() const {
  switch (strategy_) {
    case Strategy::kRandomEdge:
      return "dynamic-ring(random-edge)";
    case Strategy::kWorstEdge:
      return "dynamic-ring(worst-edge)";
    case Strategy::kFixedRing:
      return "static-ring";
  }
  return "dynamic-ring";
}

void RingAdversary::emit_ring(std::size_t missing, Graph& out) const {
  // Ring edge e joins e and e+1 (mod n). Ports follow the order in which
  // add_edge(e, e+1) for ascending e would assign them: node v's incident
  // edges, ascending, are {v-1, v} for v >= 1 and {0, n-1} for node 0.
  const std::size_t n = n_;
  const auto lo = [](std::size_t v) { return v == 0 ? 0 : v - 1; };
  const auto hi = [n](std::size_t v) { return v == 0 ? n - 1 : v; };
  const auto port = [&](std::size_t v, std::size_t e) -> Port {
    return e == hi(v) && lo(v) != missing ? 2 : 1;
  };
  out.reset_assembly(n);
  std::uint64_t fp = 0;
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<HalfEdge>& row = out.assembly_row(static_cast<NodeId>(v));
    row.resize(2 - (lo(v) == missing) - (hi(v) == missing));
    for (const std::size_t e : {lo(v), hi(v)}) {
      if (e == missing) continue;
      const std::size_t u = e == v ? (v + 1) % n : e;
      const Port pv = port(v, e);
      const Port pu = port(u, e);
      row[pv - 1] = HalfEdge{static_cast<NodeId>(u), pu};
      if (e == v)
        fp ^= fp_edge_term(static_cast<NodeId>(v), static_cast<NodeId>(u),
                           pv, pu);
    }
  }
  out.commit_assembly(missing < n ? n - 1 : n, fp);
}

std::size_t RingAdversary::worst_edge(const Configuration& conf) const {
  // Closed form of "score every cut by the hop distance from the heaviest
  // node h to its nearest empty node on the remaining path; the first
  // strictly best cut wins" (docs/PERFORMANCE.md, "Adversary cost"). With
  // a the clockwise and b the counter-clockwise distance from h to the
  // first empty node, a cut in the clockwise gap (edges h..h+a-1) scores
  // b, one in the counter-clockwise gap (edges h-b..h-1) scores a, and any
  // other cut scores min(a, b).
  if (conf.is_dispersed()) return n_;
  const std::size_t n = n_;
  std::size_t h = 0;
  std::size_t heaviest = 1;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t c = conf.count_at(static_cast<NodeId>(v));
    if (c > heaviest) {
      heaviest = c;
      h = v;
    }
  }
  const auto empty = [&](std::size_t v) {
    return conf.count_at(static_cast<NodeId>(v % n)) == 0;
  };
  std::size_t a = 1;
  while (a < n && !empty(h + a)) ++a;
  if (a == n) return n_;  // no empty node: every cut scores unreachable
  std::size_t b = 1;
  while (!empty(h + n - b)) ++b;
  if (a == b) return 0;  // every cut scores a: the first edge wins
  // The lowest-indexed edge of the winning gap; a gap that wraps past
  // node 0 contains edge 0.
  const std::size_t first = a > b ? (h + n - b) % n : h;
  const std::size_t len = a > b ? b : a;
  return first + len > n ? 0 : first;
}

DYNDISP_HOT
void RingAdversary::next_graph_into(Round, const Configuration& conf,
                                    Graph& out) {
  std::size_t missing = n_;
  switch (strategy_) {
    case Strategy::kFixedRing:
      break;
    case Strategy::kRandomEdge:
      missing = rng_.below(n_);
      break;
    case Strategy::kWorstEdge:
      missing = worst_edge(conf);
      break;
  }
  emit_ring(missing, out);
}

Graph RingAdversary::next_graph(Round r, const Configuration& conf) {
  Graph g;
  next_graph_into(r, conf, g);
  return g;
}

}  // namespace dyndisp
