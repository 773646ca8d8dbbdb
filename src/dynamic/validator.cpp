#include "dynamic/validator.h"

#include <sstream>

namespace dyndisp {

namespace {

/// BFS reachability from node 0 over retained buffers.
bool connected(const Graph& g, RoundGraphScratch& scratch) {
  const std::size_t n = g.node_count();
  if (n <= 1) return true;
  std::vector<NodeId>& seen = scratch.marks;
  std::vector<NodeId>& queue = scratch.queue;
  constexpr NodeId kSeen = 0;
  seen.assign(n, kInvalidNode);
  queue.resize(n);  // every node is enqueued at most once
  std::size_t tail = 0;
  queue[tail++] = 0;
  seen[0] = kSeen;
  for (std::size_t head = 0; head < tail; ++head) {
    for (const HalfEdge& he : g.incident(queue[head])) {
      if (seen[he.to] == kSeen) continue;
      seen[he.to] = kSeen;
      queue[tail++] = he.to;
    }
  }
  return tail == n;
}

}  // namespace

std::string validate_round_graph(const Graph& g, std::size_t n,
                                 RoundGraphScratch& scratch) {
  if (g.node_count() != n) {
    std::ostringstream os;
    os << "vertex set changed: expected " << n << " nodes, got "
       << g.node_count();
    return os.str();
  }
  if (std::string err = g.validate(&scratch.marks); !err.empty()) return err;
  if (!connected(g, scratch)) return "graph is not connected";
  return {};
}

std::string validate_round_graph(const Graph& g, std::size_t n) {
  RoundGraphScratch scratch;
  return validate_round_graph(g, n, scratch);
}

}  // namespace dyndisp
