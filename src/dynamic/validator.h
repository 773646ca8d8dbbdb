// Validity checks for adversary-emitted graphs: the 1-interval connected
// model demands a fixed vertex set, simple undirected edges, contiguous
// consistent port labels, and connectivity in every round.
#pragma once

#include <string>
#include <vector>

#include "graph/graph.h"

namespace dyndisp {

/// Buffers validate_round_graph retains across calls: per-node marks (the
/// parallel-edge stamps, then BFS visited flags) and the BFS queue. Warm,
/// they make a successful validation allocation-free.
struct RoundGraphScratch {
  std::vector<NodeId> marks;
  std::vector<NodeId> queue;
};

/// Returns an empty string when `g` is a valid round-graph for an n-node
/// 1-interval connected dynamic graph, else a description of the violation.
/// Linear in the graph's size.
std::string validate_round_graph(const Graph& g, std::size_t n,
                                 RoundGraphScratch& scratch);

/// validate_round_graph with throwaway scratch.
std::string validate_round_graph(const Graph& g, std::size_t n);

}  // namespace dyndisp
