// Pins RingAdversary's O(n) emission against the n-candidate BFS scorer it
// replaced. The reference builds every ring-minus-one-edge with add_edge in
// ascending edge order, scores each cut by the BFS distance from the
// heaviest node to its nearest empty node, and keeps the first strictly
// best cut -- so whole-Graph equality checks the closed form, its
// tie-break, and the port layout together.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamic/ring_adversary.h"
#include "graph/algorithms.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

/// The ring with edges (i, i+1 mod n) added in ascending i, skipping
/// `missing` (n keeps the full cycle).
Graph reference_ring_without(std::size_t n, std::size_t missing) {
  Graph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == missing) continue;
    g.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return g;
}

/// The worst-edge ring by brute force: O(n) BFS runs over O(n) candidates.
Graph reference_worst_ring(std::size_t n, const Configuration& conf) {
  const auto occ = conf.occupancy();
  NodeId heaviest = kInvalidNode;
  std::size_t heaviest_count = 1;
  for (NodeId v = 0; v < n; ++v) {
    if (occ[v] > heaviest_count) {
      heaviest_count = occ[v];
      heaviest = v;
    }
  }
  if (heaviest == kInvalidNode) return reference_ring_without(n, n);

  std::size_t best_edge = n;
  std::size_t best_score = 0;
  for (std::size_t missing = 0; missing < n; ++missing) {
    const auto dist = bfs_distances(reference_ring_without(n, missing), heaviest);
    std::size_t nearest_empty = kUnreachable;
    for (NodeId v = 0; v < n; ++v)
      if (occ[v] == 0) nearest_empty = std::min(nearest_empty, dist[v]);
    if (nearest_empty != kUnreachable && nearest_empty > best_score) {
      best_score = nearest_empty;
      best_edge = missing;
    }
  }
  return reference_ring_without(n, best_edge);
}

/// The closed form's graph, emitted into a recycled Graph of another shape
/// so a stale row or counter would show.
Graph closed_form_ring(std::size_t n, const Configuration& conf) {
  RingAdversary adv(n, RingAdversary::Strategy::kWorstEdge);
  Graph out = builders::star(n + 2);
  adv.next_graph_into(0, conf, out);
  return out;
}

void expect_matches_reference(std::size_t n, const Configuration& conf) {
  const Graph want = reference_worst_ring(n, conf);
  const Graph got = closed_form_ring(n, conf);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.fingerprint(), want.fingerprint());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_TRUE(got.validate().empty()) << got.validate();
}

/// The edge (i, i+1 mod n) the emitted ring lacks; n for the full cycle.
std::size_t missing_edge(const Graph& g) {
  const std::size_t n = g.node_count();
  for (std::size_t i = 0; i < n; ++i)
    if (!g.has_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n)))
      return i;
  return n;
}

TEST(RingWorstEdge, MatchesBfsReferenceOnRandomConfigurations) {
  Rng rng(20200601);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 3 + rng.below(62);  // [3, 64]
    const std::size_t k = 1 + rng.below(n);
    // Positions drawn from a window of the ring cluster robots, so most
    // configurations have both multiplicity nodes and empty nodes.
    const std::size_t window = 1 + rng.below(n);
    const std::size_t offset = rng.below(n);
    std::vector<NodeId> pos(k);
    for (auto& p : pos)
      p = static_cast<NodeId>((offset + rng.below(window)) % n);
    Configuration conf = placement::explicit_positions(n, pos);
    if (rng.below(4) == 0) {
      for (RobotId id = 1; id <= k; ++id)
        if (rng.below(3) == 0) conf.kill(id);
    }
    expect_matches_reference(n, conf);
    if (HasFailure()) {
      ADD_FAILURE() << "trial " << trial << " n=" << n << " k=" << k;
      return;
    }
  }
}

TEST(RingWorstEdge, SingleEmptyNode) {
  // Node 5 is the only empty node: a = 5 clockwise, b = 1 counter-clockwise,
  // so the cut is edge 5 = (5, 0), forcing the five-hop way round.
  const Configuration conf = placement::explicit_positions(6, {0, 0, 1, 2, 3, 4});
  expect_matches_reference(6, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(6, conf)), 5u);
}

TEST(RingWorstEdge, TiedDistancesCutEdgeZero) {
  // Heaviest node 3, empties at 1 and 5: a == b == 2, every cut ties.
  const Configuration conf = placement::explicit_positions(7, {3, 3, 2, 4});
  expect_matches_reference(7, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(7, conf)), 0u);
}

TEST(RingWorstEdge, HeaviestAtNodeZero) {
  // a = 3 > b = 1: the counter-clockwise gap is edge n-1 alone.
  const Configuration conf = placement::explicit_positions(6, {0, 0, 1, 2});
  expect_matches_reference(6, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(6, conf)), 5u);
}

TEST(RingWorstEdge, HeaviestAtLastNodeWrapsToEdgeZero) {
  // h = 5, a = 2 < b = 3: the clockwise gap is edges {5, 0}, which wraps
  // past node 0, so its lowest index is 0.
  const Configuration conf =
      placement::explicit_positions(6, {5, 5, 0, 4, 3});
  expect_matches_reference(6, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(6, conf)), 0u);
}

TEST(RingWorstEdge, CounterClockwiseGapWrapsToEdgeZero) {
  // h = 1, a = 3 > b = 2: the counter-clockwise gap is edges {7, 0}.
  const Configuration conf =
      placement::explicit_positions(8, {1, 1, 2, 3, 0});
  expect_matches_reference(8, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(8, conf)), 0u);
}

TEST(RingWorstEdge, DispersedKeepsFullCycle) {
  const Configuration conf = placement::explicit_positions(6, {0, 2, 4});
  expect_matches_reference(6, conf);
  EXPECT_EQ(closed_form_ring(6, conf).edge_count(), 6u);
}

TEST(RingWorstEdge, KEqualsN) {
  // Rooted k == n, and random k == n configurations (every multiplicity
  // node forces an empty one).
  expect_matches_reference(9, placement::rooted(9, 9));
  Rng rng(12);
  for (std::size_t n = 3; n <= 40; ++n) {
    expect_matches_reference(n, placement::uniform_random(n, n, rng));
  }
}

TEST(RingWorstEdge, CrashedRobotsLeaveTheirNodesEmpty) {
  // Alive occupancy only: crashing robot 3 empties node 1, so b drops from
  // 2 to 1 and the cut moves from edge 0 (the a == b tie) to edge 1.
  Configuration conf = placement::explicit_positions(6, {2, 2, 1, 3});
  expect_matches_reference(6, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(6, conf)), 0u);
  conf.kill(3);
  expect_matches_reference(6, conf);
  EXPECT_EQ(missing_edge(closed_form_ring(6, conf)), 1u);
  // Crashes that leave no multiplicity node keep the full cycle.
  conf.kill(1);
  expect_matches_reference(6, conf);
  EXPECT_EQ(closed_form_ring(6, conf).edge_count(), 6u);
}

TEST(RingWorstEdge, NextGraphAndNextGraphIntoAgree) {
  constexpr std::size_t n = 17;
  for (const auto strategy : {RingAdversary::Strategy::kRandomEdge,
                              RingAdversary::Strategy::kWorstEdge,
                              RingAdversary::Strategy::kFixedRing}) {
    RingAdversary fresh(n, strategy, 99);
    RingAdversary into(n, strategy, 99);
    Rng rng(5);
    Graph recycled;
    for (Round r = 0; r < 50; ++r) {
      const Configuration conf = placement::uniform_random(n, 11, rng);
      const Graph want = fresh.next_graph(r, conf);
      into.next_graph_into(r, conf, recycled);
      ASSERT_EQ(recycled, want) << "round " << r;
      ASSERT_EQ(recycled.fingerprint(), want.fingerprint()) << "round " << r;
    }
  }
}

TEST(RingWorstEdge, RejectsRingsBelowThreeNodes) {
  EXPECT_THROW(RingAdversary(2, RingAdversary::Strategy::kWorstEdge),
               std::invalid_argument);
}

}  // namespace
}  // namespace dyndisp
