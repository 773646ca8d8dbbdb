// Tests for the run metrics: packet wire-size accounting and the
// exploration metric (the paper's related problem).
#include <gtest/gtest.h>

#include "core/dispersion.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "sim/sensing.h"
#include "util/bits.h"

namespace dyndisp {
namespace {

TEST(PacketBits, HandComputedExample) {
  // Path 0-1-2-3, robots {1,2}@0, {3}@1, k=3, n=4.
  // id_bits = ceil(log2(4)) = 2, port_bits = ceil(log2(4)) = 2.
  const Graph g = builders::path(4);
  const Configuration conf(4, {0, 0, 1});
  const PacketSet packets = make_all_packets(g, conf, true);
  ASSERT_EQ(packets.size(), 2u);
  // Node 0's packet: sender(2) + count(2) + degree(2) + 2 robot IDs (4)
  //   + one occupied neighbor: port(2) + min(2) + count(2) + 1 ID (2) = 18.
  EXPECT_EQ(packet_bit_size(packets[0], 3, 4), 18u);
  // Node 1's packet: sender + count + degree + 1 ID + one neighbor with
  //   2 IDs: 2+2+2+2 + (2+2+2+4) = 18.
  EXPECT_EQ(packet_bit_size(packets[1], 3, 4), 18u);
}

TEST(PacketBits, NoNeighborhoodIsCheaper) {
  const Graph g = builders::path(4);
  const Configuration conf(4, {0, 0, 1});
  const PacketSet rich = make_all_packets(g, conf, true);
  const PacketSet lean = make_all_packets(g, conf, false);
  EXPECT_LT(packet_bit_size(lean[0], 3, 4), packet_bit_size(rich[0], 3, 4));
}

TEST(PacketBits, EngineAccumulatesAcrossRounds) {
  StaticAdversary adv(builders::path(5));
  EngineOptions opt;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(5, 3), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_GT(r.packet_bits_sent, 0u);
  // At least id+count+degree bits per packet sent.
  EXPECT_GE(r.packet_bits_sent, r.packets_sent * 3);
}

TEST(Exploration, FullWhenKEqualsN) {
  StaticAdversary adv(builders::cycle(8));
  EngineOptions opt;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(8, 8), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.explored_nodes, 8u);
  EXPECT_NE(r.exploration_round, RunResult::kNeverExplored);
  EXPECT_LE(r.exploration_round, r.rounds);
}

TEST(Exploration, PartialWhenKLessThanN) {
  // The paper's remark: dispersion does not imply exploration. From a
  // rooted start on a long path with few robots, most nodes are never
  // visited.
  StaticAdversary adv(builders::path(20));
  EngineOptions opt;
  opt.max_rounds = 1000;
  Engine engine(adv, placement::rooted(20, 4, 0), core::dispersion_factory(),
                opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_LT(r.explored_nodes, 20u);
  EXPECT_EQ(r.exploration_round, RunResult::kNeverExplored);
  EXPECT_GE(r.explored_nodes, 4u);  // at least the k final nodes
}

TEST(Exploration, InitialFullCoverageIsRoundZero) {
  StaticAdversary adv(builders::path(3));
  Configuration conf(3, {0, 1, 2});
  EngineOptions opt;
  Engine engine(adv, conf, core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_EQ(r.exploration_round, 0u);
  EXPECT_EQ(r.explored_nodes, 3u);
}

}  // namespace
}  // namespace dyndisp
