// Tests for the flat PacketArena broadcast storage: the engine's assembly
// must say exactly what the hand-built per-packet InfoPacket records (the
// legacy wire structs) say, record for record and bit for bit; a Byzantine
// lie rewrites only the liar's header; and a warmed-up arena refills with
// far fewer heap allocations than building the per-packet records.
// Engine-level wire traces (every adversary, crash faults, Byzantine liars)
// are pinned by the golden fixtures in test_packet_golden.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/random_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/byzantine.h"
#include "sim/packet_arena.h"
#include "sim/sensing.h"
#include "util/memprobe.h"
#include "util/rng.h"

// BroadcastAllocationsCollapseAtScale counts real allocations: install the
// program-wide operator-new hook (exactly one TU per binary may do this).
DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW

namespace dyndisp {
namespace {

TEST(PacketArena, AssemblyMatchesLegacyRecordForRecord) {
  const Graph g = builders::path(5);
  const Configuration conf(5, {0, 0, 1, 3, 3});
  const std::vector<InfoPacket> reference = make_all_packets(g, conf, true);

  NodeIndex index;
  index.build(conf);
  PacketArena arena;
  std::size_t arena_bits = 0;
  assemble_arena_metered(arena, g, conf, true, index, &arena_bits);

  ASSERT_EQ(arena.headers.size(), reference.size());
  const PacketSet flat{std::make_shared<const PacketArena>(std::move(arena))};
  const PacketSet converted = reference;
  for (std::size_t i = 0; i < converted.size(); ++i) {
    SCOPED_TRACE("packet " + std::to_string(i));
    const InfoPacket& ref = reference[i];
    EXPECT_EQ(flat[i].sender(), ref.sender);
    EXPECT_EQ(flat[i].count(), ref.count);
    EXPECT_EQ(flat[i].degree(), ref.degree);
    ASSERT_EQ(flat[i].robot_count(), ref.robots.size());
    for (std::size_t r = 0; r < ref.robots.size(); ++r)
      EXPECT_EQ(flat[i].robot(r), ref.robots[r]);
    ASSERT_EQ(flat[i].neighbor_count(), ref.occupied_neighbors.size());
    for (std::size_t nb = 0; nb < ref.occupied_neighbors.size(); ++nb) {
      const NeighborInfo& info = ref.occupied_neighbors[nb];
      EXPECT_EQ(flat[i].neighbor(nb).port(), info.port);
      EXPECT_EQ(flat[i].neighbor(nb).min_robot(), info.min_robot);
      EXPECT_EQ(flat[i].neighbor(nb).count(), info.count);
      ASSERT_EQ(flat[i].neighbor(nb).robot_count(), info.robots.size());
      for (std::size_t r = 0; r < info.robots.size(); ++r)
        EXPECT_EQ(flat[i].neighbor(nb).robot(r), info.robots[r]);
    }
    EXPECT_TRUE(flat[i] == converted[i]);
  }
  EXPECT_TRUE(flat == converted);
  EXPECT_EQ(packet_set_digest(flat), packet_set_digest(converted));

  // Metering is part of the wire format: the assembly's total is the sum
  // of the reference packets' sizes.
  const std::size_t k = conf.robot_count(), n = conf.node_count();
  std::size_t reference_bits = 0;
  for (std::size_t i = 0; i < converted.size(); ++i)
    reference_bits += packet_bit_size(converted[i], k, n);
  EXPECT_EQ(arena_bits, reference_bits);
}

TEST(PacketArena, TamperRewritesOnlyLiarPackets) {
  // Hiding multiplicity is a range shrink on the liar's header (the liar
  // heads its own pool slice); every honest packet stays record-identical
  // to the reference.
  const Graph g = builders::path(4);
  const Configuration conf(4, {0, 0, 1});
  const PacketSet honest = make_all_packets(g, conf, true);

  NodeIndex index;
  index.build(conf);
  PacketArena arena;
  assemble_arena_metered(arena, g, conf, true, index, nullptr);
  const ByzantineModel model({1}, ByzantineLie::kHideMultiplicity);
  model.tamper(arena);

  ASSERT_EQ(arena.headers.size(), 2u);
  const PacketView lied(arena, 0);
  EXPECT_EQ(lied.sender(), 1u);
  EXPECT_EQ(lied.count(), 1u);  // lied: really 2
  ASSERT_EQ(lied.robot_count(), 1u);
  EXPECT_EQ(lied.robot(0), 1u);
  EXPECT_TRUE(PacketView(arena, 1) == honest[1]);
}

TEST(PacketArena, BroadcastAllocationsCollapseAtScale) {
  // The mega-row regime: k = 10^5 robots, n = 1.5k, random placement,
  // random adversary. Assemble the same broadcasts into a warmed-up arena
  // and as per-packet InfoPacket records, counting operator-new calls. The
  // records pay one vector per packet plus one per occupied neighbor; the
  // arena refills in place, so its steady-state count is near zero and a
  // >= 5x gap holds with orders of magnitude to spare.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const std::size_t k = 10000;  // sanitizer runs: same claim, smaller bill
#else
  const std::size_t k = 100000;
#endif
  const std::size_t n = k + k / 2, rounds = 3;
  RandomAdversary adv(n, n / 10, 3);
  Rng rng(1234);
  const Configuration conf = placement::uniform_random(n, k, rng);
  NodeIndex index;
  index.build(conf);

  std::vector<Graph> graphs;
  graphs.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r)
    graphs.push_back(adv.next_graph(static_cast<Round>(r), conf));

  // Warm-up grows the arena to the high-water capacity of the instance
  // (assemble_arena_metered clears and refills in place).
  PacketArena arena;
  for (const Graph& g : graphs)
    assemble_arena_metered(arena, g, conf, true, index, nullptr);

  const memprobe::AllocGuard arena_window;
  for (const Graph& g : graphs)
    assemble_arena_metered(arena, g, conf, true, index, nullptr);
  const std::uint64_t arena_allocs = arena_window.delta();

  std::uint64_t packets_assembled = 0;
  const memprobe::AllocGuard record_window;
  for (const Graph& g : graphs)
    packets_assembled += make_all_packets(g, conf, true).size();
  const std::uint64_t record_allocs = record_window.delta();

  RecordProperty("arena_allocs", static_cast<int>(arena_allocs));
  RecordProperty("record_allocs", static_cast<int>(record_allocs));
  std::printf("[          ] %llu packets: %llu record vs %llu arena allocs\n",
              static_cast<unsigned long long>(packets_assembled),
              static_cast<unsigned long long>(record_allocs),
              static_cast<unsigned long long>(arena_allocs));

  // Uniform placement occupies ~n(1 - e^(-k/n)) ~ 0.49n nodes; one packet
  // per occupied node per round.
  ASSERT_GT(packets_assembled, rounds * k / 2);
  EXPECT_GE(record_allocs, packets_assembled);
  EXPECT_GE(record_allocs, 5 * (arena_allocs + 1))
      << "records " << record_allocs << " vs arena " << arena_allocs
      << " allocations over " << rounds << " rounds";
}

}  // namespace
}  // namespace dyndisp
