// Tests for the Byzantine exploration (paper future-work #3, negative
// result): lying packets deadlock or degrade Algorithm 4 in measurable,
// specific ways -- and honest runs are bit-identical with the Byzantine
// machinery wired in but no liars configured.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "dynamic/static_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/byzantine.h"
#include "sim/engine.h"
#include "sim/packet_arena.h"
#include "sim/sensing.h"

namespace dyndisp {
namespace {

EngineOptions options_with(std::shared_ptr<const ByzantineModel> model,
                           Round horizon) {
  EngineOptions opt;
  opt.max_rounds = horizon;
  opt.record_progress = true;
  opt.byzantine = std::move(model);
  return opt;
}

TEST(Byzantine, NoLiarsIsExactlyHonest) {
  const std::size_t n = 14, k = 10;
  RandomAdversary adv1(n, 5, 9), adv2(n, 5, 9);
  Engine honest(adv1, placement::rooted(n, k), core::dispersion_factory(),
                options_with(nullptr, 10 * k));
  Engine wired(adv2, placement::rooted(n, k), core::dispersion_factory(),
               options_with(std::make_shared<ByzantineModel>(
                                std::set<RobotId>{},
                                ByzantineLie::kHideMultiplicity),
                            10 * k));
  const RunResult a = honest.run(), b = wired.run();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.final_config == b.final_config);
}

TEST(Byzantine, TamperRewritesOnlyLiarPackets) {
  // Every lie, two liars: each liar's packet changes exactly in the field
  // its lie names, and every honest packet stays record-identical. The
  // erratic-moves lie is movement-only and leaves the broadcast alone.
  // (PacketArena.TamperRewritesOnlyLiarPackets pins the range shrink of a
  // single hidden multiplicity.)
  const Graph g = builders::path(6);
  const Configuration conf(6, {0, 0, 2, 2, 2, 4});  // senders 1, 3, 6
  const PacketSet honest = make_all_packets(g, conf, true);
  ASSERT_EQ(honest.size(), 3u);
  const std::set<RobotId> liars{1, 6};
  for (const ByzantineLie lie :
       {ByzantineLie::kHideMultiplicity, ByzantineLie::kHideEmptyNeighbors,
        ByzantineLie::kErraticMoves}) {
    const ByzantineModel model(liars, lie);
    SCOPED_TRACE(model.lie_name());
    NodeIndex index;
    index.build(conf);
    PacketArena arena;
    assemble_arena_metered(arena, g, conf, true, index, nullptr);
    model.tamper(arena);
    ASSERT_EQ(arena.headers.size(), honest.size());
    for (std::size_t i = 0; i < honest.size(); ++i) {
      const PacketView got(arena, i), want = honest[i];
      SCOPED_TRACE("sender " + std::to_string(want.sender()));
      if (!liars.count(want.sender()) || lie == ByzantineLie::kErraticMoves) {
        EXPECT_TRUE(got == want);
        continue;
      }
      EXPECT_EQ(got.sender(), want.sender());
      ASSERT_EQ(got.neighbor_count(), want.neighbor_count());
      if (lie == ByzantineLie::kHideMultiplicity) {
        EXPECT_EQ(got.count(), 1u);
        ASSERT_EQ(got.robot_count(), 1u);
        EXPECT_EQ(got.robot(0), want.sender());
        EXPECT_EQ(got.degree(), want.degree());
      } else {
        EXPECT_EQ(got.count(), want.count());
        EXPECT_EQ(got.robot_count(), want.robot_count());
        EXPECT_EQ(got.degree(), want.neighbor_count());  // "no empty ports"
      }
    }
  }
}

TEST(Byzantine, HideMultiplicityDeadlocksItsNode) {
  // Robot 1 (the broadcaster of the rooted pile) lies "I am alone": the
  // node never looks like a multiplicity node, no spanning tree is ever
  // rooted there, and nobody ever leaves. A single liar defeats the
  // protocol outright -- the negative result.
  const std::size_t n = 10, k = 6;
  StaticAdversary adv(builders::path(n));
  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{1}, ByzantineLie::kHideMultiplicity);
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                options_with(model, 100 * k));
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.max_occupied, 1u);  // literally nothing ever moved
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Byzantine, HideMultiplicityOffTheBroadcasterIsHarmless) {
  // A liar that is not its node's smallest robot never broadcasts, so the
  // same lie has no effect: dispersion completes within Theorem 4's bound.
  const std::size_t n = 10, k = 6;
  StaticAdversary adv(builders::path(n));
  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{k}, ByzantineLie::kHideMultiplicity);
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                options_with(model, 10 * k));
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_LE(r.rounds, k);
}

TEST(Byzantine, HideEmptyNeighborsStallsNarrowFrontiers) {
  // Path graph, robots piled behind the liar: the only LeafNodeSet
  // candidate is the liar's node, and it claims to have no empty neighbor.
  // Algorithm 3 returns no paths; the component freezes (the graceful
  // degradation path in plan_component).
  const std::size_t n = 8;
  StaticAdversary adv(builders::path(n));
  // Robots {2,3}@0 and liar 1@1: component = nodes 0,1; node 1 is the only
  // node bordering an empty node (node 2), and robot 1 is its broadcaster.
  const Configuration conf = placement::explicit_positions(n, {1, 0, 0});
  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{1}, ByzantineLie::kHideEmptyNeighbors);
  Engine engine(adv, conf, core::dispersion_factory(),
                options_with(model, 200));
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.total_moves, 0u);
}

TEST(Byzantine, ErraticMoverCannotStopOthersButBreaksItself) {
  // The erratic liar keeps wandering: the honest robots still spread out
  // (plans adapt every round), but dispersion as a stable configuration
  // can be broken indefinitely because the liar keeps crashing into
  // settled robots. We assert the honest robots' resilience -- max
  // occupied reaches at least k-1 -- without requiring termination.
  const std::size_t n = 14, k = 8;
  RandomAdversary adv(n, 5, 4);
  auto model = std::make_shared<ByzantineModel>(std::set<RobotId>{k},
                                                ByzantineLie::kErraticMoves);
  Engine engine(adv, placement::rooted(n, k), core::dispersion_factory(),
                options_with(model, 50 * k));
  const RunResult r = engine.run();
  EXPECT_GE(r.max_occupied, k - 1);
}

TEST(Byzantine, CrashToleranceIsNotByzantineTolerance) {
  // Contrast fixture for EXPERIMENTS.md: the same scenario where a CRASH
  // of robot 1 is tolerated perfectly (Theorem 5) deadlocks under a LIE by
  // robot 1.
  const std::size_t n = 10, k = 6;
  StaticAdversary adv1(builders::path(n)), adv2(builders::path(n));

  Engine crash_engine(adv1, placement::rooted(n, k),
                      core::dispersion_factory(), options_with(nullptr, 100),
                      FaultSchedule({{0, 1, CrashPhase::kBeforeCommunicate}}));
  const RunResult crashed = crash_engine.run();
  EXPECT_TRUE(crashed.dispersed);

  auto model = std::make_shared<ByzantineModel>(
      std::set<RobotId>{1}, ByzantineLie::kHideMultiplicity);
  Engine liar_engine(adv2, placement::rooted(n, k),
                     core::dispersion_factory(), options_with(model, 100));
  const RunResult lied = liar_engine.run();
  EXPECT_FALSE(lied.dispersed);
}

}  // namespace
}  // namespace dyndisp
