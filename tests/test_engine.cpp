// Tests for engine mechanics: model-requirement enforcement, arrival ports,
// state exchange, round accounting, invalid-port rejection, traces, the
// adversary plan probe, and the round loop's cross-round reuse.
#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/static_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "graph/builders.h"
#include "robots/placement.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace dyndisp {
namespace {

// A probe-ready scripted robot for engine mechanics tests: takes the exit
// ports it was constructed with, one per round, then stays.
class ScriptedRobot final : public RobotAlgorithm {
 public:
  ScriptedRobot(RobotId id, std::vector<Port> moves)
      : id_(id), moves_(std::move(moves)) {}

  std::unique_ptr<RobotAlgorithm> clone() const override {
    return std::make_unique<ScriptedRobot>(*this);
  }
  Port step(const RobotView& view) override {
    last_view_degree_ = view.degree;
    last_arrival_ = view.arrival_port;
    const std::size_t i = next_++;
    return i < moves_.size() ? moves_[i] : kInvalidPort;
  }
  void serialize(BitWriter& out) const override {
    out.write(next_, 16);  // the cursor is the persistent state
  }
  std::string name() const override { return "scripted"; }
  bool requires_global_comm() const override { return false; }
  bool requires_neighborhood() const override { return false; }

  Port last_arrival() const { return last_arrival_; }

 private:
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): test probe identity,
  // fixed at construction; the metered state is only the cursor.
  RobotId id_;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): the immutable test
  // script (program, not state); the cursor next_ is what is metered.
  std::vector<Port> moves_;
  std::size_t next_ = 0;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): engine-observation
  // scratch read back by assertions, not robot memory.
  std::size_t last_view_degree_ = 0;
  // NOLINTNEXTLINE-dyndisp(metering-serialize-fields): engine-observation
  // scratch read back by assertions, not robot memory.
  Port last_arrival_ = kInvalidPort;
};

TEST(Engine, RejectsNodeCountMismatch) {
  StaticAdversary adv(builders::path(4));
  EXPECT_THROW(Engine(adv, placement::rooted(5, 2), core::dispersion_factory(),
                      EngineOptions{}),
               std::invalid_argument);
}

TEST(Engine, EnforcesGlobalCommRequirement) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.comm = CommModel::kLocal;
  EXPECT_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt),
      std::invalid_argument);
}

TEST(Engine, EnforcesNeighborhoodRequirement) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.neighborhood_knowledge = false;
  EXPECT_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt),
      std::invalid_argument);
}

TEST(Engine, AllowModelMismatchOverrides) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.neighborhood_knowledge = false;
  opt.allow_model_mismatch = true;
  opt.max_rounds = 1;
  // Construction succeeds; the algorithm itself asserts on mismatched views,
  // so do not run it -- construction is what this test covers.
  EXPECT_NO_THROW(
      Engine(adv, placement::rooted(4, 2), core::dispersion_factory(), opt));
}

TEST(Engine, RejectsInvalidPortFromRobot) {
  StaticAdversary adv(builders::path(3));
  const AlgorithmFactory factory = [](RobotId id, std::size_t) {
    return std::make_unique<ScriptedRobot>(id, std::vector<Port>{7});
  };
  EngineOptions opt;
  opt.max_rounds = 3;
  Engine engine(adv, placement::rooted(3, 2), factory, opt);
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Engine, ArrivalPortReportedNextRound) {
  // Path 0-1-2: robot 3 moves 0->1 in round 0 (via port 1); robots 1 and 2
  // keep a multiplicity at node 0, so round 1 still runs and robot 3
  // observes the port of node 1 through which it entered (port 1, the edge
  // back to node 0).
  StaticAdversary adv(builders::path(3));
  std::vector<ScriptedRobot*> instances;
  const AlgorithmFactory factory = [&](RobotId id, std::size_t) {
    auto robot = std::make_unique<ScriptedRobot>(
        id, id == 3 ? std::vector<Port>{1} : std::vector<Port>{});
    instances.push_back(robot.get());
    return robot;
  };
  EngineOptions opt;
  opt.max_rounds = 2;
  Engine engine(adv, placement::rooted(3, 3), factory, opt);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);  // robots 1,2 never separate (by script)
  ASSERT_EQ(instances.size(), 3u);
  EXPECT_EQ(instances[2]->last_arrival(), 1u);
}

TEST(Engine, TraceRecordsMovesAndProgress) {
  StaticAdversary adv(builders::path(4));
  EngineOptions opt;
  opt.record_trace = true;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(4, 3), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  ASSERT_EQ(r.trace.size(), r.rounds);
  std::size_t total_new = 0;
  for (const auto& rec : r.trace.records()) {
    EXPECT_EQ(rec.graph.node_count(), 4u);
    total_new += rec.newly_occupied;
    EXPECT_GE(rec.newly_occupied, 1u);  // Lemma 7 visible in the trace
  }
  EXPECT_EQ(total_new, 3u - 1u);  // from 1 occupied to 3 occupied
  EXPECT_FALSE(r.trace.describe_round(0).empty());
}

TEST(Engine, PacketsCountedPerOccupiedNode) {
  StaticAdversary adv(builders::path(5));
  EngineOptions opt;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(5, 3), core::dispersion_factory(), opt);
  const RunResult r = engine.run();
  // Round 0: 1 occupied node -> 1 packet; round 1: 2 -> 2 packets.
  EXPECT_EQ(r.packets_sent, 1u + 2u);
}

TEST(Engine, MaxRoundsStopsNonTerminatingRun) {
  // A robot that never moves on a multiplicity node never disperses.
  StaticAdversary adv(builders::path(3));
  const AlgorithmFactory factory = [](RobotId id, std::size_t) {
    return std::make_unique<ScriptedRobot>(id, std::vector<Port>{});
  };
  EngineOptions opt;
  opt.max_rounds = 17;
  Engine engine(adv, placement::rooted(3, 2), factory, opt);
  const RunResult r = engine.run();
  EXPECT_FALSE(r.dispersed);
  EXPECT_EQ(r.rounds, 17u);
  EXPECT_EQ(r.stalled_rounds, 17u);
}

TEST(Engine, StalledRoundsZeroForAlgorithmFour) {
  RandomAdversary adv(10, 4, 3);
  EngineOptions opt;
  opt.max_rounds = 100;
  Engine engine(adv, placement::rooted(10, 8), core::dispersion_factory(),
                opt);
  const RunResult r = engine.run();
  EXPECT_TRUE(r.dispersed);
  EXPECT_EQ(r.stalled_rounds, 0u);
}

TEST(Engine, AlgorithmNameExposed) {
  StaticAdversary adv(builders::path(3));
  Engine engine(adv, placement::rooted(3, 2), core::dispersion_factory(),
                EngineOptions{});
  EXPECT_EQ(engine.algorithm_name(), "Dispersion_Dynamic(Alg4)");
}

// ---- experiment harness ----

RunResult run_replay(Adversary& adv, std::size_t n, std::size_t k) {
  EngineOptions opt;
  opt.max_rounds = 20 * k;
  Engine engine(adv, placement::rooted(n, k),
                core::dispersion_factory_memoized(), opt);
  return engine.run();
}

TEST(Engine, ReplayHeavyAdversariesReuseWork) {
  // Adversaries that replay graphs across rounds: the round loop skips
  // next_graph on same_as_last promises, republishes or delta-assembles the
  // broadcast, and skips re-validating an unchanged graph. (That every
  // reused broadcast equals a fresh assembly is the broadcast-reference
  // oracle's job; the golden packet traces pin the wire bytes.)
  const std::size_t n = 30, k = 20;
  {
    StaticAdversary adv(builders::torus(5, 6));
    const RunResult r = run_replay(adv, n, k);
    EXPECT_TRUE(r.dispersed);
    EXPECT_GT(r.stats.graph_reuses, 0u);
    EXPECT_GT(r.stats.broadcasts_reused + r.stats.broadcast_deltas, 0u);
    EXPECT_GT(r.stats.validations_skipped, 0u);
    // The retired cross-round plan cache's counters stay 0 by construction.
    EXPECT_EQ(r.stats.sc_exact_hits + r.stats.sc_delta_rounds, 0u);
  }
  {
    TIntervalAdversary adv(std::make_unique<RandomAdversary>(n, n / 4, 3), 5);
    const RunResult r = run_replay(adv, n, k);
    EXPECT_GT(r.stats.graph_reuses, 0u);
    EXPECT_GT(r.stats.broadcasts_reused + r.stats.broadcast_deltas, 0u);
    EXPECT_GT(r.stats.validations_skipped, 0u);
  }
  {
    Rng rng(9);
    std::vector<Graph> script;
    for (int i = 0; i < 3; ++i)
      script.push_back(builders::random_connected(n, n / 2, rng));
    ScriptedAdversary adv(script);  // repeats its last graph forever
    const RunResult r = run_replay(adv, n, k);
    EXPECT_GT(r.stats.graph_reuses, 0u);
    EXPECT_GT(r.stats.broadcasts_reused + r.stats.broadcast_deltas, 0u);
    EXPECT_GT(r.stats.validations_skipped, 0u);
  }
}

TEST(Experiment, SweepAggregatesTrials) {
  analysis::TrialSpec spec;
  spec.adversary = [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RandomAdversary>(12, 4, seed);
  };
  spec.placement = [](std::uint64_t seed) {
    Rng rng(seed);
    return placement::uniform_random(12, 9, rng);
  };
  spec.algorithm = core::dispersion_factory();
  spec.options.max_rounds = 1000;
  const analysis::SweepSummary s = analysis::run_sweep(spec, 10);
  EXPECT_EQ(s.trials, 10u);
  EXPECT_EQ(s.dispersed_count, 10u);
  EXPECT_EQ(s.rounds.count(), 10u);
  EXPECT_LE(s.rounds.max(), 9.0);  // k = 9: Theorem 4
}

TEST(Experiment, TrialsAreSeedDeterministic) {
  analysis::TrialSpec spec;
  spec.adversary = [](std::uint64_t seed) -> std::unique_ptr<Adversary> {
    return std::make_unique<RandomAdversary>(10, 3, seed);
  };
  spec.placement = [](std::uint64_t seed) {
    Rng rng(seed);
    return placement::uniform_random(10, 7, rng);
  };
  spec.algorithm = core::dispersion_factory();
  spec.options.max_rounds = 1000;
  const RunResult a = analysis::run_trial(spec, 42);
  const RunResult b = analysis::run_trial(spec, 42);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_TRUE(a.final_config == b.final_config);
}

}  // namespace
}  // namespace dyndisp
