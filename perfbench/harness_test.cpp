// Self-checks of the benchmark's tracing harness: the decorator and the
// layer replay must observe runs without changing them, and the replay must
// time exactly the work the engine applied.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "analysis/experiment.h"
#include "campaign/registry.h"
#include "core/dispersion.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The engine workload shapes at test scale.
std::vector<EngineWorkload> small_shapes() {
  std::vector<EngineWorkload> out;
  for (const EngineWorkload& w : engine_workloads())
    out.push_back(scaled(w, w.name == "churn-10k" ? 600 : 48));
  return out;
}

/// Fields of RunResult that do not depend on timing.
void expect_same(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(summarize(a).digest(), summarize(b).digest());
  EXPECT_EQ(a.stalled_rounds, b.stalled_rounds);
  EXPECT_EQ(a.max_occupied, b.max_occupied);
  EXPECT_EQ(a.explored_nodes, b.explored_nodes);
  EXPECT_EQ(a.exploration_round, b.exploration_round);
  EXPECT_EQ(a.final_config, b.final_config);
  EXPECT_EQ(a.stats.graph_reuses, b.stats.graph_reuses);
  EXPECT_EQ(a.stats.broadcast_deltas, b.stats.broadcast_deltas);
  EXPECT_EQ(a.stats.broadcasts_reused, b.stats.broadcasts_reused);
}

/// A small version of the sweep spec: every adversary, with and without
/// crash faults.
campaign::CampaignSpec small_sweep(std::uint64_t seed) {
  return campaign::CampaignSpec::parse_json(
      R"({"name": "perfbench-test", "axes": {"algorithms": ["alg4"],
          "adversaries": ["random", "churn", "star-star", "t-interval",
                          "static"],
          "n": [60], "k": [20], "faults": [0, 3]},
          "placement": "rooted", "seeds": 2, "base_seed": )" +
      std::to_string(seed) + "}");
}

TEST(TimedAdversary, DecoratedRunEqualsBareRunOnEveryEngineShape) {
  for (const EngineWorkload& w : small_shapes()) {
    for (const std::uint64_t seed : {1u, 7u}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(w.name + " seed " + std::to_string(seed) + " threads " +
                     std::to_string(threads));
        EngineRun bare = setup_engine(w, seed, threads, false);
        EngineRun decorated = setup_engine(w, seed, threads, true);
        const RunResult a = bare.engine->run();
        const RunResult b = decorated.engine->run();
        ASSERT_TRUE(a.dispersed);
        expect_same(a, b);
        const TimedAdversary::Counters& c = decorated.timed->counters();
        EXPECT_EQ(c.next_graph_calls + c.reuse_hints,
                  static_cast<std::uint64_t>(b.rounds));
      }
    }
  }
}

TEST(TimedAdversary, DecoratedJobEqualsCampaignTrialOnSweepShape) {
  for (const campaign::JobSpec& job : small_sweep(3).expand()) {
    SCOPED_TRACE(job.id());
    TimedAdversary::Counters c;
    const RunResult traced = traced_job(job, nullptr, c);
    const RunResult bare =
        analysis::run_trial(campaign::make_trial_spec(job), job.seed);
    expect_same(bare, traced);
    EXPECT_GT(c.next_graph_calls, 0u);
  }
}

TEST(LayerReplay, MoversMatchTheEnginePlanEveryRound) {
  for (const EngineWorkload& w : small_shapes()) {
    SCOPED_TRACE(w.name);
    LayerReplay replay(w.k);
    EngineRun run = setup_engine(w, 5, 1, true, &replay);
    const RunResult r = run.engine->run();
    const LayerTotals& L = replay.totals();
    EXPECT_EQ(L.rounds, static_cast<std::uint64_t>(r.rounds));
    EXPECT_EQ(L.mover_mismatches, 0u);
    EXPECT_EQ(L.move_mismatches, 0u);
    EXPECT_EQ(L.moves, static_cast<std::uint64_t>(r.total_moves));
    EXPECT_EQ(L.movers, L.moves);
    EXPECT_EQ(L.packets, static_cast<std::uint64_t>(r.packets_sent));
    EXPECT_EQ(L.packet_bits, static_cast<std::uint64_t>(r.packet_bits_sent));
    EXPECT_GT(L.validations, 0u);
  }
}

TEST(LayerReplay, MoversMatchOnEverySweepJobIncludingCrashRounds) {
  for (const campaign::JobSpec& job : small_sweep(4).expand()) {
    SCOPED_TRACE(job.id());
    LayerReplay replay(job.k);
    TimedAdversary::Counters c;
    const RunResult r = traced_job(job, &replay, c);
    EXPECT_TRUE(r.dispersed);
    EXPECT_EQ(replay.totals().mover_mismatches, 0u);
    EXPECT_EQ(replay.totals().move_mismatches, 0u);
  }
}

TEST(LayerReplay, DetectsAPlanThatDiffersFromTheReplayedOne) {
  // Capture one real round, then replay it with one mover removed.
  const EngineWorkload w = scaled(engine_workloads()[0], 300);
  struct Captured {
    Graph graph;
    Configuration before, after;
    MovePlan plan;
    bool have = false;
  } cap;
  EngineOptions opt;
  opt.invariant_checker = [&cap](const RoundSnapshot& s) {
    if (cap.have) return;
    cap = {s.graph, s.before, s.after, s.plan, true};
  };
  const campaign::Registry& registry = campaign::Registry::instance();
  auto adversary = registry.adversary(w.adversary, w.family, w.n, 2);
  Engine engine(*adversary,
                registry.placement(w.placement, w.n, w.k, 3, 2),
                core::dispersion_factory_memoized(), opt);
  (void)engine.run();
  ASSERT_TRUE(cap.have);

  LayerReplay replay(w.k);
  replay.on_round({0, cap.graph, cap.before, cap.after, cap.plan});
  EXPECT_EQ(replay.totals().mover_mismatches, 0u);
  MovePlan tampered = cap.plan;
  const auto mover = std::find_if(tampered.begin(), tampered.end(),
                                  [](Port p) { return p != kInvalidPort; });
  ASSERT_NE(mover, tampered.end());
  *mover = kInvalidPort;
  replay.on_round({1, cap.graph, cap.before, cap.after, tampered});
  EXPECT_EQ(replay.totals().mover_mismatches, 1u);
  EXPECT_EQ(replay.totals().move_mismatches, 1u);
}

TEST(SweepGate, RejectsFailedSlowAndOversizedRecords) {
  const campaign::CampaignSpec spec = small_sweep(1);
  campaign::TrialRecord rec;
  rec.job = spec.expand().front();
  rec.dispersed = true;
  rec.rounds = rec.job.k - 1;
  rec.memory_bits = 5;
  EXPECT_EQ(check_record(rec), "");
  campaign::TrialRecord slow = rec;
  slow.rounds = rec.job.k + 1;
  EXPECT_NE(check_record(slow), "");
  campaign::TrialRecord fat = rec;
  fat.memory_bits = 64;
  EXPECT_NE(check_record(fat), "");
  campaign::TrialRecord threw = rec;
  threw.ok = false;
  EXPECT_NE(check_record(threw), "");
  campaign::TrialRecord stuck = rec;
  stuck.dispersed = false;
  EXPECT_NE(check_record(stuck), "");
}

TEST(SweepGate, CountsTheorem5ExcessOnFaultyRecordsOnly) {
  campaign::TrialRecord rec;
  rec.job = small_sweep(1).expand().front();  // k = 20, fault-free
  rec.dispersed = true;
  rec.rounds = 19;
  EXPECT_FALSE(exceeds_theorem5(rec));
  rec.job.faults = 3;
  rec.crashed = 3;
  rec.rounds = 18;  // the bound, 20 - 3 + 1
  EXPECT_FALSE(exceeds_theorem5(rec));
  rec.rounds = 19;
  EXPECT_TRUE(exceeds_theorem5(rec));
  EXPECT_EQ(check_record(rec), "");  // Theorem 4's k rounds still hold
}

TEST(SweepGate, RecordDigestIgnoresWallTimeOnly) {
  campaign::TrialRecord rec;
  rec.job = small_sweep(1).expand().front();
  rec.rounds = 9;
  campaign::TrialRecord timed = rec;
  timed.wall_ms = 12.5;
  campaign::TrialRecord other = rec;
  other.moves = 1;
  EXPECT_EQ(records_digest({rec}), records_digest({timed}));
  EXPECT_NE(records_digest({rec}), records_digest({other}));
}

TEST(SweepSpec, BenchmarkSeedReplacesBaseSeed) {
  const std::string path = std::string(PERFBENCH_DIR) + "/sweep.json";
  const campaign::CampaignSpec a = load_sweep_spec(path, 1);
  const campaign::CampaignSpec b = load_sweep_spec(path, 42);
  EXPECT_EQ(a.job_count(), 200u);
  EXPECT_EQ(a.base_seed(), 1u);
  EXPECT_EQ(b.base_seed(), 42u);
  for (const campaign::JobSpec& job : a.expand()) EXPECT_LE(job.k, job.n);
}

TEST(SweepSpec, RejectsASpecThatSetsItsOwnSeed) {
  const std::string path = testing::TempDir() + "/perfbench-seeded.json";
  std::ofstream(path) << R"({"name": "seeded", "base_seed": 3})";
  EXPECT_THROW(load_sweep_spec(path, 1), std::runtime_error);
  std::remove(path.c_str());
}

TEST(PeakRss, ResetLowersTheHighWaterMark) {
  {
    std::vector<char> big(256u << 20, 1);
    ASSERT_EQ(big[12345], 1);
  }
  const double before = PeakRss::peak_mb();
  if (!PeakRss::reset()) GTEST_SKIP() << "VmHWM reset unsupported here";
  EXPECT_LT(PeakRss::peak_mb() + 128, before);
}

}  // namespace
}  // namespace perfbench
