// Golden packet-trace fixtures: the wire format is an observable.
//
// EngineOptions::packet_observer reports, for every executed global-comm
// round, the broadcast's (packet count, total wire bits, packet digest).
// This file replays a set of pinned tuples against checked-in per-round
// traces (tests/golden/):
//   * every registered adversary under both comm models -- global +
//     1-neighborhood runs Algorithm 4 (memoized), local runs DFS
//     dispersion;
//   * one crash-fault tuple with crashes in both CCM phases;
//   * one Byzantine-liar tuple (the observer sees the tampered broadcast).
// The fixtures were generated while the engine still carried legacy twins
// (a vector packet backend, an allocate-per-round view path, and a
// re-plan-every-round planner), with every twin rendering the identical
// trace; they are the reference those twins used to be.
// The totals line of every fixture pins the run digest, so a local-comm
// fixture (no per-round lines by contract) still pins the whole run.
//
// Regenerating (only when the wire format changes ON PURPOSE):
//   DYNDISP_REGEN_GOLDEN=1 ./build/tests/test_packet_golden
// rewrites the fixtures in the source tree; the diff is the review
// artifact.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/dfs_dispersion.h"
#include "campaign/registry.h"
#include "check/trial.h"
#include "core/dispersion.h"
#include "robots/placement.h"
#include "sim/byzantine.h"
#include "sim/engine.h"
#include "sim/fault.h"
#include "sim/packet_arena.h"

#ifndef DYNDISP_GOLDEN_DIR
#error "DYNDISP_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace dyndisp {
namespace {

constexpr std::size_t kN = 36, kK = 24;
constexpr std::uint64_t kSeed = 7;
constexpr Round kMaxRounds = 200;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// One pinned tuple: the fixture file plus everything needed to re-run it.
/// Every tuple runs a registry adversary (family "random", seed 7) from a
/// rooted k=24 placement with max_rounds=200.
struct GoldenTuple {
  std::string file;
  std::string label;
  std::string adversary;
  CommModel comm = CommModel::kGlobal;
  bool neighborhood = true;
  AlgorithmFactory factory;
  std::vector<CrashEvent> crashes;
  std::shared_ptr<const ByzantineModel> byzantine;
};

GoldenTuple global_tuple(const std::string& adversary) {
  GoldenTuple t;
  t.file = "packets_global_alg4_" + adversary + ".txt";
  t.label = "global+nbhd (Algorithm 4, memoized), adversary " + adversary;
  t.adversary = adversary;
  t.factory = core::dispersion_factory_memoized();
  return t;
}

GoldenTuple local_tuple(const std::string& adversary) {
  GoldenTuple t;
  t.file = "packets_local_dfs_" + adversary + ".txt";
  t.label = "local-only (DFS dispersion), adversary " + adversary;
  t.adversary = adversary;
  t.comm = CommModel::kLocal;
  t.neighborhood = false;
  t.factory = baselines::dfs_dispersion_factory();
  return t;
}

std::vector<GoldenTuple> all_tuples() {
  std::vector<GoldenTuple> tuples;
  for (const std::string& adversary :
       campaign::Registry::instance().adversary_names()) {
    tuples.push_back(global_tuple(adversary));
    tuples.push_back(local_tuple(adversary));
  }
  // Crashes in both phases, including a round-0 crash of the broadcaster
  // (robot 1 sends the rooted node's packet) after it communicated.
  GoldenTuple crash = global_tuple("random");
  crash.file = "packets_global_alg4_random_crash.txt";
  crash.label += ", crash faults in both phases";
  crash.crashes = {{0, 1, CrashPhase::kAfterCommunicate},
                   {2, 5, CrashPhase::kBeforeCommunicate},
                   {3, 9, CrashPhase::kAfterCommunicate},
                   {5, 17, CrashPhase::kBeforeCommunicate}};
  tuples.push_back(crash);
  // Liars 2 and 3 claim every neighbor is occupied whenever they broadcast
  // for their node; the observer sees the tampered broadcast, so the
  // fixture pins the tamper's output, and dispersion still completes.
  GoldenTuple liar = global_tuple("random");
  liar.file = "packets_global_alg4_random_byzantine.txt";
  liar.label += ", Byzantine liars {2,3} hiding empty neighbors";
  liar.byzantine = std::make_shared<ByzantineModel>(
      std::set<RobotId>{2, 3}, ByzantineLie::kHideEmptyNeighbors);
  tuples.push_back(liar);
  return tuples;
}

/// Runs the tuple with the observer recording and renders the trace: one
/// "round R packets P bits B digest X" line per executed global-comm round
/// and a final "total ..." line covering the whole run.
std::string render_trace(const GoldenTuple& t) {
  std::unique_ptr<Adversary> adv = campaign::Registry::instance().adversary(
      t.adversary, "random", kN, kSeed);
  std::ostringstream os;
  EngineOptions opt;
  opt.comm = t.comm;
  opt.neighborhood_knowledge = t.neighborhood;
  opt.max_rounds = kMaxRounds;
  opt.byzantine = t.byzantine;
  opt.packet_observer = [&os](Round r, std::size_t packets, std::size_t bits,
                              std::uint64_t digest) {
    os << "round " << r << " packets " << packets << " bits " << bits
       << " digest " << hex64(digest) << '\n';
  };
  Engine engine(*adv, placement::rooted(adv->node_count(), kK), t.factory,
                opt, FaultSchedule(t.crashes));
  const RunResult res = engine.run();
  os << "total rounds " << res.rounds << " packets " << res.packets_sent
     << " bits " << res.packet_bits_sent << " run-digest "
     << hex64(check::digest_run(res)) << '\n';
  return os.str();
}

std::string fixture_path(const GoldenTuple& t) {
  return std::string(DYNDISP_GOLDEN_DIR) + "/" + t.file;
}

/// Fixture body with comment lines stripped (the header documents the
/// tuple for humans; the trace is what is pinned).
std::string read_fixture(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (regenerate with DYNDISP_REGEN_GOLDEN=1)";
  std::ostringstream body;
  std::string line;
  while (std::getline(in, line))
    if (line.empty() || line[0] != '#') body << line << '\n';
  return body.str();
}

/// Line-by-line comparison so a drift names the first diverging round.
void expect_trace_equal(const std::string& expected, const std::string& got,
                        const std::string& what) {
  SCOPED_TRACE(what);
  std::istringstream a(expected), b(got);
  std::string la, lb;
  std::size_t lineno = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    ++lineno;
    if (!ha && !hb) break;
    ASSERT_EQ(ha, hb) << "trace length differs at line " << lineno
                      << " (fixture vs run)";
    ASSERT_EQ(la, lb) << "wire-format drift at line " << lineno;
  }
}

bool regen_requested() {
  const char* env = std::getenv("DYNDISP_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

TEST(PacketGolden, TracesMatchFixtures) {
  for (const GoldenTuple& t : all_tuples()) {
    const std::string trace = render_trace(t);
    if (regen_requested()) {
      std::ofstream out(fixture_path(t));
      ASSERT_TRUE(out.good()) << "cannot write " << fixture_path(t);
      out << "# golden packet trace: " << t.label << '\n'
          << "# tuple: registry adversary '" << t.adversary
          << "' (family random, n=36, seed 7), k=24 rooted placement, "
             "max_rounds=200\n"
          << "# format: one line per executed global-comm round, then run "
             "totals\n"
          << "# regenerate: DYNDISP_REGEN_GOLDEN=1 ./test_packet_golden\n"
          << trace;
      continue;
    }
    const std::string fixture = read_fixture(fixture_path(t));
    if (fixture.empty()) continue;  // read_fixture already failed the test
    expect_trace_equal(fixture, trace, t.label + " vs fixture");
  }
}

TEST(PacketGolden, LocalCommNeverBroadcasts) {
  // The local fixtures' empty per-round sections are a real pin: if the
  // engine ever starts assembling broadcasts for local comm, this fails
  // before the fixture diff does.
  const std::string trace = render_trace(local_tuple("random"));
  // The whole trace is the totals line: no per-round broadcast ever fired.
  EXPECT_EQ(trace.rfind("total rounds ", 0), 0u) << trace;
  EXPECT_NE(trace.find(" packets 0 bits 0 "), std::string::npos) << trace;
}

}  // namespace
}  // namespace dyndisp
