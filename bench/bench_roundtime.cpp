// Round-time perf harness: wall-clock cost of simulating Algorithm 4 per
// robot-round, across adversaries, scales, and compute-phase thread counts.
// Unlike the theorem benches this one makes no claim about the paper -- it
// tracks the ENGINE, so perf regressions in the round hot path (packet
// assembly, state serialization, planning, cross-round broadcast reuse,
// view materialization) show up as a number a CI job or a human can diff
// across commits. `--json` writes BENCH_roundtime.json, a machine-readable
// sibling of the ASCII table (schema in README.md).
//
// The adversary set spans the reuse spectrum: `random` / `star-star` /
// `ring-worst` rewire every round, while `static`, `t-interval`, and
// `scripted` replay graphs across rounds, which is where the round loop's
// graph skip and broadcast republication/delta assembly fire. A mega-scale
// section (random adversary, random placement, k up to 10^6) exercises the
// regime the struct-of-arrays view arena and the flat packet arena were
// built for; heap allocations are counted per row (a process-global
// operator-new counter).
//
//   bench_roundtime [--json] [--out=FILE] [--threads=1,8] [--reps=N]
//                   [--smoke] [--mega] [--mega-smoke] [--validate[=FILE]]
//
// Each (adversary, k, threads) tuple is one engine row. `--smoke` shrinks
// the sweep to one tiny size per adversary plus the k=4096 mega row
// (CI-friendly: seconds, not minutes). `--mega` appends the k=10^6
// headline row to the mega section (several minutes and >1 GB RSS, so
// scripts/repro.sh gates it behind DYNDISP_MEGA=1; see
// docs/PERFORMANCE.md). `--mega-smoke` instead runs ONLY the mega spec at
// k=65536 (threads=1) and exits nonzero if the run misses its
// heap-allocation or peak-RSS ceilings -- the CI-sized canary for the mega
// row's memory diet, deterministic where wall-clock on shared runners is
// not. Bare `--validate` checks, after the sweep, that every thread count
// of an (adversary, k) pair observed the identical run (robot_rounds,
// rounds, packet_mbits, dispersed) -- the engine claims bitwise identity at
// any thread count, and this is that claim at bench scale.
// `--validate=FILE` parses a previously written JSON file, checks it
// against schema v7 (field presence/types, one row per tuple, the same
// cross-thread observable identity, reuse counters nonzero on the
// replay-heavy rows), and exits -- no timing assertions, so it is safe on
// loaded CI machines.
//
// Schema v5 added the engine's per-phase wall-time buckets (phase_*_ms from
// RoundLoopStats: graph_build / broadcast / plan / compute / move), so the
// mega rows' time is attributable without a profiler. Schema v6 dropped the
// retired soa / flat_packets row keys. Schema v7 drops the retired
// cross-round cache's on/off column, its cache-off rows and the sc_*
// counters: one engine row per tuple.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "core/dispersion.h"
#include "dynamic/random_adversary.h"
#include "dynamic/scripted_adversary.h"
#include "dynamic/t_interval_adversary.h"
#include "robots/configuration.h"
#include "sim/engine.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/memprobe.h"
#include "util/table.h"

// Heap-allocation probe: the shared util/memprobe.h counter with this
// binary's operator-new hook installed (see that header for why the hook
// is per-binary). The delta across an engine.run() is the run's allocation
// count.
DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW

namespace {

using namespace dyndisp;

constexpr std::uint64_t kSchemaVersion = 7;
constexpr std::uint64_t kSeed = 11;

/// k at and above which a row runs a single rep: the mega headline row.
constexpr std::size_t kSingleRepK = 1000000;

/// --mega-smoke ceilings for the k=65536 mega row (threads=1). Allocation counts are deterministic (the memprobe counter
/// is exact) and peak RSS at this scale is dominated by n-proportional
/// state, so both are stable across machines; the margins are ~1.5x the
/// measured values so only a real regression -- a reintroduced retained
/// copy, a per-round allocation leak -- trips them, not noise.
constexpr std::size_t kMegaSmokeK = 65536;
constexpr std::uint64_t kMegaSmokeAllocCeiling = 9'500'000;
constexpr double kMegaSmokeRssCeilingMb = 150;

struct Row {
  std::string adversary;
  std::size_t k = 0;
  std::size_t n = 0;
  std::size_t threads = 1;
  Round rounds = 0;
  bool dispersed = false;
  std::uint64_t robot_rounds = 0;
  double wall_ms = 0;
  double robot_rounds_per_sec = 0;
  double packet_mbits = 0;
  double peak_rss_mb = 0;
  std::uint64_t heap_allocs = 0;
  RoundLoopStats stats;
};

/// One bench row family: which adversary, how robots are placed, and how the
/// node count scales with k. The replay-heavy rows use a rooted start on
/// n = 3k: the run takes many rounds, most robots settle early and stay put,
/// and only the moving frontier dirties nodes -- the regime the broadcast
/// republication and delta assembly target.
struct AdversarySpec {
  const char* name;       // registry adversary name, or "scripted"
  const char* placement;  // registry placement name
  std::size_t n_num, n_den;  // n = k * n_num / n_den
  bool reuse_heavy;       // replays graphs; reuse counters must be nonzero
};

constexpr AdversarySpec kSpecs[] = {
    {"random", "rooted", 3, 2, false},
    {"star-star", "rooted", 3, 2, false},
    {"ring-worst", "rooted", 3, 2, false},
    {"static", "rooted", 3, 1, true},
    {"t-interval", "rooted", 3, 1, true},
    {"scripted", "rooted", 3, 1, true},
};

/// The mega-scale section: the random adversary rewires every round, the
/// random placement scatters robots so the first rounds carry giant
/// components, and k reaches the 10^5 regime the view and packet arenas
/// target.
/// Runs at threads=1 only -- the headline claim is single-threaded.
constexpr AdversarySpec kMegaSpec = {"random", "random", 3, 2, false};

/// Process-wide peak RSS in MB. Monotone high-water mark for the WHOLE
/// process, so within one bench invocation only the first row to touch a
/// new peak moves it; it is recorded per row as an upper bound and is
/// meaningful mainly on the mega rows, which dwarf everything before them.
double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

std::unique_ptr<Adversary> make_adversary(const std::string& name,
                                          std::size_t n) {
  const campaign::Registry& registry = campaign::Registry::instance();
  if (name == "scripted") {
    // A three-line script, then the repeat-last horizon: rounds 0..2 churn,
    // everything after round 2 replays script.back() forever.
    std::vector<Graph> script;
    for (std::uint64_t s = 1; s <= 3; ++s)
      script.push_back(registry.family("random", n, kSeed + s));
    return std::make_unique<ScriptedAdversary>(std::move(script));
  }
  if (name == "t-interval") {
    // Wider window than the registry's T=4: with T=8, 7 of every 8 rounds
    // replay the window's graph, which is the regime this row measures.
    return std::make_unique<TIntervalAdversary>(
        std::make_unique<RandomAdversary>(n, n / 4, kSeed), 8);
  }
  return registry.adversary(name, "random", n, kSeed);
}

Row run(const AdversarySpec& spec, std::size_t k, std::size_t threads,
        std::size_t reps) {
  Row row;
  row.adversary = spec.name;
  row.k = k;
  row.threads = threads;
  // Median-free but repeatable: take the best of `reps` runs so a one-off
  // scheduler hiccup does not masquerade as a regression.
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto adv = make_adversary(spec.name, k * spec.n_num / spec.n_den);
    // Families may round the requested size; place on the graph's actual n.
    const std::size_t n = adv->node_count();
    Configuration initial =
        campaign::Registry::instance().placement(spec.placement, n, k,
                                                 /*groups=*/3, kSeed);
    EngineOptions opt;
    opt.max_rounds = 10 * k;
    opt.threads = threads;
    Engine engine(*adv, std::move(initial),
                  core::dispersion_factory_memoized(), opt);
    const std::uint64_t allocs_before = dyndisp::memprobe::allocation_count();
    const auto t0 = std::chrono::steady_clock::now();
    const RunResult r = engine.run();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t allocs =
        dyndisp::memprobe::allocation_count() - allocs_before;
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < row.wall_ms) row.wall_ms = ms;
    // The round loop is deterministic, so rep 0 already warmed every
    // process-global cache; take the min so one-time warmup allocations do
    // not inflate the steady-state count.
    if (rep == 0 || allocs < row.heap_allocs) row.heap_allocs = allocs;
    row.n = n;
    row.rounds = r.rounds;
    row.dispersed = r.dispersed;
    row.robot_rounds = static_cast<std::uint64_t>(r.rounds) * k;
    row.packet_mbits = static_cast<double>(r.packet_bits_sent) / 1e6;
    row.stats = r.stats;  // identical every rep (deterministic loop)
  }
  row.peak_rss_mb = peak_rss_mb();
  row.robot_rounds_per_sec =
      row.wall_ms > 0 ? 1000.0 * static_cast<double>(row.robot_rounds) /
                            row.wall_ms
                      : 0;
  return row;
}

std::vector<std::size_t> parse_threads(const std::string& spec) {
  std::vector<std::size_t> out;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    unsigned long t = 0;
    try {
      std::size_t pos = 0;
      t = std::stoul(item, &pos);
      if (pos != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw std::invalid_argument("--threads expects integers, got '" + item +
                                  "'");
    }
    if (t == 0) throw std::invalid_argument("--threads values must be >= 1");
    out.push_back(t);
  }
  if (out.empty()) throw std::invalid_argument("--threads list is empty");
  return out;
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  JsonWriter w(out);
  w.begin_object();
  w.member("bench", "roundtime");
  w.member("schema_version", kSchemaVersion);
  w.key("results");
  w.begin_array();
  for (const Row& r : rows) {
    w.begin_object();
    w.member("adversary", r.adversary);
    w.member("k", static_cast<std::uint64_t>(r.k));
    w.member("n", static_cast<std::uint64_t>(r.n));
    w.member("threads", static_cast<std::uint64_t>(r.threads));
    w.member("rounds", static_cast<std::uint64_t>(r.rounds));
    w.member("dispersed", r.dispersed);
    w.member("robot_rounds", r.robot_rounds);
    w.member("wall_ms", r.wall_ms);
    w.member("robot_rounds_per_sec", r.robot_rounds_per_sec);
    w.member("packet_mbits", r.packet_mbits);
    w.member("peak_rss_mb", r.peak_rss_mb);
    w.member("heap_allocs", r.heap_allocs);
    w.member("graph_reuses", static_cast<std::uint64_t>(r.stats.graph_reuses));
    w.member("validations_skipped",
             static_cast<std::uint64_t>(r.stats.validations_skipped));
    w.member("broadcasts_reused",
             static_cast<std::uint64_t>(r.stats.broadcasts_reused));
    w.member("broadcast_deltas",
             static_cast<std::uint64_t>(r.stats.broadcast_deltas));
    w.member("packets_copied",
             static_cast<std::uint64_t>(r.stats.packets_copied));
    w.member("packets_rebuilt",
             static_cast<std::uint64_t>(r.stats.packets_rebuilt));
    w.member("phase_graph_build_ms", r.stats.phase_graph_build_ms);
    w.member("phase_broadcast_ms", r.stats.phase_broadcast_ms);
    w.member("phase_plan_ms", r.stats.phase_plan_ms);
    w.member("phase_compute_ms", r.stats.phase_compute_ms);
    w.member("phase_move_ms", r.stats.phase_move_ms);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("validate: " + what);
}

/// Round observables every thread count of one (adversary, k) pair must
/// agree on: the engine is bitwise identical at any thread count.
struct Observables {
  std::uint64_t robot_rounds = 0;
  std::uint64_t rounds = 0;
  double packet_mbits = 0;
  bool dispersed = false;

  bool operator==(const Observables&) const = default;
  std::string str() const {
    return "robot_rounds=" + std::to_string(robot_rounds) +
           " rounds=" + std::to_string(rounds) +
           " packet_mbits=" + std::to_string(packet_mbits) +
           " dispersed=" + std::to_string(dispersed);
  }
};

/// Collects one row per (adversary, k, threads) tuple and checks every row
/// of an (adversary, k) pair against the first one seen; throws on a
/// duplicate tuple or a divergence.
class IdentityCheck {
 public:
  void add(const std::string& adversary, std::uint64_t k,
           std::uint64_t threads, const Observables& obs) {
    const std::string pair = adversary + "/k=" + std::to_string(k);
    const std::string tuple = pair + "/t=" + std::to_string(threads);
    if (!tuples_.insert(tuple).second) fail(tuple + ": duplicate row");
    const auto [it, first] = pairs_.emplace(pair, std::make_pair(threads, obs));
    if (!first && !(it->second.second == obs))
      fail(pair + ": round observables diverged across thread counts (t=" +
           std::to_string(it->second.first) + ": " + it->second.second.str() +
           " | t=" + std::to_string(threads) + ": " + obs.str() + ")");
  }
  std::size_t pairs() const { return pairs_.size(); }

 private:
  std::set<std::string> tuples_;
  std::map<std::string, std::pair<std::uint64_t, Observables>> pairs_;
};

// ---- bare --validate: cross-thread identity over the rows just produced ----

void validate_rows(const std::vector<Row>& rows) {
  IdentityCheck check;
  for (const Row& row : rows)
    check.add(row.adversary, row.k, row.threads,
              {row.robot_rounds, static_cast<std::uint64_t>(row.rounds),
               row.packet_mbits, row.dispersed});
  std::printf("validate: %zu (adversary, k) pairs, every thread count agreed "
              "on all round observables\n",
              check.pairs());
}

// ---- --validate=FILE: schema v7 checks, no timing assertions ----

const JsonValue& req(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) fail("missing key '" + key + "'");
  return *v;
}

int validate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());

  if (req(doc, "bench").as_string() != "roundtime")
    fail("'bench' is not \"roundtime\"");
  if (req(doc, "schema_version").as_uint() != kSchemaVersion)
    fail("'schema_version' is not " + std::to_string(kSchemaVersion));
  const std::vector<JsonValue>& rows = req(doc, "results").items();
  if (rows.empty()) fail("'results' is empty");

  static const char* const kUints[] = {
      "k", "n", "threads", "rounds", "robot_rounds", "heap_allocs",
      "graph_reuses", "validations_skipped", "broadcasts_reused",
      "broadcast_deltas", "packets_copied", "packets_rebuilt"};
  static const char* const kNumbers[] = {
      "wall_ms", "robot_rounds_per_sec", "packet_mbits", "peak_rss_mb",
      "phase_graph_build_ms", "phase_broadcast_ms", "phase_plan_ms",
      "phase_compute_ms", "phase_move_ms"};
  IdentityCheck check;
  for (const JsonValue& row : rows) {
    const std::string adversary = req(row, "adversary").as_string();
    for (const char* key : kUints) (void)req(row, key).as_uint();
    for (const char* key : kNumbers) (void)req(row, key).as_number();
    const std::uint64_t k = req(row, "k").as_uint();
    const std::uint64_t threads = req(row, "threads").as_uint();
    check.add(adversary, k, threads,
              {req(row, "robot_rounds").as_uint(), req(row, "rounds").as_uint(),
               req(row, "packet_mbits").as_number(),
               req(row, "dispersed").as_bool()});
    const std::string tuple = adversary + "/k=" + std::to_string(k) +
                              "/t=" + std::to_string(threads);
    for (const AdversarySpec& spec : kSpecs) {
      if (!spec.reuse_heavy || adversary != spec.name) continue;
      // Replay-heavy adversary: the graph skip and the broadcast
      // republication/delta path must both have fired.
      if (req(row, "graph_reuses").as_uint() == 0)
        fail(tuple + ": reuse-heavy row has graph_reuses == 0");
      if (req(row, "broadcasts_reused").as_uint() +
              req(row, "broadcast_deltas").as_uint() ==
          0)
        fail(tuple + ": reuse-heavy row reused no broadcasts");
    }
  }
  std::printf("validate: %s ok (%zu rows, schema v%llu)\n", path.c_str(),
              rows.size(),
              static_cast<unsigned long long>(kSchemaVersion));
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  const std::string validate_arg = args.get("validate", "");
  const bool json = args.get_bool("json", false);
  const std::string out_path = args.get("out", "BENCH_roundtime.json");
  const std::vector<std::size_t> thread_counts =
      parse_threads(args.get("threads", "1,8"));
  const std::size_t reps = args.get_uint("reps", 1);
  const bool smoke = args.get_bool("smoke", false);
  const bool mega = args.get_bool("mega", false);
  const bool mega_smoke = args.get_bool("mega-smoke", false);
  for (const std::string& key : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
    return 2;
  }
  // Bare `--validate` parses as "true": validate the sweep about to run.
  // Any other value is a JSON file to check.
  if (!validate_arg.empty() && validate_arg != "true")
    return validate_file(validate_arg);

  if (mega_smoke) {
    // CI canary: the k=65536 mega row alone, with hard memory ceilings.
    // Runs before anything else so the process RSS high-water mark is its
    // own, not an earlier row's.
    const Row row = run(kMegaSpec, kMegaSmokeK, 1, reps);
    std::printf(
        "mega-smoke: k=%zu rounds=%llu wall=%.0fms allocs=%llu rss=%.0fMB\n",
        row.k, static_cast<unsigned long long>(row.rounds), row.wall_ms,
        static_cast<unsigned long long>(row.heap_allocs), row.peak_rss_mb);
    bool pass = true;
    if (!row.dispersed) {
      std::printf("mega-smoke: FAIL -- run did not disperse\n");
      pass = false;
    }
    if (row.heap_allocs > kMegaSmokeAllocCeiling) {
      std::printf("mega-smoke: FAIL -- heap_allocs %llu > ceiling %llu\n",
                  static_cast<unsigned long long>(row.heap_allocs),
                  static_cast<unsigned long long>(kMegaSmokeAllocCeiling));
      pass = false;
    }
    if (row.peak_rss_mb > kMegaSmokeRssCeilingMb) {
      std::printf("mega-smoke: FAIL -- peak RSS %.0f MB > ceiling %.0f MB\n",
                  row.peak_rss_mb, kMegaSmokeRssCeilingMb);
      pass = false;
    }
    if (pass) std::printf("mega-smoke: OK (ceilings allocs<=%llu rss<=%.0fMB)\n",
                          static_cast<unsigned long long>(kMegaSmokeAllocCeiling),
                          kMegaSmokeRssCeilingMb);
    return pass ? 0 : 1;
  }

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{16}
            : std::vector<std::size_t>{64, 128, 256, 512};
  std::vector<std::size_t> mega_sizes =
      smoke ? std::vector<std::size_t>{4096}
            : std::vector<std::size_t>{4096, 65536, 100000};
  // The k=10^6 headline costs minutes and >1 GB: opt-in via --mega
  // (scripts/repro.sh forwards DYNDISP_MEGA=1 as this flag).
  if (mega && !smoke) mega_sizes.push_back(1000000);

  std::printf("== Round-time harness: engine wall-clock per robot-round ==\n");
  bool ok = true;
  std::vector<Row> rows;
  const auto sweep = [&](const AdversarySpec& spec, const std::string& title,
                         const std::vector<std::size_t>& ks,
                         const std::vector<std::size_t>& threads_list) {
    AsciiTable table({"k", "threads", "rounds", "wall ms", "g/b/p/c/m ms",
                      "robot-rounds/s", "peak RSS MB", "allocs",
                      "packet Mbits"});
    table.set_title(title);
    for (const std::size_t k : ks) {
      for (const std::size_t threads : threads_list) {
        // The headline k=10^6 row runs a single rep: its minutes-long wall
        // time dwarfs the scheduler jitter the reps exist to smooth out.
        const Row row = run(spec, k, threads, k >= kSingleRepK ? 1 : reps);
        ok &= row.dispersed;
        rows.push_back(row);
        // Phase attribution: graph_build/broadcast/plan/compute/move.
        const std::string phases =
            fmt_double(row.stats.phase_graph_build_ms, 0) + "/" +
            fmt_double(row.stats.phase_broadcast_ms, 0) + "/" +
            fmt_double(row.stats.phase_plan_ms, 0) + "/" +
            fmt_double(row.stats.phase_compute_ms, 0) + "/" +
            fmt_double(row.stats.phase_move_ms, 0);
        table.add_row({std::to_string(row.k), std::to_string(row.threads),
                       std::to_string(row.rounds), fmt_double(row.wall_ms, 1),
                       phases, fmt_double(row.robot_rounds_per_sec, 0),
                       fmt_double(row.peak_rss_mb, 0),
                       std::to_string(row.heap_allocs),
                       fmt_double(row.packet_mbits, 2)});
      }
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n");
  };
  for (const AdversarySpec& spec : kSpecs)
    sweep(spec, spec.name, sizes, thread_counts);
  sweep(kMegaSpec, "random (mega-scale, random placement)", mega_sizes, {1});

  if (!validate_arg.empty()) validate_rows(rows);
  if (json) {
    write_json(rows, out_path);
    std::printf("wrote %s (%zu result rows)\n", out_path.c_str(), rows.size());
  }
  if (!ok) std::printf("WARNING: some runs did not disperse\n");
  return ok ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
