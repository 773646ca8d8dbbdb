// perfbench: the dyndisp benchmark binary.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--sweep-spec FILE] [--work-dir DIR]
//   perfbench_allocs --workload NAME [--seed N] --count-allocs [...]
//
// --trace 0 measures the end-to-end metrics: serial and T-thread runs are
// repeated in pairs for about S seconds and reported as medians. --trace 1
// makes untraced and traced runs at 1 and T threads (see README.md) and
// reports the per-layer metrics. Every run passes the correctness gates (see
// README.md); the last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every gate passed.
//
// Every measured run executes in its own forked child of a parent process
// that never starts a thread. A user's process runs one configuration, and
// glibc's malloc skips its atomic operations only until a process first
// creates a thread: running the serial run after a threaded one in the same
// process would time it on the slower path.
//
// The same source builds perfbench_allocs, which replaces operator new to
// count heap allocations (util/memprobe.h). Only its --count-allocs mode is
// used: perfbench runs it as a separate process for engine.heap_allocs, so
// no timed run pays for the counting hook.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "harness.h"
#include "util/memprobe.h"
#include "util/parallel.h"
#include "workloads.h"

#ifdef PERFBENCH_COUNT_ALLOCS
DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool count_allocs = false;
  std::string sweep_spec = "perfbench/sweep.json";
  std::string work_dir = ".bench_build/perfbench-work";
};

/// One measured run. Trivially copyable, so the child that ran it can send
/// it back through a pipe.
struct Measured {
  double setup_s = 0;
  double wall_s = 0;
  double peak_mb = 0;  ///< VmHWM after the run, reset before its setup.
  bool rss_reset = false;  ///< Whether that reset took.
  double trial_ms_sum = 0;  ///< Sweep: sum of record wall_ms.
  std::uint64_t digest = 0;  ///< Outcome / record-set digest.
  std::uint64_t rounds = 0;
  std::uint64_t memory_bits = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t lanes = 0;
  std::uint64_t reused_broadcasts = 0;  ///< broadcasts_reused + broadcast_deltas.
  std::uint64_t sc_hits = 0;            ///< sc_exact_hits + sc_delta_rounds.
  std::uint64_t theorem5_exceeded = 0;  ///< Sweep: see exceeds_theorem5.
};

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Runs `body` in a forked child and returns its result. The child's
/// exceptions and crashes surface as a runtime_error here.
template <class T>
T in_child(const std::function<T()>& body) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    T result{};
    try {
      result = body();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      code = 1;
    }
    const bool sent = write(fds[1], &result, sizeof result) ==
                      static_cast<ssize_t>(sizeof result);
    std::cerr.flush();
    _exit(sent ? code : 1);
  }
  close(fds[1]);
  T result{};
  std::size_t got = 0;
  while (got < sizeof result) {
    const ssize_t r = read(fds[0], reinterpret_cast<char*>(&result) + got,
                           sizeof result - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof result || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("a measured run failed in its child process");
  return result;
}

/// Runs perfbench_allocs, the hooked build next to this binary, in its
/// --count-allocs mode and returns the number it prints: the exact heap
/// allocation count of the workload's untraced serial run.
std::uint64_t heap_allocs_of_serial_run(const Args& args) {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot locate the perfbench binary");
  const std::string exe = (self.parent_path() / "perfbench_allocs").string();
  std::vector<std::string> words = {exe,
                                    "--workload", args.workload,
                                    "--seed", std::to_string(args.seed),
                                    "--count-allocs",
                                    "--sweep-spec", args.sweep_spec,
                                    "--work-dir", args.work_dir};
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    if (dup2(fds[1], STDOUT_FILENO) < 0) _exit(127);
    close(fds[1]);
    execv(exe.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[256];
  for (;;) {
    const ssize_t r = read(fds[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    text.append(buf, static_cast<std::size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty())
    throw std::runtime_error(exe + " --count-allocs failed");
  return std::stoull(text);
}

/// Counts gate outcomes; every run is compared against the first one.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool have_ref = false;
  std::uint64_t ref_digest = 0;

  void check(const Measured& m, const char* what) {
    attempted += m.attempted;
    failed += m.failed;
    if (m.failed > 0)
      std::cerr << "perfbench: " << what << ": " << m.failed << " of "
                << m.attempted << " failed a correctness gate\n";
    if (!have_ref) {
      have_ref = true;
      ref_digest = m.digest;
    } else if (m.digest != ref_digest) {
      // A run disagreeing with the first run fails as a whole.
      failed += m.attempted - m.failed;
      std::cerr << "perfbench: " << what << ": outcome differs from the "
                << "first run of this workload\n";
    }
  }

  /// Adds another tally's counts (its runs were compared among themselves).
  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// --- engine workloads ------------------------------------------------------

/// One untraced Engine::run, peak RSS and setup included (call in a child).
Measured engine_run(const EngineWorkload& w, std::uint64_t seed,
                    std::size_t threads) {
  Measured m;
  m.rss_reset = PeakRss::reset();
  const std::uint64_t t0 = now_ns();
  EngineRun run = setup_engine(w, seed, threads, /*decorate=*/false);
  m.setup_s = seconds_since(t0);
  const memprobe::AllocGuard allocs;
  const std::uint64_t t1 = now_ns();
  const RunResult r = run.engine->run();
  m.wall_s = seconds_since(t1);
  m.heap_allocs = allocs.delta();
  m.peak_mb = PeakRss::peak_mb();
  std::string err;
  const Outcome out = summarize(r, &err);
  m.digest = out.digest();
  m.rounds = out.rounds;
  m.memory_bits = out.max_memory_bits;
  m.attempted = 1;
  m.failed = out.bounds_ok ? 0 : 1;
  m.reused_broadcasts = r.stats.broadcasts_reused + r.stats.broadcast_deltas;
  m.sc_hits = r.stats.sc_exact_hits + r.stats.sc_delta_rounds;
  if (!err.empty()) std::cerr << "perfbench: " << w.name << ": " << err << "\n";
  return m;
}

/// Setup alone: adversary, placement and Engine construction.
double setup_only(const EngineWorkload& w, std::uint64_t seed,
                  std::size_t threads) {
  const std::uint64_t t0 = now_ns();
  EngineRun run = setup_engine(w, seed, threads, /*decorate=*/false);
  return seconds_since(t0);
}

// --- sweep ------------------------------------------------------------------

/// One run_campaign of the sweep with its gates (call in a child).
Measured sweep_run(const campaign::CampaignSpec& spec, std::size_t lanes,
                   const std::string& dir) {
  Measured m;
  m.rss_reset = PeakRss::reset();
  const memprobe::AllocGuard allocs;
  const SweepRun run = run_sweep(spec, lanes, dir);
  m.heap_allocs = allocs.delta();
  m.peak_mb = PeakRss::peak_mb();
  m.wall_s = run.wall_s;
  m.lanes = run.lanes;
  m.digest = records_digest(run.records);
  m.attempted = spec.job_count();
  std::uint64_t passed = 0;
  for (const campaign::TrialRecord& rec : run.records) {
    m.rounds += rec.rounds;
    m.memory_bits = std::max<std::uint64_t>(m.memory_bits, rec.memory_bits);
    m.trial_ms_sum += rec.wall_ms;
    if (const std::string err = check_record(rec); !err.empty())
      std::cerr << "perfbench: sweep: " << err << "\n";
    else
      ++passed;
    m.theorem5_exceeded += exceeds_theorem5(rec);
  }
  m.failed = m.attempted - std::min<std::uint64_t>(passed, m.attempted);
  return m;
}

/// Sweep setup alone: spec parse, expansion and store open.
double sweep_setup(const Args& args, const std::string& dir) {
  const std::uint64_t t0 = now_ns();
  double s = 0;
  {
    const campaign::CampaignSpec spec =
        load_sweep_spec(args.sweep_spec, args.seed);
    const std::vector<campaign::JobSpec> jobs = spec.expand();
    const campaign::ResultStore store(dir);
    s = seconds_since(t0);
  }
  std::filesystem::remove_all(dir);
  return s;
}

// --- metrics ---------------------------------------------------------------

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }

  /// Human-readable lines, then the one-line JSON result.
  void print(const Tally& tally) const {
    std::ostringstream human;
    human.precision(6);
    for (const Row& r : rows_)
      human << "  " << r.name << " = " << r.value << " " << r.unit << "\n";
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      json << (i ? ", " : "") << "\"" << r.name << "\": {\"value\": "
           << r.value << ", \"unit\": \"" << r.unit << "\"}";
    }
    json << "}}";
    std::cout << human.str() << json.str() << std::endl;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

/// Inputs of the per-layer metrics, whichever workload produced them.
struct LayerInputs {
  LayerTotals layers;
  TimedAdversary::Counters adversary;
  std::uint64_t next_graph_ns_threads = 0;
  std::uint64_t rounds = 0;
  std::uint64_t reused_broadcasts = 0;  ///< broadcasts_reused + broadcast_deltas.
  std::uint64_t sc_hits = 0;            ///< sc_exact_hits + sc_delta_rounds.
  double serial_s = 0;   ///< Untraced serial wall (run_s_serial).
  double threads_s = 0;  ///< Untraced T-thread wall (run_s).
  double traced_s = 0;   ///< Traced serial wall, replay included.
  double untraced_s = 0;  ///< The same work untraced (trace.overhead_frac).
  std::uint64_t heap_allocs = 0;
  double trial_ms_sum = 0;
  std::uint64_t jobs = 0;
  std::uint64_t lanes = 0;
  std::uint64_t theorem5_exceeded = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void add_layer_metrics(const LayerInputs& in, Metrics& out) {
  const LayerTotals& L = in.layers;
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; };
  const double slide_ms =
      std::max(0.0, ms(L.plan_component_ns) - ms(L.paths_ns));
  // next_graph time includes the probes run inside it; probe_ns is not
  // added separately.
  const double attributed =
      ms(in.adversary.next_graph_ns) + ms(L.validate_ns) +
      ms(L.broadcast_ns) + ms(L.view_ns) + ms(L.components_ns) +
      ms(L.trees_ns) + ms(L.plan_component_ns) + ms(L.move_ns);
  // The serial wall the layers are attributed against comes from the traced
  // run itself: its wall less the time spent in the replay. Taking it from
  // another run would let host-speed drift between runs land in
  // engine.unattributed_ms.
  const double engine_ms = in.traced_s * 1e3 - ms(L.replay_ns);
  const double rounds = static_cast<double>(in.rounds);
  out.add("dynamic.next_graph_ms", ms(in.adversary.next_graph_ns), "ms");
  out.add("dynamic.next_graph_ms_threads", ms(in.next_graph_ns_threads), "ms");
  out.add("dynamic.next_graph_calls",
          static_cast<double>(in.adversary.next_graph_calls), "count");
  out.add("dynamic.reuse_hints", static_cast<double>(in.adversary.reuse_hints),
          "count");
  out.add("dynamic.probe_ms", ms(in.adversary.probe_ns), "ms");
  out.add("dynamic.probes", static_cast<double>(in.adversary.probes), "count");
  out.add("dynamic.validate_ms", ms(L.validate_ns), "ms");
  out.add("sim.broadcast_ms", ms(L.broadcast_ns), "ms");
  out.add("sim.view_ms", ms(L.view_ns), "ms");
  out.add("sim.packets", static_cast<double>(L.packets), "count");
  out.add("sim.packet_mbits", static_cast<double>(L.packet_bits) * 1e-6,
          "Mbit");
  out.add("sim.broadcast_reuse_ratio",
          ratio(static_cast<double>(in.reused_broadcasts), rounds), "ratio");
  out.add("core.components_ms", ms(L.components_ns), "ms");
  out.add("core.components", static_cast<double>(L.components), "count");
  out.add("core.multiplicity_components",
          static_cast<double>(L.multiplicity_components), "count");
  out.add("core.trees_ms", ms(L.trees_ns), "ms");
  out.add("core.paths_ms", ms(L.paths_ns), "ms");
  out.add("core.paths_kept", static_cast<double>(L.paths_kept), "count");
  out.add("core.slide_ms", slide_ms, "ms");
  out.add("core.movers", static_cast<double>(L.movers), "count");
  out.add("core.sc_hit_ratio", ratio(static_cast<double>(in.sc_hits), rounds),
          "ratio");
  out.add("robots.move_ms", ms(L.move_ns), "ms");
  out.add("robots.moves", static_cast<double>(L.moves), "count");
  out.add("engine.attributed_frac", ratio(attributed, engine_ms), "ratio");
  out.add("engine.unattributed_ms", engine_ms - attributed, "ms");
  out.add("engine.heap_allocs", static_cast<double>(in.heap_allocs), "count");
  out.add("engine.thread_speedup", ratio(in.serial_s, in.threads_s), "ratio");
  out.add("campaign.trial_ms_sum", in.trial_ms_sum, "ms");
  out.add("campaign.jobs", static_cast<double>(in.jobs), "count");
  out.add("campaign.theorem5_exceeded",
          static_cast<double>(in.theorem5_exceeded), "count");
  const double lanes = static_cast<double>(in.lanes);
  out.add("campaign.lane_busy_frac",
          ratio(in.trial_ms_sum, in.threads_s * 1e3 * lanes), "ratio");
  out.add("campaign.overhead_ms",
          in.jobs ? in.threads_s * 1e3 - ratio(in.trial_ms_sum, lanes) : 0.0,
          "ms");
  out.add("trace.overhead_frac", ratio(in.traced_s, in.untraced_s) - 1,
          "ratio");
}

void add_end_to_end(Metrics& out, const std::vector<double>& threads_s,
                    const std::vector<double>& serial_s,
                    const std::vector<double>& setup_s,
                    const std::vector<double>& peak_mb, const Measured& ref,
                    const Tally& tally) {
  out.add("run_s", median(threads_s), "s");
  out.add("run_s_serial", median(serial_s), "s");
  out.add("setup_s", median(setup_s), "s");
  out.add("peak_rss_mb", median(peak_mb), "MB");
  out.add("rounds", static_cast<double>(ref.rounds), "count");
  out.add("memory_bits", static_cast<double>(ref.memory_bits), "bit");
  out.add("passed_frac",
          ratio(static_cast<double>(tally.attempted - tally.failed),
                static_cast<double>(tally.attempted)),
          "ratio");
}

/// Set-up samples per end-to-end run, each in its own child: at least
/// kMinSetups, then more for up to about kSetupSeconds (cheap set-ups get
/// many samples, so their median is steady), at most kMaxSetups.
constexpr std::size_t kMinSetups = 7;
constexpr std::size_t kMaxSetups = 101;
constexpr double kSetupSeconds = 2.0;

std::vector<double> setup_samples(const std::function<double()>& one) {
  std::vector<double> s;
  const std::uint64_t t0 = now_ns();
  while (s.size() < kMinSetups ||
         (s.size() < kMaxSetups && seconds_since(t0) < kSetupSeconds))
    s.push_back(in_child<double>(one));
  return s;
}

/// T, the thread or lane count of the threaded runs: at most 2. On a shared
/// 4-vCPU host a T=4 run needs every vCPU at each of its per-round
/// fork-join barriers, and its time spread across runs far more than the
/// serial run's; at T=2 the two spread alike (see README.md).
std::size_t bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 2);
}

void note_rss_fallback(const Measured& m) {
  static bool noted = false;
  if (m.rss_reset || noted) return;
  noted = true;
  std::cerr << "perfbench: VmHWM reset unavailable; peak_rss_mb includes "
               "the parent's RSS at fork\n";
}

/// Serial and T-thread runs in pairs for about `seconds`, each in a child.
template <class Run>
void end_to_end_pairs(const Args& args, const Run& run, Metrics& out,
                      Tally& tally, std::vector<double>& setup_s) {
  const std::size_t T = bench_threads();
  std::vector<double> threads_s, serial_s, peak_mb;
  Measured ref;
  const std::uint64_t start = now_ns();
  double pair_s = 0;
  do {
    const std::uint64_t t0 = now_ns();
    const Measured s = in_child<Measured>([&] { return run(1); });
    tally.check(s, "serial run");
    const Measured p = in_child<Measured>([&] { return run(T); });
    tally.check(p, "threaded run");
    note_rss_fallback(p);
    if (serial_s.empty()) ref = s;
    serial_s.push_back(s.wall_s);
    threads_s.push_back(p.wall_s);
    if (p.setup_s > 0) setup_s.push_back(p.setup_s);
    peak_mb.push_back(p.peak_mb);
    pair_s = seconds_since(t0);
    std::cerr << "perfbench: pair " << serial_s.size() << ": serial "
              << s.wall_s << " s, " << T << " threads " << p.wall_s << " s\n";
  } while (seconds_since(start) + pair_s <= args.seconds);
  add_end_to_end(out, threads_s, serial_s, setup_s, peak_mb, ref, tally);
}

void engine_end_to_end(const Args& args, const EngineWorkload& w,
                       Metrics& out, Tally& tally) {
  const std::size_t T = bench_threads();
  std::vector<double> setup_s =
      setup_samples([&] { return setup_only(w, args.seed, T); });
  end_to_end_pairs(
      args,
      [&](std::size_t threads) { return engine_run(w, args.seed, threads); },
      out, tally, setup_s);
}

std::string work_dir(const Args& args, const std::string& leaf) {
  return args.work_dir + "/" + leaf;
}

void sweep_end_to_end(const Args& args, Metrics& out, Tally& tally) {
  const campaign::CampaignSpec spec =
      load_sweep_spec(args.sweep_spec, args.seed);
  std::vector<double> setup_s = setup_samples(
      [&] { return sweep_setup(args, work_dir(args, "setup")); });
  end_to_end_pairs(
      args,
      [&](std::size_t lanes) {
        return sweep_run(spec, lanes,
                         work_dir(args, "lanes-" + std::to_string(lanes)));
      },
      out, tally, setup_s);
}

/// What a traced run sends back from its child.
struct Traced {
  Measured m;
  LayerTotals layers;
  TimedAdversary::Counters adversary;
};

void engine_traced(const Args& args, const EngineWorkload& w, Metrics& out,
                   Tally& tally) {
  const std::size_t T = bench_threads();
  LayerInputs in;

  // Traced runs: the decorated adversary at both thread counts, plus the
  // layer replay on the serial one. The replay's own gates (movers, moves,
  // packets) count as one more attempted check.
  const auto traced = [&](std::size_t threads, bool replay_on) {
    Traced t;
    LayerReplay replay(w.k);
    EngineRun run = setup_engine(w, args.seed, threads, /*decorate=*/true,
                                 replay_on ? &replay : nullptr);
    const std::uint64_t t0 = now_ns();
    const RunResult r = run.engine->run();
    t.m.wall_s = seconds_since(t0);
    const Outcome o = summarize(r);
    t.m.digest = o.digest();
    t.m.attempted = 1;
    t.m.failed = o.bounds_ok ? 0 : 1;
    t.layers = replay.totals();
    t.adversary = run.timed->counters();
    if (replay_on) {
      const LayerTotals& L = t.layers;
      const bool agrees = L.mover_mismatches == 0 && L.move_mismatches == 0 &&
                          L.rounds == r.rounds && L.packets == r.packets_sent &&
                          L.packet_bits == r.packet_bits_sent;
      ++t.m.attempted;
      if (!agrees) {
        ++t.m.failed;
        std::cerr << "perfbench: layer replay disagrees with the engine\n";
      }
    }
    return t;
  };
  // The traced serial run is bracketed by two untraced serial runs whose
  // mean is the serial wall trace.overhead_frac and thread_speedup use, so
  // a linear drift in host speed cancels out of both.
  const auto serial = [&] {
    const Measured u =
        in_child<Measured>([&] { return engine_run(w, args.seed, 1); });
    tally.check(u, "serial run");
    return u;
  };
  const Measured u1 = serial();
  const Traced t1 = in_child<Traced>([&] { return traced(1, true); });
  tally.check(t1.m, "traced serial run");
  const Measured u2 = serial();
  const Measured uT =
      in_child<Measured>([&] { return engine_run(w, args.seed, T); });
  tally.check(uT, "threaded run");
  const Traced tT = in_child<Traced>([&] { return traced(T, false); });
  tally.check(tT.m, "traced threaded run");
  in.serial_s = (u1.wall_s + u2.wall_s) / 2;
  in.untraced_s = in.serial_s;
  in.threads_s = uT.wall_s;
  in.heap_allocs = heap_allocs_of_serial_run(args);
  in.rounds = u1.rounds;
  in.reused_broadcasts = u1.reused_broadcasts;
  in.sc_hits = u1.sc_hits;
  in.traced_s = t1.m.wall_s;
  in.layers = t1.layers;
  in.adversary = t1.adversary;
  in.next_graph_ns_threads = tT.adversary.next_graph_ns;
  add_layer_metrics(in, out);
}

void sweep_traced(const Args& args, Metrics& out, Tally& tally) {
  const std::size_t T = bench_threads();
  const campaign::CampaignSpec spec =
      load_sweep_spec(args.sweep_spec, args.seed);
  const std::vector<campaign::JobSpec> jobs = spec.expand();
  LayerInputs in;
  const Measured s1 = in_child<Measured>(
      [&] { return sweep_run(spec, 1, work_dir(args, "lanes-1")); });
  tally.check(s1, "serial sweep");

  // Serial passes over the jobs outside the scheduler: untraced, each job
  // as run_trial runs it, then traced with the decorated adversary and the
  // layer replay. The traced pass must reproduce every job's Outcome.
  const auto pass = [&](bool traced) {
    Traced t;
    Fnv outcomes;
    const std::uint64_t t0 = now_ns();
    for (const campaign::JobSpec& job : jobs) {
      if (!traced) {
        outcomes.mix(summarize(analysis::run_trial(
                                   campaign::make_trial_spec(job), job.seed))
                         .digest());
        continue;
      }
      LayerReplay replay(job.k);
      TimedAdversary::Counters c;
      const RunResult r = traced_job(job, &replay, c);
      outcomes.mix(summarize(r).digest());
      const LayerTotals& L = replay.totals();
      t.layers.add(L);
      t.adversary.next_graph_ns += c.next_graph_ns;
      t.adversary.next_graph_calls += c.next_graph_calls;
      t.adversary.reuse_hints += c.reuse_hints;
      t.adversary.probe_ns += c.probe_ns;
      t.adversary.probes += c.probes;
      t.m.rounds += r.rounds;
      t.m.reused_broadcasts +=
          r.stats.broadcasts_reused + r.stats.broadcast_deltas;
      t.m.sc_hits += r.stats.sc_exact_hits + r.stats.sc_delta_rounds;
      // Crash faults change the broadcast after the snapshot's `before`,
      // so packet totals are compared on fault-free jobs only.
      const bool agrees =
          L.mover_mismatches == 0 && L.move_mismatches == 0 &&
          (job.faults > 0 || (L.packets == r.packets_sent &&
                              L.packet_bits == r.packet_bits_sent));
      if (!agrees) {
        ++t.m.failed;
        std::cerr << "perfbench: layer replay disagrees on " << job.id()
                  << "\n";
      }
    }
    t.m.wall_s = seconds_since(t0);
    t.m.digest = outcomes.h;
    t.m.attempted = jobs.size();
    return t;
  };
  Tally passes;
  const Traced u = in_child<Traced>([&] { return pass(false); });
  passes.check(u.m, "untraced serial pass");
  const Traced t1 = in_child<Traced>([&] { return pass(true); });
  passes.check(t1.m, "traced serial pass");
  tally.merge(passes);

  const Measured sT = in_child<Measured>(
      [&] { return sweep_run(spec, T, work_dir(args, "lanes-T")); });
  tally.check(sT, "multi-lane sweep");
  in.serial_s = s1.wall_s;
  in.untraced_s = u.m.wall_s;
  in.threads_s = sT.wall_s;
  in.heap_allocs = heap_allocs_of_serial_run(args);
  in.trial_ms_sum = sT.trial_ms_sum;
  in.jobs = spec.job_count();
  in.lanes = sT.lanes;
  in.theorem5_exceeded = sT.theorem5_exceeded;
  in.traced_s = t1.m.wall_s;
  in.layers = t1.layers;
  in.adversary = t1.adversary;
  in.rounds = t1.m.rounds;
  in.reused_broadcasts = t1.m.reused_broadcasts;
  in.sc_hits = t1.m.sc_hits;

  // Traced multi-lane pass: decorated adversaries only, jobs fanned over
  // T lanes as the campaign scheduler does.
  in.next_graph_ns_threads = in_child<std::uint64_t>([&] {
    std::atomic<std::uint64_t> next_graph_ns{0};
    ThreadPool pool(T);
    pool.for_each(jobs.size(), [&](std::size_t i) {
      TimedAdversary::Counters c;
      (void)traced_job(jobs[i], nullptr, c);
      next_graph_ns.fetch_add(c.next_graph_ns, std::memory_order_relaxed);
    });
    return next_graph_ns.load();
  });
  add_layer_metrics(in, out);
}

/// --count-allocs: the untraced serial run in this process, which must be
/// the hooked perfbench_allocs build. Prints its heap allocation count.
std::uint64_t count_allocs(const Args& args, const EngineWorkload* w) {
#ifndef PERFBENCH_COUNT_ALLOCS
  (void)args;
  (void)w;
  throw std::invalid_argument(
      "--count-allocs needs the perfbench_allocs build");
#else
  if (w != nullptr) return engine_run(*w, args.seed, 1).heap_allocs;
  return sweep_run(load_sweep_spec(args.sweep_spec, args.seed), 1,
                   work_dir(args, "allocs"))
      .heap_allocs;
#endif
}

Args parse_args(int argc, char** argv) {
  Args a;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      a.workload = value(i);
    } else if (flag == "--seed") {
      a.seed = std::stoull(value(i));
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value(i));
    } else if (flag == "--trace") {
      const std::string t = value(i);
      if (t != "0" && t != "1")
        throw std::invalid_argument("--trace expects 0 or 1");
      a.trace = t == "1";
    } else if (flag == "--count-allocs") {
      a.count_allocs = true;
    } else if (flag == "--sweep-spec") {
      a.sweep_spec = value(i);
    } else if (flag == "--work-dir") {
      a.work_dir = value(i);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  // One work directory per perfbench process; removed when it finishes.
  a.work_dir.append("/").append(std::to_string(getpid()));
  return a;
}

int run(const Args& args) {
  const EngineWorkload* w = nullptr;
  for (const EngineWorkload& e : engine_workloads())
    if (e.name == args.workload) w = &e;
  if (w == nullptr && args.workload != "sweep")
    throw std::invalid_argument("unknown workload " + args.workload);
  if (args.count_allocs) {
    const std::uint64_t n = count_allocs(args, w);
    std::filesystem::remove_all(args.work_dir);
    std::cout << n << std::endl;
    return 0;
  }
  Metrics out;
  Tally tally;
  if (w == nullptr) {
    args.trace ? sweep_traced(args, out, tally)
               : sweep_end_to_end(args, out, tally);
  } else {
    args.trace ? engine_traced(args, *w, out, tally)
               : engine_end_to_end(args, *w, out, tally);
  }
  std::filesystem::remove_all(args.work_dir);
  out.print(tally);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    std::error_code ignored;
    std::filesystem::remove_all(args.work_dir, ignored);
    return 1;
  }
}
