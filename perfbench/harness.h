// Measurement harness of the dyndisp benchmark. Everything here times the
// library from the OUTSIDE, through public entry points only:
//
//   * TimedAdversary decorates any registry adversary, forwarding every
//     virtual and timing the graph-emission calls the engine makes;
//   * LayerReplay is an EngineOptions::invariant_checker that replays each
//     executed round's layer calls (broadcast, views, Algorithms 1-4, move)
//     on that round's real inputs and times each call;
//   * PeakRss resets the kernel's per-process RSS high-water mark so every
//     measured run reports its own peak.
//
// Replayed layer times measure the stateless cost of each layer on the
// round's real inputs; the engine pays that cost only on rounds its reuse
// paths do not serve (see README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "sim/engine.h"
#include "sim/packet_arena.h"
#include "sim/sensing.h"

namespace perfbench {

using namespace dyndisp;

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::uint64_t now_ns();

/// Adversary decorator: forwards every virtual to the wrapped adversary,
/// times next_graph/next_graph_into, counts same_as_last promises, and
/// wraps any plan probe the engine installs so probe calls are timed too.
/// Probes run inside the adversary's graph emission, so next_graph_ns
/// includes probe_ns.
class TimedAdversary final : public Adversary {
 public:
  struct Counters {
    std::uint64_t next_graph_ns = 0;
    std::uint64_t next_graph_calls = 0;
    std::uint64_t reuse_hints = 0;  ///< same_as_last calls answering true.
    std::uint64_t probe_ns = 0;
    std::uint64_t probes = 0;
  };

  explicit TimedAdversary(std::unique_ptr<Adversary> inner);

  std::string name() const override { return inner_->name(); }
  std::size_t node_count() const override { return inner_->node_count(); }
  Graph next_graph(Round r, const Configuration& conf) override;
  void next_graph_into(Round r, const Configuration& conf,
                       Graph& out) override;
  void set_thread_pool(ThreadPool* pool) override {
    inner_->set_thread_pool(pool);
  }
  bool same_as_last(Round r, const Configuration& conf) const override;
  bool wants_plan_probe() const override { return inner_->wants_plan_probe(); }
  void set_plan_probe(PlanProbe probe) override;

  const Counters& counters() const { return counters_; }

 private:
  std::unique_ptr<Adversary> inner_;
  mutable Counters counters_;  // same_as_last is const but counted
};

/// Per-layer totals accumulated by LayerReplay over a run.
struct LayerTotals {
  std::uint64_t rounds = 0;
  /// Wall time spent inside the replay, checks included: what the replay
  /// added to the traced run's Engine::run.
  std::uint64_t replay_ns = 0;
  std::uint64_t validate_ns = 0;
  std::uint64_t validations = 0;
  std::uint64_t broadcast_ns = 0;  ///< NodeIndex::build + assemble_arena_metered.
  std::uint64_t packets = 0;
  std::uint64_t packet_bits = 0;
  std::uint64_t view_ns = 0;
  std::uint64_t components_ns = 0;
  std::uint64_t components = 0;  ///< Trivial ones included.
  std::uint64_t multiplicity_components = 0;
  std::uint64_t trees_ns = 0;
  std::uint64_t paths_ns = 0;
  std::uint64_t paths_kept = 0;
  std::uint64_t plan_component_ns = 0;  ///< Includes its disjoint_paths call.
  std::uint64_t movers = 0;
  std::uint64_t move_ns = 0;
  std::uint64_t moves = 0;
  /// Rounds whose replayed mover set differed from the engine's plan.
  std::uint64_t mover_mismatches = 0;
  /// Rounds whose replayed apply_plan differed from the engine's result.
  std::uint64_t move_mismatches = 0;

  void add(const LayerTotals& o);
};

/// Replays one executed round's layer calls on the round's real inputs.
/// Install through install(); one instance per run (it keeps the
/// last-validated graph fingerprint and reusable buffers across rounds).
class LayerReplay {
 public:
  /// `k` robots, all running Algorithm 4 (its view_needs() gate the views).
  explicit LayerReplay(std::size_t k);

  void on_round(const RoundSnapshot& snap);
  const LayerTotals& totals() const { return totals_; }

 private:
  ViewNeeds needs_;
  NodeIndex index_;
  std::shared_ptr<PacketArena> arena_;
  std::vector<RobotView> views_;
  std::vector<RobotId> trivial_;
  std::vector<char> is_mover_;
  bool have_validated_ = false;
  std::uint64_t validated_fp_ = 0;
  LayerTotals totals_;
};

/// Sets `opt.invariant_checker` to feed `replay` (which must outlive the run).
void install(EngineOptions& opt, LayerReplay& replay);

/// The observable outcome of one run: what the correctness gates compare
/// between the serial, threaded and traced runs of one workload.
struct Outcome {
  bool dispersed = false;
  std::uint64_t k = 0;
  std::uint64_t rounds = 0;
  std::uint64_t total_moves = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packet_bits_sent = 0;
  std::uint64_t max_memory_bits = 0;
  std::uint64_t final_config_hash = 0;  ///< FNV-1a over alive/position.
  bool bounds_ok = false;  ///< Theorem 4 and Lemma 8 checks both clean.

  /// FNV-1a over every field above except bounds_ok: two runs agree
  /// exactly when their digests do.
  std::uint64_t digest() const;
};

/// Incremental FNV-1a, the digest behind Outcome::digest and the sweep's
/// record digest.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
  void mix(const std::string& s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(s.size());
  }
};

/// Summarizes `r`, running analysis::check_round_bound (Theorem 4) and
/// check_memory_bound (Lemma 8). `error` (optional) receives the first
/// violation.
Outcome summarize(const RunResult& r, std::string* error = nullptr);

/// Per-run peak resident set size, in MB.
class PeakRss {
 public:
  /// Returns the allocator's free memory to the OS and resets the kernel's
  /// VmHWM to the current RSS (writes "5" to /proc/self/clear_refs). True
  /// when the reset took: afterwards VmHWM no longer exceeds VmRSS.
  static bool reset();
  /// VmHWM of this process in MB (0 when /proc is unreadable).
  static double peak_mb();
};

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

}  // namespace perfbench
