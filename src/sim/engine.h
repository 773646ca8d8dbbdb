// The synchronous simulation engine: drives Communicate-Compute-Move rounds
// over an adversary-controlled 1-interval connected dynamic graph until the
// configuration is dispersed (or a round budget runs out).
//
// Round r (Section II + Section VII):
//   0. robots scheduled to crash *before* Communicate vanish;
//   1. the adversary emits G_r (trap adversaries may first dry-run the
//      robots through the installed plan probe);
//   2. Communicate: packets are assembled per the communication model and
//      1-neighborhood switch, and every alive robot observes its view;
//   3. Compute: each alive robot's step() returns an exit port;
//   4. robots scheduled to crash *after* Communicate vanish (they computed,
//      and other robots planned around them, but they do not move);
//   5. Move: remaining moves are applied simultaneously; persistent memory
//      is metered.
// Dispersion is detected between rounds (global communication makes this
// detectable by the robots themselves; for local algorithms the engine's
// check is an external oracle that merely stops the clock).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/validator.h"
#include "robots/configuration.h"
#include "sim/algorithm.h"
#include "sim/byzantine.h"
#include "sim/fault.h"
#include "sim/memory_meter.h"
#include "sim/round_context.h"
#include "sim/sensing.h"
#include "sim/trace.h"
#include "util/contract.h"
#include "util/rng.h"
#include "util/types.h"

namespace dyndisp {

class ThreadPool;

/// Robot activation models. The paper is synchronous (every robot executes
/// every CCM round); kRandomSubset is the semi-synchronous exploration the
/// paper names as future work -- each round every alive robot is activated
/// independently with a fixed probability (at least one robot is always
/// activated so no round is entirely empty). Inactive robots neither
/// compute nor move, but they remain physically present: they are sensed,
/// counted, and their node still broadcasts its packet.
enum class Activation {
  kSynchronous,
  kRandomSubset,
  /// Exactly one alive robot is activated per round, cycling by ID -- the
  /// sequential scheduler, the harshest classical weakening of synchrony
  /// (every async execution is a sequence of single activations).
  kRoundRobin,
};

/// Everything an in-engine invariant oracle may inspect about one executed
/// round, assembled after the Move phase and before the round's artifacts
/// are recycled. All references are valid only during the checker call.
struct RoundSnapshot {
  Round round = 0;
  const Graph& graph;           ///< G_r as emitted by the adversary.
  const Configuration& before;  ///< Configuration at the start of the round.
  const Configuration& after;   ///< Configuration after the Move phase.
  const MovePlan& plan;         ///< Exit ports chosen (id-1 indexed).
  /// Nodes occupied this round that had never been occupied before.
  std::size_t newly_occupied = 0;
  bool crashed_this_round = false;
  /// Peak metered persistent memory over the run so far, in bits.
  std::size_t max_memory_bits = 0;
};

/// Raised by the engine when a per-round invariant fails: either its own
/// round-graph validation (oracle "round-graph") or a user-installed
/// invariant_checker. Derives std::runtime_error so existing catch sites
/// keep working; carries the round and the oracle name so a fuzzer can
/// shrink toward the exact violation it first observed.
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(Round round, std::string oracle, const std::string& what)
      : std::runtime_error(what), round_(round), oracle_(std::move(oracle)) {}

  Round round() const { return round_; }
  const std::string& oracle() const { return oracle_; }

 private:
  Round round_;
  std::string oracle_;
};

/// Per-round invariant hook: inspect the snapshot and throw
/// InvariantViolation to abort the run at the offending round. Returning
/// normally means the round passed.
using InvariantChecker = std::function<void(const RoundSnapshot&)>;

struct EngineOptions {
  CommModel comm = CommModel::kGlobal;
  bool neighborhood_knowledge = true;
  Activation activation = Activation::kSynchronous;
  /// Per-robot, per-round activation probability under kRandomSubset.
  double activation_probability = 1.0;
  std::uint64_t activation_seed = 1;
  /// Hard stop; impossibility benches use this as the containment horizon.
  Round max_rounds = 100000;
  /// Validate every adversary-emitted graph (connectivity, ports, |V|).
  /// An unchanged graph that already passed is not re-validated.
  bool validate_graphs = true;
  /// Record a full per-round trace (heavy).
  bool record_trace = false;
  /// Record per-round heap-allocation counts into
  /// RunResult::allocs_per_round, windowed so the recording itself never
  /// lands inside a measured round. Counts are real only in binaries that
  /// install the util/memprobe.h operator-new hook
  /// (DYNDISP_MEMPROBE_DEFINE_GLOBAL_NEW); elsewhere every entry is 0.
  /// This is the runtime twin of the hotpath-alloc lint rule: the
  /// steady-state zero-allocation test pins warmed-up rounds to exactly 0
  /// through this option.
  bool alloc_probe = false;
  /// Record per-round occupied counts (cheap) for progress plots.
  bool record_progress = false;
  /// Allow running an algorithm whose declared requirements exceed what the
  /// options provide (used deliberately by the impossibility experiments).
  bool allow_model_mismatch = false;
  /// Byzantine liars (future-work exploration): tampers the packet layer
  /// and/or overrides the liars' moves. Null = all robots honest.
  std::shared_ptr<const ByzantineModel> byzantine;
  /// Per-round invariant oracle (src/check wires the lemma oracles through
  /// this). Called after every executed round's Move phase; throws
  /// InvariantViolation to stop the run at the offending round. Null = off.
  InvariantChecker invariant_checker;
  /// Wire-format observer: called once per executed global-communication
  /// round, right after the round's broadcast is published (post-tamper --
  /// it sees exactly what the robots receive), with the round number, the
  /// packet count, the metered wire bits, and the order-sensitive
  /// packet_set_digest of the full broadcast. The golden packet-trace
  /// fixtures replay runs through this hook; it observes, never mutates.
  /// Null = off.
  std::function<void(Round, std::size_t, std::size_t, std::uint64_t)>
      packet_observer;
  /// Compute-phase fan-out: packet assembly, view assembly, and step() calls
  /// are spread over this many threads (1 = fully serial, no pool). Results
  /// are bitwise identical at any value: robots only read the round's shared
  /// artifacts and mutate their own state, and every parallel loop writes to
  /// index-owned slots under a static partition.
  std::size_t threads = 1;
};

/// Round-loop reuse effectiveness, counted (not estimated) per run.
/// Observability only: these fields are deliberately excluded from run
/// digests (check/trial.cpp) and campaign records, so a change in how often
/// a reuse path fires can never change a correctness-compared output. The
/// exclusion is machine-checked: the DYNDISP_STATS tag makes any read of
/// these fields inside a digest/serialize function a digest-exclusion
/// finding.
struct DYNDISP_STATS RoundLoopStats {
  std::size_t same_graph_rounds = 0;    ///< Rounds where G_r == G_{r-1}.
  std::size_t graph_reuses = 0;         ///< next_graph calls skipped (hint).
  std::size_t validations_skipped = 0;  ///< Re-validations of an unchanged graph skipped.
  std::size_t broadcasts_reused = 0;    ///< Previous broadcast republished by handle.
  std::size_t broadcast_deltas = 0;     ///< Broadcasts delta-assembled.
  std::size_t packets_copied = 0;       ///< Packets copied on delta rounds.
  std::size_t packets_rebuilt = 0;      ///< Packets rebuilt on delta rounds.
  std::size_t state_handles_reused = 0; ///< Unchanged serialized states kept by handle.
  std::size_t node_state_lists_reused = 0;  ///< Per-node state lists kept by handle.
  std::size_t scratch_reuses = 0;       ///< Round buffers refilled in place.
  std::size_t occupancy_words = 0;      ///< Words per occupancy bitset (ceil(n/64)).
  /// Always 0: the cross-round plan cache these counted is gone (every
  /// plan-cache miss re-plans from the round's packets). Kept only because
  /// the benchmark still reads them for its core.sc_hit_ratio metric.
  std::uint64_t sc_exact_hits = 0;
  std::uint64_t sc_delta_rounds = 0;
  /// Per-phase wall-time buckets, milliseconds summed over every executed
  /// round (util/phase_clock.h; observability only, digest-excluded like
  /// everything here). graph_build covers the adversary's next_graph plus
  /// round-graph validation; broadcast covers packet assembly/reuse/delta;
  /// plan is the planner-side share of the compute phase (PlanCache miss
  /// work: Algorithm 1-3 structures + Algorithm 4 plan derivation,
  /// process-wide accumulator deltas); compute is the compute phase's
  /// remainder (view assembly + robot steps); move covers the Move phase
  /// and end-of-round state refresh/metering.
  double phase_graph_build_ms = 0;
  double phase_broadcast_ms = 0;
  double phase_plan_ms = 0;
  double phase_compute_ms = 0;
  double phase_move_ms = 0;
};

struct RunResult {
  bool dispersed = false;
  Round rounds = 0;                 ///< Rounds executed until dispersion/stop.
  std::size_t k = 0;                ///< Robots at the start.
  std::size_t initial_occupied = 0; ///< Distinct occupied nodes in Conf_0.
  std::size_t crashed = 0;          ///< Robots that crashed during the run.
  std::size_t total_moves = 0;      ///< Edge traversals performed.
  std::size_t max_memory_bits = 0;  ///< Peak persistent state, any robot.
  std::size_t packets_sent = 0;     ///< Info packets broadcast (global comm).
  std::size_t packet_bits_sent = 0; ///< Total wire bits of those packets.
  /// Rounds in which no previously-unoccupied node was newly occupied while
  /// a multiplicity node existed (Lemma 7 says 0 for Algorithm 4).
  std::size_t stalled_rounds = 0;
  /// Max occupied-node count ever reached (impossibility containment).
  std::size_t max_occupied = 0;
  /// Nodes visited (occupied at least once) over the whole run -- the
  /// exploration metric of the paper's related problem ("a solution to
  /// exploration is enough to solve DISPERSION but the reverse may not be
  /// true": dispersion can finish with explored_nodes < n when k < n).
  std::size_t explored_nodes = 0;
  /// First round after which every node had been visited; kNeverExplored
  /// when exploration did not complete within the run.
  static constexpr Round kNeverExplored = static_cast<Round>(-1);
  Round exploration_round = kNeverExplored;
  Configuration final_config;
  std::vector<std::size_t> occupied_per_round;  ///< If record_progress.
  /// Heap allocations per executed round (if alloc_probe; see the option
  /// for the hook caveat). Observability only, like stats.
  std::vector<std::uint64_t> allocs_per_round;
  Trace trace;                                  ///< If record_trace.
  RoundLoopStats stats;  ///< Reuse counters; excluded from digests/records.
};

class Engine {
 public:
  /// `initial.robot_count()` robots are instantiated through `factory`.
  Engine(Adversary& adversary, Configuration initial,
         const AlgorithmFactory& factory, EngineOptions options,
         FaultSchedule faults = FaultSchedule::none());

  ~Engine();  // out of line: ThreadPool is forward-declared here

  /// Runs to dispersion or the round budget; returns the collected result.
  RunResult run();

  /// Name of the algorithm under simulation (from robot 1's instance).
  std::string algorithm_name() const;

 private:
  Adversary& adversary_;
  Configuration conf_;
  EngineOptions options_;
  FaultSchedule faults_;
  std::vector<std::unique_ptr<RobotAlgorithm>> robots_;  // index id-1
  /// Non-owning view of robots_, built once: the compute phase hands
  /// plan_on a raw-pointer span every round, and rebuilding the vector per
  /// round was a per-round allocation (probes still build their own from
  /// clones).
  std::vector<RobotAlgorithm*> raw_robots_;
  MemoryMeter meter_;
  Round probe_round_ = 0;  ///< Round whose graph the adversary is building.

  /// Port through which each robot entered its current node (id-1 indexed).
  std::vector<Port> arrival_ports_;

  /// Activation mask for the round being executed (id-1 indexed); shared
  /// with plan probes so the adversary sees the true schedule.
  std::vector<bool> active_;
  Rng activation_rng_{1};
  std::size_t round_robin_cursor_ = 0;  ///< Last activated ID (kRoundRobin).

  /// Each robot's serialized start-of-round state (id-1 indexed), refreshed
  /// at the end of every round a robot steps in. Shared zero-copy with the
  /// round's views through the RoundContext, and metered directly -- the
  /// one serialization per robot per round the simulation performs.
  std::vector<StateHandle> states_;
  std::vector<std::size_t> state_bits_;  ///< Bit counts of states_ entries.
  BitWriter state_writer_;  ///< Reused serialization sink (refresh_state).

  /// The field-wise OR of every robot's declared ViewNeeds, and the
  /// persistent per-robot view arena plan_on fills in place (mutable: plan
  /// probes are const and share it -- probes and the real compute phase run
  /// strictly sequentially).
  ViewNeeds needs_;
  mutable std::vector<RobotView> views_arena_;

  /// Compute-phase pool (null when options_.threads <= 1).
  std::unique_ptr<ThreadPool> pool_;

  /// The executing round's shared artifacts; set by run() before the
  /// adversary (and its plan probes) are consulted.
  const RoundContext* round_ctx_ = nullptr;

  /// Round-loop persistence. ctx_ lives across rounds so its buffers are
  /// reused; graph_ holds G_{r-1} for same-graph detection and deltas;
  /// graph_validated_/validated_fp_ remember whether graph_ already passed
  /// validate_round_graph.
  RoundContext ctx_;
  Graph graph_;
  /// Double buffer for adversary emission: next_graph_into fills this (the
  /// round-before-last's graph, whose row capacities regenerating
  /// adversaries recycle) and a swap promotes it to graph_.
  Graph scratch_graph_;
  bool have_graph_ = false;
  bool graph_validated_ = false;
  std::uint64_t validated_fp_ = 0;
  RoundGraphScratch validate_scratch_;  ///< Retained validation buffers.
  Graph::Delta graph_delta_;         ///< Scratch: G_r vs G_{r-1}.
  std::vector<NodeId> dirty_nodes_;  ///< Scratch: delta-assembly dirty set.
  MovePlan plan_buf_;                ///< Retained compute-phase plan buffer.
  std::size_t state_handles_reused_ = 0;  ///< refresh_state byte-equal keeps.

  /// Dry-runs all alive robots' compute phases on a candidate graph,
  /// reusing the current round's context (state snapshots, node index).
  MovePlan probe_plan(const Graph& candidate) const;

  /// Runs the real compute phase on `g`, mutating robot state. Returns
  /// the retained plan_buf_ (refilled in place each round; valid until the
  /// next compute_plan call).
  MovePlan& compute_plan(const Graph& g, Round round, const RoundContext& ctx);

  /// Views are assembled for ALL robots first (so state exchange reflects
  /// the synchronous start-of-round snapshot), then every robot steps.
  /// `packets` is the (possibly candidate) broadcast for `g`; shared round
  /// artifacts come from `ctx`. Views are filled in place into
  /// `view_arena`'s slots under `needs` gating.
  /// `plan` is an out-parameter refilled via assign() so the round loop's
  /// retained buffer never reallocates in steady state.
  static void plan_on(const Graph& g, const Configuration& conf,
                      Round round, const EngineOptions& options,
                      const std::vector<Port>& arrival_ports,
                      const std::vector<bool>& active,
                      const std::vector<RobotAlgorithm*>& robots,
                      const RoundContext& ctx, PacketSet packets,
                      ThreadPool* pool, std::vector<RobotView>& view_arena,
                      const ViewNeeds& needs, MovePlan& plan);

  /// Re-serializes robot `id`'s persistent state into states_.
  void refresh_state(RobotId id);

  /// Draws the activation mask for one round per options_.activation.
  void draw_activation();
};

}  // namespace dyndisp
