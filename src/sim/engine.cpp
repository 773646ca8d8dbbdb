#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/planner.h"
#include "util/memprobe.h"
#include "util/parallel.h"
#include "util/phase_clock.h"

namespace dyndisp {

Engine::Engine(Adversary& adversary, Configuration initial,
               const AlgorithmFactory& factory, EngineOptions options,
               FaultSchedule faults)
    : adversary_(adversary),
      conf_(std::move(initial)),
      options_(options),
      faults_(std::move(faults)) {
  if (adversary_.node_count() != conf_.node_count()) {
    throw std::invalid_argument(
        "engine: adversary and configuration disagree on node count");
  }
  const std::size_t k = conf_.robot_count();
  robots_.reserve(k);
  for (RobotId id = 1; id <= k; ++id) robots_.push_back(factory(id, k));
  raw_robots_.reserve(k);
  for (const auto& r : robots_) raw_robots_.push_back(r.get());
  arrival_ports_.assign(k, kInvalidPort);
  active_.assign(k, true);
  states_.assign(k, nullptr);
  state_bits_.assign(k, 0);
  activation_rng_ = Rng(options_.activation_seed);
  // Aggregate view needs: a field is assembled if ANY robot declares it.
  if (!robots_.empty()) {
    needs_ = robots_.front()->view_needs();
    for (std::size_t i = 1; i < robots_.size(); ++i)
      needs_.merge(robots_[i]->view_needs());
  }
  if (options_.threads > 1) pool_ = std::make_unique<ThreadPool>(options_.threads);
  // Adversaries with counter-stream builders fan graph construction over
  // the compute pool (byte-identical at any lane count; null = serial).
  adversary_.set_thread_pool(pool_.get());
  if (!options_.allow_model_mismatch && !robots_.empty()) {
    const RobotAlgorithm& proto = *robots_.front();
    if (proto.requires_global_comm() && options_.comm != CommModel::kGlobal) {
      throw std::invalid_argument("engine: " + proto.name() +
                                  " requires global communication");
    }
    if (proto.requires_neighborhood() && !options_.neighborhood_knowledge) {
      throw std::invalid_argument("engine: " + proto.name() +
                                  " requires 1-neighborhood knowledge");
    }
  }
}

Engine::~Engine() = default;

std::string Engine::algorithm_name() const {
  return robots_.empty() ? "(none)" : robots_.front()->name();
}

void Engine::refresh_state(RobotId id) {
  BitWriter& w = state_writer_;
  w.clear();
  robots_[id - 1]->serialize(w);
  state_bits_[id - 1] = w.bit_count();
  // Settled robots re-serialize to identical bytes round after round; keep
  // the existing handle then, so downstream pointer-equality reuse (per-node
  // state lists, and through them whole views) fires. Byte-compare decides
  // -- a changed state always gets a fresh handle.
  const StateHandle& slot = states_[id - 1];
  if (slot && *slot == w.bytes()) {
    ++state_handles_reused_;
    return;
  }
  states_[id - 1] = std::make_shared<const std::vector<std::uint8_t>>(w.bytes());
}

void Engine::plan_on(const Graph& g, const Configuration& conf,
                     Round round, const EngineOptions& options,
                     const std::vector<Port>& arrival_ports,
                     const std::vector<bool>& active,
                     const std::vector<RobotAlgorithm*>& robots,
                     const RoundContext& ctx, PacketSet packets,
                     ThreadPool* pool, std::vector<RobotView>& views,
                     const ViewNeeds& needs, MovePlan& plan) {
  const bool neighborhood = options.neighborhood_knowledge;
  const std::size_t k = conf.robot_count();

  // Phase 1: assemble all views against the synchronous snapshot. Each view
  // attaches the round's shared packet and state handles; nothing is copied
  // per robot beyond its own neighborhood scan. Each robot's slot of the
  // persistent view arena is refilled in place (vector capacities survive
  // across rounds) and fields outside the run's declared needs are skipped.
  if (views.size() != k) views.resize(k);
  parallel_for(pool, k, [&](std::size_t i) {
    const RobotId id = static_cast<RobotId>(i + 1);
    if (!conf.alive(id) || !active[i]) return;
    RobotView& view = views[i];
    fill_view(view, g, conf, id, round, options.comm, neighborhood, packets,
              ctx.index(), needs);
    view.arrival_port = arrival_ports[i];
    if (needs.colocated_states)
      view.colocated_states = ctx.node_states(conf.position(id));
  });

  // Phase 2: every robot computes; state mutations cannot leak into views
  // (robots mutate only their own state, so the fan-out is race-free).
  plan.assign(k, kInvalidPort);
  parallel_for(pool, k, [&](std::size_t i) {
    const RobotId id = static_cast<RobotId>(i + 1);
    if (!conf.alive(id) || !active[i]) return;
    const Port p = robots[i]->step(views[i]);
    if (p != kInvalidPort && p > views[i].degree) {
      std::ostringstream os;
      os << "robot " << id << " chose invalid port " << p << " (degree "
         << views[i].degree << ") in round " << round;
      throw std::runtime_error(os.str());
    }
    plan[i] = options.byzantine
                  ? options.byzantine->override_move(id, p, views[i].degree,
                                                     round)
                  : p;
  });
}

MovePlan Engine::probe_plan(const Graph& candidate) const {
  assert(round_ctx_ != nullptr &&
         "probes only run while the engine is constructing a round");
  // Clone every robot so the dry run leaves persistent state untouched --
  // the adversary predicts, it does not perturb. State snapshots and the
  // node index are reused from the round context; only the candidate's own
  // packet broadcast is assembled.
  std::vector<std::unique_ptr<RobotAlgorithm>> clones;
  clones.reserve(robots_.size());
  std::vector<RobotAlgorithm*> raw;
  raw.reserve(robots_.size());
  for (const auto& r : robots_) {
    clones.push_back(r->clone());
    raw.push_back(clones.back().get());
  }
  PacketSet packets;
  if (options_.comm == CommModel::kGlobal) {
    packets = round_ctx_->assemble_candidate_packets(
        candidate, conf_, options_.neighborhood_knowledge,
        options_.byzantine.get(), pool_.get());
  }
  // The probe round number equals the round being constructed; the engine
  // stores it in probe_round_ via the lambda installed in run().
  MovePlan plan;
  plan_on(candidate, conf_, probe_round_, options_, arrival_ports_, active_,
          raw, *round_ctx_, std::move(packets), pool_.get(), views_arena_,
          needs_, plan);
  return plan;
}

MovePlan& Engine::compute_plan(const Graph& g, Round round,
                               const RoundContext& ctx) {
  plan_on(g, conf_, round, options_, arrival_ports_, active_, raw_robots_,
          ctx, ctx.packets(), pool_.get(), views_arena_, needs_, plan_buf_);
  return plan_buf_;
}

void Engine::draw_activation() {
  if (options_.activation == Activation::kSynchronous) {
    std::fill(active_.begin(), active_.end(), true);
    return;
  }
  if (options_.activation == Activation::kRoundRobin) {
    std::fill(active_.begin(), active_.end(), false);
    // Cycle to the next alive robot after the previous activation.
    const std::size_t k = conf_.robot_count();
    for (std::size_t step = 0; step < k; ++step) {
      round_robin_cursor_ = (round_robin_cursor_ % k) + 1;  // 1..k
      if (conf_.alive(static_cast<RobotId>(round_robin_cursor_))) {
        active_[round_robin_cursor_ - 1] = true;
        return;
      }
    }
    return;  // nobody alive
  }
  bool any = false;
  RobotId first_alive = kNoRobot;
  for (RobotId id = 1; id <= conf_.robot_count(); ++id) {
    const bool alive = conf_.alive(id);
    if (alive && first_alive == kNoRobot) first_alive = id;
    active_[id - 1] =
        alive && activation_rng_.chance(options_.activation_probability);
    any |= active_[id - 1];
  }
  // Fair scheduler guarantee: at least one alive robot acts per round.
  if (!any && first_alive != kNoRobot) active_[first_alive - 1] = true;
}

RunResult Engine::run() {
  RunResult res;
  res.k = conf_.robot_count();
  res.initial_occupied = conf_.occupied_count();
  res.max_occupied = res.initial_occupied;

  const auto finalize_stats = [&]() {
    const RoundContext::Counters& rc = ctx_.counters();
    res.stats.packets_copied = rc.packets_copied;
    res.stats.packets_rebuilt = rc.packets_rebuilt;
    res.stats.node_state_lists_reused = rc.node_state_lists_reused;
    res.stats.scratch_reuses = rc.scratch_reuses;
    res.stats.state_handles_reused = state_handles_reused_;
  };

  // Exploration tracking on occupancy bitset words: ever-occupied is the
  // running OR of the configuration's occupied words, and newly-occupied
  // counts are popcounts of occ & ~ever -- no per-node scan, no per-round
  // allocation.
  std::vector<std::uint64_t> ever_words = conf_.occupied_words();
  std::size_t explored = conf_.occupied_count();
  res.stats.occupancy_words = ever_words.size();
  if (explored == conf_.node_count()) res.exploration_round = 0;

  if (options_.record_progress)
    res.occupied_per_round.push_back(conf_.occupied_count());

  // Initial snapshot: every robot's state serialized once before round 0.
  for (RobotId id = 1; id <= conf_.robot_count(); ++id)
    if (conf_.alive(id)) refresh_state(id);

  for (Round r = 0; r < options_.max_rounds; ++r) {
    // Allocation window: opened as the loop body's first statement and
    // closed (with its push_back) as the last, so the probe's own recording
    // never lands inside any measured round.
    const std::uint64_t round_allocs_start = memprobe::allocation_count();
    for (const RobotId id : faults_.crashes_at(r, CrashPhase::kBeforeCommunicate)) {
      if (conf_.alive(id)) {
        conf_.kill(id);
        ++res.crashed;
      }
    }
    if (conf_.is_dispersed()) {
      res.dispersed = true;
      res.rounds = r;
      res.final_config = conf_;
      res.max_memory_bits = meter_.max_bits();
      res.explored_nodes = explored;
      finalize_stats();
      return res;
    }

    probe_round_ = r;
    draw_activation();
    // The round's shared artifacts: node index, occupancy diff, and state
    // lists -- rebuilt into the persistent context's retained buffers and
    // valid for every candidate graph probed this round. The state-list
    // refresh is skipped when no robot of the run reads exchanged states
    // (aggregated ViewNeeds).
    ctx_.begin_round(conf_, states_, needs_.colocated_states);
    round_ctx_ = &ctx_;
    if (adversary_.wants_plan_probe()) {
      adversary_.set_plan_probe(
          [this](const Graph& g) { return probe_plan(g); });
    }

    // Phase buckets (observability only; see RoundLoopStats). ph_* are
    // boundary timestamps: graph_build = [t0,t1), broadcast = [t1,t2),
    // compute phase = [t2,t3) split into plan (planner accumulator delta)
    // and the remainder, move = [t3,t4).
    const std::uint64_t ph_t0 = phase_clock_ns();
    bool same_graph = false;   // G_r provably operator== G_{r-1}
    bool small_delta = false;  // G_r near G_{r-1}; graph_delta_ holds the diff
    if (have_graph_ && adversary_.same_as_last(r, conf_)) {
      // Honest hint (conformance-tested per adversary): the graph the
      // adversary would emit equals the one it last emitted, which is
      // graph_. Skip constructing it at all.
      same_graph = true;
      ++res.stats.graph_reuses;
    } else {
      // Double-buffered emission: the adversary refills the round-before-
      // last's Graph in place (next_graph_into recycles its rows), and a
      // swap promotes it -- no per-round Graph allocation in steady state.
      adversary_.next_graph_into(r, conf_, scratch_graph_);
      const Graph& g = scratch_graph_;
      if (have_graph_) {
        if (g.fingerprint() == graph_.fingerprint() && g == graph_) {
          same_graph = true;
        } else {
          // Capped scan: a delta is only useful up to n/4 changed nodes
          // (beyond that full reassembly is cheaper), so churn-heavy rounds
          // abandon the comparison as soon as that is certain instead of
          // paying for a full edge-level diff.
          small_delta = g.changed_nodes_into(graph_, graph_delta_.changed_nodes,
                                             conf_.node_count() / 4);
        }
      }
      std::swap(graph_, scratch_graph_);
      have_graph_ = true;
      if (!same_graph) graph_validated_ = false;
    }
    if (same_graph) ++res.stats.same_graph_rounds;

    if (options_.validate_graphs) {
      const std::uint64_t fp = graph_.fingerprint();
      if (same_graph && graph_validated_ && validated_fp_ == fp) {
        // The identical graph already passed validation; re-running it
        // would re-derive the same verdict.
        ++res.stats.validations_skipped;
      } else if (std::string err =
                     validate_round_graph(graph_, conf_.node_count(),
                                          validate_scratch_);
                 !err.empty()) {
        round_ctx_ = nullptr;
        throw InvariantViolation(r, "round-graph",
                                 "adversary " + adversary_.name() +
                                     " emitted invalid graph in round " +
                                     std::to_string(r) + ": " + err);
      } else {
        graph_validated_ = true;
        validated_fp_ = fp;
      }
    }
    const std::uint64_t ph_t1 = phase_clock_ns();
    res.stats.phase_graph_build_ms += phase_ns_to_ms(ph_t1 - ph_t0);

    if (options_.comm == CommModel::kGlobal) {
      const bool can_source =
          options_.byzantine == nullptr && ctx_.has_prev_packets();
      if (can_source && same_graph && !ctx_.occupancy_changed()) {
        // Both broadcast inputs are unchanged: republish the previous
        // round's packets by handle, bits ledger and all.
        ctx_.reuse_packets();
        ++res.stats.broadcasts_reused;
      } else if (can_source && (same_graph || small_delta)) {
        // Delta reassembly. A sender's packet reads its own adjacency, its
        // own robots, and the robots on each CURRENT neighbor, so the dirty
        // set is: occupancy-changed nodes, their new-graph neighbors, and
        // (when the graph moved) every node whose adjacency changed. An
        // old-graph-only neighbor of v implies v's adjacency changed, so
        // the union covers that case too.
        dirty_nodes_.clear();
        for (const NodeId v : ctx_.changed_nodes()) {
          dirty_nodes_.push_back(v);
          for (Port p = 1; p <= graph_.degree(v); ++p)
            dirty_nodes_.push_back(graph_.neighbor(v, p));
        }
        if (!same_graph)
          for (const NodeId v : graph_delta_.changed_nodes)
            dirty_nodes_.push_back(v);
        std::sort(dirty_nodes_.begin(), dirty_nodes_.end());
        dirty_nodes_.erase(
            std::unique(dirty_nodes_.begin(), dirty_nodes_.end()),
            dirty_nodes_.end());
        ctx_.delta_packets(graph_, conf_, options_.neighborhood_knowledge,
                           dirty_nodes_, pool_.get());
        ++res.stats.broadcast_deltas;
      } else {
        // Single assembly per round: build the broadcast and meter its wire
        // bits in one pass, then share it with every view via handle.
        ctx_.assemble_packets(graph_, conf_, options_.neighborhood_knowledge,
                              options_.byzantine.get(), pool_.get());
      }
      res.packets_sent += ctx_.packet_count();
      res.packet_bits_sent += ctx_.packet_bits();
      if (options_.packet_observer) {
        options_.packet_observer(r, ctx_.packet_count(), ctx_.packet_bits(),
                                 packet_set_digest(ctx_.packets()));
      }
    }

    const std::uint64_t ph_t2 = phase_clock_ns();
    res.stats.phase_broadcast_ms += phase_ns_to_ms(ph_t2 - ph_t1);

    const std::uint64_t plan_ns_before = core::planner_time_ns();
    MovePlan& plan = compute_plan(graph_, r, ctx_);
    const std::uint64_t ph_t3 = phase_clock_ns();
    // The compute phase's planner share: exactly one robot pays the
    // PlanCache miss and derives the round's plan; the accumulator delta is
    // that derivation's wall time. The remainder is view assembly plus the
    // robots' own steps (clamped: with threads > 1 the per-lane planner
    // time can exceed the phase's elapsed wall time).
    const double plan_ms =
        phase_ns_to_ms(core::planner_time_ns() - plan_ns_before);
    const double compute_wall_ms = phase_ns_to_ms(ph_t3 - ph_t2);
    res.stats.phase_plan_ms += plan_ms;
    res.stats.phase_compute_ms +=
        compute_wall_ms > plan_ms ? compute_wall_ms - plan_ms : 0.0;
    round_ctx_ = nullptr;

    bool crashed_this_round =
        !faults_.crashes_at(r, CrashPhase::kBeforeCommunicate).empty();
    for (const RobotId id : faults_.crashes_at(r, CrashPhase::kAfterCommunicate)) {
      if (conf_.alive(id)) {
        conf_.kill(id);
        ++res.crashed;
        plan[id - 1] = kInvalidPort;
        crashed_this_round = true;
      }
    }

    // The Move phase needs no start-of-round snapshot: each robot's source
    // node is read from conf_ BEFORE its own write, and no robot reads
    // another robot's position. The full copy exists solely for observers
    // (invariant checkers, traces) and is elided when nothing observes it.
    Configuration before;
    if (options_.invariant_checker || options_.record_trace) before = conf_;
    for (RobotId id = 1; id <= conf_.robot_count(); ++id) {
      if (!conf_.alive(id)) continue;
      const Port p = plan[id - 1];
      if (p == kInvalidPort) continue;
      const HalfEdge& he = graph_.half_edge(conf_.position(id), p);
      conf_.set_position(id, he.to);
      arrival_ports_[id - 1] = he.reverse_port;
      ++res.total_moves;
    }

    // End of round: robots that stepped re-serialize (their state may have
    // changed); every alive robot's current state size is metered from the
    // stored bit counts -- no second serialization pass.
    for (RobotId id = 1; id <= conf_.robot_count(); ++id) {
      if (!conf_.alive(id)) continue;
      if (active_[id - 1]) refresh_state(id);
      meter_.record_bits(state_bits_[id - 1]);
    }
    res.stats.phase_move_ms += phase_ns_to_ms(phase_clock_ns() - ph_t3);

    std::size_t newly = 0;
    const std::vector<std::uint64_t>& occ_words = conf_.occupied_words();
    for (std::size_t w = 0; w < occ_words.size(); ++w) {
      const std::uint64_t fresh = occ_words[w] & ~ever_words[w];
      if (fresh == 0) continue;
      newly += static_cast<std::size_t>(std::popcount(fresh));
      ever_words[w] |= fresh;
    }
    explored += newly;
    if (explored == conf_.node_count() &&
        res.exploration_round == RunResult::kNeverExplored) {
      res.exploration_round = r + 1;
    }
    if (newly == 0 && !crashed_this_round) ++res.stalled_rounds;
    res.max_occupied = std::max(res.max_occupied, conf_.occupied_count());
    if (options_.record_progress)
      res.occupied_per_round.push_back(conf_.occupied_count());
    if (options_.invariant_checker) {
      // Oracles see the round exactly as executed: the emitted graph, both
      // configurations, the chosen plan, and the metered memory peak.
      options_.invariant_checker(RoundSnapshot{
          r, graph_, before, conf_, plan, newly, crashed_this_round,
          meter_.max_bits()});
    }
    if (options_.record_trace) {
      RoundRecord rec;
      rec.round = r;
      // Copy, not move: graph_ persists as the next round's G_{r-1}.
      rec.graph = graph_;
      rec.before = before;
      rec.moves = plan;  // Copy: plan_buf_ persists across rounds.
      rec.after = conf_;
      rec.newly_occupied = newly;
      res.trace.add(std::move(rec));
    }
    if (options_.alloc_probe) {
      res.allocs_per_round.push_back(memprobe::allocation_count() -
                                     round_allocs_start);
    }
  }

  res.dispersed = conf_.is_dispersed();
  res.rounds = options_.max_rounds;
  res.final_config = conf_;
  res.max_memory_bits = meter_.max_bits();
  res.explored_nodes = explored;
  finalize_stats();
  return res;
}

}  // namespace dyndisp
