// RoundContext: the per-round shared artifacts, each assembled exactly once
// -- and, across rounds, assembled incrementally where the configuration and
// graph permit.
//
// One CCM round under global communication needs three shared products:
//   * the node -> alive-robots index (robots_by_node),
//   * the per-occupied-node lists of serialized start-of-round states that
//     co-located robots exchange during Communicate, and
//   * the packet broadcast for the round's graph, with its wire-bit size.
// The seed engine rebuilt the index and the broadcast twice per round (once
// to meter bits, once to plan) and deep-copied state bytes into every view;
// RoundContext assembles each exactly once and hands out reference-counted
// handles instead.
//
// Since the delta-aware round loop (see docs/PERFORMANCE.md), one context
// PERSISTS across the whole run: begin_round() rebuilds the index into
// retained buffers (no per-round reallocation), diffs it against the
// previous round to expose which nodes' occupancy changed, keeps unchanged
// nodes' state lists by handle, and lets the engine choose between three
// broadcast paths -- full assembly, handle reuse (identical graph and
// occupancy), or delta assembly (rebuild only the packets whose content can
// have changed, copy the rest from the previous broadcast). Every path
// produces a broadcast bitwise identical to full assembly; the engine's
// packets_sent / packet_bits_sent accounting is identical on all paths.
// Counters (not guesses) report how often each reuse actually fired.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/byzantine.h"
#include "sim/sensing.h"
#include "util/contract.h"

namespace dyndisp {

class ThreadPool;

class RoundContext {
 public:
  /// An empty context; call begin_round before use.
  RoundContext() = default;

  /// One-shot construction (tests / single-round uses): equivalent to
  /// default-constructing and calling begin_round once.
  RoundContext(const Configuration& conf,
               const std::vector<StateHandle>& states) {
    begin_round(conf, states);
  }

  /// Starts a round: rebuilds the node index (into retained buffers), diffs
  /// occupancy against the previous round, refreshes the per-node state
  /// lists (unchanged nodes keep their list handle when every member's
  /// state handle is unchanged), and retires the previous round's broadcast
  /// into the delta-assembly source. `states` holds every robot's
  /// serialized start-of-round state (id-1 indexed; dead robots' entries
  /// are unused) and must outlive the round. `build_state_lists` = false
  /// skips the per-node state-list refresh entirely -- legal only when no
  /// view of the round will read colocated_states (the engine derives this
  /// from the run's aggregated ViewNeeds).
  void begin_round(const Configuration& conf,
                   const std::vector<StateHandle>& states,
                   bool build_state_lists = true);

  const NodeIndex& index() const { return index_; }

  /// The shared state list of node `v` (null for unoccupied nodes), parallel
  /// to index()[v]. Every view assembled on `v` attaches this same handle.
  const std::shared_ptr<const std::vector<StateHandle>>& node_states(
      NodeId v) const {
    return node_states_[v];
  }

  /// True when any node's alive-robot list differs from the previous round
  /// (always true on the first round).
  bool occupancy_changed() const { return occupancy_changed_; }

  /// Nodes whose alive-robot list changed since the previous round,
  /// ascending -- including nodes that became empty.
  const std::vector<NodeId>& changed_nodes() const { return changed_nodes_; }

  /// Assembles the packet broadcast for the round's actual graph exactly
  /// once: wire bits are metered during assembly (pre-tamper, matching the
  /// honest-wire-cost metric), then the optional Byzantine model corrupts
  /// the set, and the result is frozen behind the shared handle every view
  /// of the round receives. Call at most one broadcast path per round.
  void assemble_packets(const Graph& g, const Configuration& conf,
                        bool with_neighborhood, const ByzantineModel* byzantine,
                        ThreadPool* pool);

  /// Republishes the previous round's broadcast handle unchanged. Only
  /// legal when the graph and every node's occupancy are unchanged (the
  /// broadcast is a pure function of both) -- the engine checks; tampered
  /// (Byzantine) broadcasts are never republished.
  /// Requires has_prev_packets().
  void reuse_packets();

  /// Delta assembly: packets of senders in `dirty_nodes` (ascending; the
  /// closure of occupancy and adjacency changes) are rebuilt from `g`, all
  /// other packets are copied from the previous broadcast together with
  /// their metered bit sizes (headers and neighbor entries rebased, each
  /// clean packet's pool slice copied contiguously). The result --
  /// content, canonical sender order, and wire-bit total -- is bitwise
  /// identical to assemble_packets on the same inputs without a Byzantine
  /// model.
  /// Requires has_prev_packets().
  void delta_packets(const Graph& g, const Configuration& conf,
                     bool with_neighborhood,
                     const std::vector<NodeId>& dirty_nodes, ThreadPool* pool);

  /// True when the previous round produced a broadcast the delta paths can
  /// source from.
  bool has_prev_packets() const { return static_cast<bool>(prev_packets_); }

  /// Builds a broadcast for a candidate graph a trap adversary probes,
  /// without touching the context's own broadcast. Tampering applies (the
  /// adversary predicts what the robots will actually receive). Candidate
  /// sets go into a fresh, unpooled arena: probes are rare, and keeping
  /// them off the pool means a probe can never contend with the round's own
  /// refill.
  PacketSet assemble_candidate_packets(const Graph& g,
                                       const Configuration& conf,
                                       bool with_neighborhood,
                                       const ByzantineModel* byzantine,
                                       ThreadPool* pool) const;

  /// The round's broadcast; falsy until a broadcast path ran (or under
  /// local communication, where no packets propagate).
  const PacketSet& packets() const { return packets_; }

  /// Packets in the round's broadcast (== occupied nodes).
  std::size_t packet_count() const { return packets_.size(); }

  /// Total wire bits of the round's broadcast, metered during assembly (or
  /// carried over exactly on the reuse/delta paths).
  std::size_t packet_bits() const { return packet_bits_; }

  /// Reuse effectiveness, counted (cumulative over the context's lifetime).
  /// Observability only (DYNDISP_STATS, see util/contract.h): the
  /// digest-exclusion lint rule keeps these fields out of result digests.
  struct DYNDISP_STATS Counters {
    std::size_t node_state_lists_reused = 0;  ///< Lists kept by handle.
    std::size_t packets_copied = 0;    ///< Packets copied on delta rounds.
    std::size_t packets_rebuilt = 0;   ///< Packets rebuilt on delta rounds.
    std::size_t scratch_reuses = 0;    ///< Round buffers refilled in place.
  };
  const Counters& counters() const { return counters_; }

 private:
  /// An arena free for refilling: a pooled buffer nothing else references
  /// (use_count() == 1 -- a buffer pinned by a view or the plan-cache key
  /// is skipped BY CONSTRUCTION, so in-place refill can never corrupt a
  /// broadcast someone still reads), else a fresh one.
  /// The pool is capped; overflow buffers are simply not retained.
  std::shared_ptr<PacketArena> acquire_arena();

  NodeIndex index_;
  NodeIndex prev_index_;  ///< Double buffer: last round's index.
  bool first_round_ = true;

  std::vector<std::shared_ptr<const std::vector<StateHandle>>> node_states_;
  std::vector<NodeId> changed_nodes_;
  bool occupancy_changed_ = true;

  PacketSet packets_;
  PacketSet prev_packets_;
  /// Retained arena buffers cycled through acquire_arena(). Small and
  /// bounded: the current and previous broadcasts plus the one the plan
  /// cache's key pins.
  std::vector<std::shared_ptr<PacketArena>> arena_pool_;
  /// Wire bits / sender node of each packet, aligned to packets_ order (and
  /// the prev_ pair to prev_packets_). Only maintained on untampered
  /// broadcasts -- the delta paths' sources.
  std::vector<std::size_t> packet_bits_each_, prev_packet_bits_each_;
  std::vector<NodeId> packet_nodes_, prev_packet_nodes_;
  std::size_t packet_bits_ = 0;
  std::size_t prev_packet_bits_ = 0;

  std::vector<std::int32_t> node_to_prev_;  ///< Scratch: node -> prev index.
  Counters counters_;
};

}  // namespace dyndisp
