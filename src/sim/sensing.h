// Sensing: assembles exactly what the model lets each robot observe.
//
// The combination of the two switches reproduces the paper's four model
// rows (Table I):
//   * CommModel::Local  + neighborhood  -> Theorem 1 setting (impossible)
//   * CommModel::Global + !neighborhood -> Theorem 2 setting (impossible)
//   * CommModel::Global + neighborhood  -> Algorithm 4 setting (Theta(k))
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "robots/configuration.h"
#include "sim/info_packet.h"
#include "sim/packet_arena.h"
#include "util/types.h"

namespace dyndisp {

class ThreadPool;

enum class CommModel {
  kLocal,   ///< A robot talks only to robots on its own node.
  kGlobal,  ///< A robot talks to every robot in the graph.
};

/// Reference-counted handle to one robot's serialized persistent state.
/// Serialized once per robot per round and shared by every view that carries
/// it; copying the byte vector per view would make crowded rounds Theta(k^2)
/// in state volume.
using StateHandle = std::shared_ptr<const std::vector<std::uint8_t>>;

/// Everything one robot observes in the Communicate phase of one round.
struct RobotView {
  RobotId self = kNoRobot;
  Round round = 0;
  std::size_t k = 0;              ///< Total number of robots (IDs in [1,k]).
  std::size_t degree = 0;         ///< Degree of the robot's node in G_r.
  std::size_t node_count = 0;     ///< Robots on the robot's node.
  std::vector<RobotId> colocated; ///< Alive robots here (incl. self), ascending.
  /// Port of the CURRENT node through which this robot entered when it last
  /// moved (Section II: "it is aware of ... the port of v it used to enter
  /// v"); kInvalidPort if the robot has not moved yet or stayed last round.
  /// Meaningful for static-graph algorithms; on dynamic graphs the edge may
  /// no longer exist.
  Port arrival_port = kInvalidPort;
  /// Serialized persistent states of the co-located robots, ascending by
  /// robot ID (parallel to `colocated`), as at the START of the round.
  /// Local communication lets same-node robots exchange arbitrary state;
  /// the DFS baselines read the settled robot's parent/rotor through this.
  /// The list is assembled once per occupied node and shared by every robot
  /// standing there (a zero-copy handle, like `shared_packets`); null when
  /// the engine has no states to exchange (bare make_view results).
  std::shared_ptr<const std::vector<StateHandle>> colocated_states;

  /// The serialized state of the i-th co-located robot (`colocated[i]`).
  const std::vector<std::uint8_t>& colocated_state(std::size_t i) const {
    return *(*colocated_states)[i];
  }

  bool neighborhood_knowledge = false;
  /// Occupied neighbors of the robot's own node, port-ascending.
  /// Populated only when neighborhood_knowledge is true.
  std::vector<NeighborInfo> occupied_neighbors;
  /// Number of empty (unoccupied) neighbors of the robot's own node.
  /// Populated only when neighborhood_knowledge is true.
  std::size_t empty_neighbor_count = 0;
  /// Ports of the robot's node leading to empty neighbors, ascending.
  std::vector<Port> empty_ports;

  bool global_comm = false;
  /// All packets in the system, ascending by sender ID (one per occupied
  /// node); truthy only when global_comm is true. Shared across the
  /// round's views (k robots receive the same broadcast; copying it per
  /// robot would make every round Theta(k^2) in packet volume). Read
  /// through PacketView.
  PacketSet shared_packets;

  /// The packet set (empty when local communication is in effect).
  const PacketSet& packets() const { return shared_packets; }
};

/// Per-round index: node -> alive robot IDs there, ascending. Building it
/// once per round turns the O(k) Configuration::robots_at scans inside
/// packet/view assembly into O(1) lookups.
using NodeRobots = std::vector<std::vector<RobotId>>;
NodeRobots robots_by_node(const Configuration& conf);

/// CSR (compressed sparse row) node -> alive-robots index: all robot IDs in
/// one contiguous array, per-node segments addressed by an offsets table.
/// Same content as robots_by_node, but two allocations total instead of one
/// vector per node, rebuilt in place by a counting sort -- allocation-free
/// in steady state. This is the engine round loop's index (the NodeRobots
/// form remains for tests and one-shot callers).
class NodeIndex {
 public:
  /// Rebuilds the index for `conf` (counting sort over alive robots; robot
  /// IDs ascend within each node's segment). Reuses retained buffers.
  void build(const Configuration& conf);

  std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  /// Alive robots on node v, ascending: [begin(v), end(v)).
  const RobotId* begin(NodeId v) const { return ids_.data() + offsets_[v]; }
  const RobotId* end(NodeId v) const { return ids_.data() + offsets_[v + 1]; }
  std::size_t count(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }
  bool empty(NodeId v) const { return count(v) == 0; }
  /// Total alive robots indexed.
  std::size_t total() const { return ids_.size(); }

 private:
  std::vector<std::uint32_t> offsets_;  // n + 1
  std::vector<RobotId> ids_;            // all alive robots, node-major
  std::vector<std::uint32_t> cursor_;   // build scratch
};

/// Which optional RobotView fields an algorithm's step() actually reads.
/// The engine's struct-of-arrays round loop skips assembling fields no
/// robot of the run declared -- skipping is observable only to a step()
/// that reads a field its algorithm disclaimed, so results are unchanged by
/// construction (and pinned by the golden packet traces). The all-true
/// default keeps unported algorithms on full views.
struct ViewNeeds {
  bool colocated = true;           ///< RobotView::colocated IDs.
  bool colocated_states = true;    ///< Exchanged per-node state lists.
  bool occupied_neighbors = true;  ///< Per-neighbor robot lists.
  bool empty_ports = true;         ///< Ports toward empty neighbors.

  /// Field-wise OR (the engine aggregates over all robots of a run).
  void merge(const ViewNeeds& o) {
    colocated |= o.colocated;
    colocated_states |= o.colocated_states;
    occupied_neighbors |= o.occupied_neighbors;
    empty_ports |= o.empty_ports;
  }
};

/// Builds the packet broadcast by the (robots on the) node `v`, as the
/// hand-built reference record (the engine assembles arenas directly).
/// `with_neighborhood` controls whether neighbor information is included.
/// `index` (optional) is a robots_by_node() result for this configuration.
InfoPacket make_packet(const Graph& g, const Configuration& conf, NodeId v,
                       bool with_neighborhood,
                       const NodeRobots* index = nullptr);

/// Builds all packets (one per occupied node), ascending by sender: the
/// reference broadcast tests and the figure benches hand-build. PacketSet
/// converts it into an arena.
std::vector<InfoPacket> make_all_packets(const Graph& g,
                                         const Configuration& conf,
                                         bool with_neighborhood,
                                         const NodeRobots* index = nullptr);

/// Process-wide count of FULL broadcast assemblies (assemble_arena_metered
/// calls: round broadcasts and trap-adversary probe broadcasts). Test hook:
/// the engine assembles the broadcast at most once per executed round.
/// Rounds the engine serves by republishing or delta-assembling the
/// previous broadcast do not count as assemblies.
std::size_t packet_assembly_count();

/// Wire size of one packet in bits, for the communication-cost metric:
/// robot IDs and counts cost ceil(log2(k+1)) bits, ports and degrees
/// ceil(log2(n)) bits (n = node count bounds both). The robot-ID lists are
/// counted in full, matching the paper's "full information" packets.
std::size_t packet_bit_size(const PacketView& packet, std::size_t k,
                            std::size_t n);

/// Single-pass broadcast assembly: builds the whole broadcast into `arena`
/// (cleared and refilled in place -- allocation-free once its arrays have
/// grown to steady state), headers sorted by sender, each packet's pool
/// slice contiguous, and meters its total wire size in the same traversal
/// (when `wire_bits` is non-null), fanning the per-packet fill across
/// `pool` when one is supplied. Output is identical at any thread count.
/// When `bits_each` / `nodes_each` are non-null they receive each packet's
/// wire bits / sender node, aligned to the sorted header order -- the
/// per-packet ledger delta reassembly copies from. The logical records
/// equal make_all_packets' field for field.
void assemble_arena_metered(PacketArena& arena, const Graph& g,
                            const Configuration& conf, bool with_neighborhood,
                            const NodeIndex& index, std::size_t* wire_bits,
                            ThreadPool* pool = nullptr,
                            std::vector<std::size_t>* bits_each = nullptr,
                            std::vector<NodeId>* nodes_each = nullptr);

/// Assembles the view of robot `id` standing on its node in `g` (tests and
/// one-shot callers; the engine refills its view arena with fill_view).
/// The packet set is attached by reference-counted handle (shared across
/// all robots of the round). Arrival ports and co-located states are filled
/// in by the engine, which owns that information.
RobotView make_view(const Graph& g, const Configuration& conf, RobotId id,
                    Round round, CommModel comm, bool neighborhood,
                    PacketSet packets, const NodeRobots* index = nullptr);

/// In-place view assembly for the engine's persistent view arena: fills
/// `out` with exactly what make_view would produce for the fields `needs`
/// declares (plus the unconditional scalars: self, round, k, degree,
/// node_count, empty_neighbor_count, global_comm, shared_packets), reusing
/// `out`'s vector capacities across rounds. Undeclared fields are left
/// cleared. arrival_port and colocated_states are reset for the engine to
/// fill, as in make_view.
void fill_view(RobotView& out, const Graph& g, const Configuration& conf,
               RobotId id, Round round, CommModel comm, bool neighborhood,
               const PacketSet& packets, const NodeIndex& index,
               const ViewNeeds& needs);

}  // namespace dyndisp
