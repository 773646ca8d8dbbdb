// The per-round sliding plan of Algorithm 4 (Section VI).
//
// Given the round's packet set, the plan determines -- identically at every
// robot, by Lemma 4 -- which robots slide along which disjoint root paths:
//   * per kept path, one robot leaves the root toward the path's second
//     node (or straight to an empty neighbor on the trivial root path);
//   * at every interior path node one robot advances to the successor;
//   * at the path's last node one robot exits to an empty neighbor via the
//     smallest empty port (resolved locally by the robot standing there).
// Everything is a pure function of the packets, which is what makes the
// shared-plan memoization below safe: robots in one component compute
// byte-identical plans, so computing the plan once per packet set and
// sharing it is an exact optimization (tests compare both modes).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

#include "core/component.h"
#include "core/disjoint_paths.h"
#include "core/spanning_tree.h"
#include "sim/info_packet.h"
#include "sim/packet_arena.h"
#include "util/types.h"

namespace dyndisp::core {

/// What one designated mover robot does this round.
struct MoveDirective {
  /// Exit port; meaningful when exit_via_smallest_empty is false.
  Port port = kInvalidPort;
  /// Exit via the smallest port leading to an EMPTY neighbor (the last node
  /// of a path, or the root's trivial path). The port is resolved by the
  /// robot on the spot from its own 1-neighborhood view.
  bool exit_via_smallest_empty = false;
};

/// Flat ordered map: (robot ID, directive) pairs kept ascending by ID in
/// one contiguous vector. Replaces the seed's std::map<RobotId,
/// MoveDirective> -- per-round plans are built once and then only read
/// (k lookups per round), so a sorted vector turns every node allocation
/// into an append and every red-black walk into a binary search over a
/// cache-dense array. The read surface mirrors std::map (find/at/count/
/// iteration in ascending key order) so planner consumers are unchanged.
class MoverMap {
 public:
  using value_type = std::pair<RobotId, MoveDirective>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const_iterator find(RobotId id) const {
    const auto it = lower_bound(id);
    return (it != entries_.end() && it->first == id) ? it : entries_.end();
  }
  std::size_t count(RobotId id) const { return find(id) != end() ? 1 : 0; }
  const MoveDirective& at(RobotId id) const {
    const auto it = find(id);
    assert(it != end() && "MoverMap::at on an absent robot");
    return it->second;
  }

  /// Inserts or overwrites, keeping the entries sorted. O(size) worst case;
  /// builders on hot paths use append()+seal() instead.
  MoveDirective& operator[](RobotId id) {
    const auto it = lower_bound(id);
    if (it != entries_.end() && it->first == id) return it->second;
    return entries_.insert(it, value_type{id, MoveDirective{}})->second;
  }

  /// Appends without maintaining order; a seal() must follow before reads.
  void append(RobotId id, MoveDirective d) { entries_.emplace_back(id, d); }

  /// Bulk append for accumulation loops (per-component plans into the round
  /// union): entry order is not maintained, so a single seal() must follow
  /// the run of append_all()s -- one final sort instead of re-merging the
  /// accumulator once per component.
  void append_all(const MoverMap& other) {
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
  }

  /// Restores ascending-ID order after a run of append()s. Keys must be
  /// unique (the planner assigns each mover exactly once per round).
  void seal() {
    std::sort(entries_.begin(), entries_.end(),
              [](const value_type& a, const value_type& b) {
                return a.first < b.first;
              });
    assert(std::adjacent_find(entries_.begin(), entries_.end(),
                              [](const value_type& a, const value_type& b) {
                                return a.first == b.first;
                              }) == entries_.end() &&
           "each robot receives at most one directive per round");
  }

  /// Unions `other` in (disjoint key sets, both sorted): one linear merge,
  /// the flat replacement for std::map::merge/insert(range).
  void merge_disjoint(const MoverMap& other) {
    if (other.empty()) return;
    if (empty()) {
      entries_ = other.entries_;
      return;
    }
    std::vector<value_type> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    std::merge(entries_.begin(), entries_.end(), other.entries_.begin(),
               other.entries_.end(), std::back_inserter(merged),
               [](const value_type& a, const value_type& b) {
                 return a.first < b.first;
               });
    entries_ = std::move(merged);
  }

  bool operator==(const MoverMap&) const = default;

 private:
  std::vector<value_type>::iterator lower_bound(RobotId id) {
    return std::lower_bound(entries_.begin(), entries_.end(), id,
                            [](const value_type& e, RobotId x) {
                              return e.first < x;
                            });
  }
  const_iterator lower_bound(RobotId id) const {
    return std::lower_bound(entries_.begin(), entries_.end(), id,
                            [](const value_type& e, RobotId x) {
                              return e.first < x;
                            });
  }

  std::vector<value_type> entries_;
};

/// Movers for one round: robot ID -> directive. Robots absent from the map
/// stay put.
struct SlidePlan {
  MoverMap movers;

  bool operator==(const SlidePlan&) const;
};

/// Design knobs for ablation studies. The defaults are the paper's
/// Algorithm 4; every variant preserves correctness (Lemmas 3-7 do not
/// depend on the tree construction order or the number of served paths),
/// only the constant factors change -- which is what the ablation bench
/// measures.
struct PlannerConfig {
  enum class Tree { kDfs, kBfs };
  /// Spanning-tree construction for Algorithm 2 (the paper uses DFS and
  /// notes BFS works too; BFS minimizes root-path lengths).
  Tree tree = Tree::kDfs;
  /// Cap on the disjoint paths served per component per round (0 = only
  /// bounded by count(root)-1, the paper's rule). max_paths = 1 is the
  /// "serve one path per round" ablation: still O(k) rounds by Lemma 7,
  /// but with a larger constant and more total rounds on bushy components.
  std::size_t max_paths = 0;

  bool operator==(const PlannerConfig&) const = default;
};

inline bool operator==(const MoveDirective& a, const MoveDirective& b) {
  return a.port == b.port &&
         a.exit_via_smallest_empty == b.exit_via_smallest_empty;
}

/// Plans the sliding for one component (requires a multiplicity node).
SlidePlan plan_component(const ComponentGraph& cg, const SpanningTree& st,
                         const PlannerConfig& config = {});

/// Plans the whole round: builds all components from the packets and merges
/// the per-component plans (components without multiplicity contribute
/// nothing).
SlidePlan plan_round(const PacketSet& packets, const PlannerConfig& config = {});

/// Process-wide planner wall-time accumulator, in nanoseconds: every
/// PlanCache miss adds the time plan_round spent deriving the plan.
/// Observability only -- the engine snapshots deltas around its compute
/// phase to split the compute bucket into "planning" vs "robot steps"
/// (RoundLoopStats::phase_plan_ms), and nothing else reads it. Monotone;
/// exact when one run executes at a time, advisory under concurrent runs.
std::uint64_t planner_time_ns();

/// Adds `ns` to the accumulator (PlanCache's miss path; relaxed atomic).
void add_planner_time_ns(std::uint64_t ns);

/// Single-slot memo of plan_round keyed by the exact packet set. All robots
/// of a run may share one cache; correctness is unchanged because
/// plan_round is deterministic in the packets (Lemma 4).
///
/// Thread-safe: the engine's parallel compute phase calls get() from many
/// robots at once. The returned reference stays valid as long as no get()
/// with a DIFFERENT packet set runs concurrently -- which holds inside one
/// round, where every robot receives the same broadcast.
class PlanCache {
 public:
  /// Set-keyed: the engine shares one immutable broadcast per round, so
  /// storage identity short-circuits the deep packet comparison (the cache
  /// pins an owning key, so the address cannot be reused while it is the
  /// key). Falls back to content comparison -- trap-adversary probes
  /// produce byte-identical packet sets under fresh storage and must still
  /// hit.
  const SlidePlan& get(const PacketSet& packets,
                       const PlannerConfig& config = {});

  std::size_t hits() const;
  std::size_t misses() const;

 private:
  mutable std::mutex mu_;
  /// The stored key: an owning set, so pointer hits stay O(1).
  PacketSet key_;
  PlannerConfig config_;
  SlidePlan value_;
  bool valid_ = false;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace dyndisp::core
