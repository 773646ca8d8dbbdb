#include "core/component.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace dyndisp::core {

const ComponentNode* ComponentGraph::find(RobotId name) const {
  const auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), name,
      [](const ComponentNode& n, RobotId x) { return n.name < x; });
  return (it != nodes_.end() && it->name == name) ? &*it : nullptr;
}

std::size_t ComponentGraph::robot_count() const {
  std::size_t total = 0;
  for (const ComponentNode& n : nodes_) total += n.count;
  return total;
}

bool ComponentGraph::has_multiplicity() const {
  return std::any_of(nodes_.begin(), nodes_.end(),
                     [](const ComponentNode& n) { return n.count > 1; });
}

RobotId ComponentGraph::root_name() const {
  for (const ComponentNode& n : nodes_)  // ascending by name
    if (n.count > 1) return n.name;
  return kNoRobot;
}

void ComponentGraph::add_node(ComponentNode node) {
  nodes_.push_back(std::move(node));
}

void ComponentGraph::seal() {
  std::sort(nodes_.begin(), nodes_.end(),
            [](const ComponentNode& a, const ComponentNode& b) {
              return a.name < b.name;
            });
  edge_offsets_.resize(nodes_.size() + 1);
  edge_offsets_[0] = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    edge_offsets_[i + 1] =
        edge_offsets_[i] + static_cast<std::uint32_t>(nodes_[i].edges.size());
  edge_targets_.resize(edge_offsets_.back());
  std::size_t t = 0;
  for (const ComponentNode& n : nodes_) {
    for (const auto& [port, nb] : n.edges) {
      const ComponentNode* target = find(nb);
      edge_targets_[t++] = target != nullptr
                               ? static_cast<std::uint32_t>(target - nodes_.data())
                               : kMissingTarget;
    }
  }
}

void ComponentGraph::seal_presorted(std::vector<std::uint32_t> edge_targets) {
  assert(std::is_sorted(nodes_.begin(), nodes_.end(),
                        [](const ComponentNode& a, const ComponentNode& b) {
                          return a.name < b.name;
                        }));
  edge_offsets_.resize(nodes_.size() + 1);
  edge_offsets_[0] = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    edge_offsets_[i + 1] =
        edge_offsets_[i] + static_cast<std::uint32_t>(nodes_[i].edges.size());
  assert(edge_targets.size() == edge_offsets_.back());
  edge_targets_ = std::move(edge_targets);
}

namespace {


/// Sender -> packet index, built once and shared by every component of the
/// round (the seed rebuilt a std::map per component, which made one round's
/// component construction O(components * packets * log)). The direct-lookup
/// rank table replaces the per-edge binary search of the first flat version:
/// component BFS touches every directed edge of the occupied subgraph, and
/// at k >= 10^5 those lower_bound probes dominated Algorithm 1.
struct SenderIndex {
  std::vector<std::pair<RobotId, PacketView>> entries;
  std::vector<std::uint32_t> rank_of;  ///< name -> rank; kMissing otherwise.

  static constexpr std::uint32_t kMissing = 0xffffffffu;

  std::size_t size() const { return entries.size(); }
  const std::pair<RobotId, PacketView>& operator[](std::size_t rank) const {
    return entries[rank];
  }
};

SenderIndex index_by_sender(const PacketSet& packets) {
  SenderIndex index;
  index.entries.reserve(packets.size());
  RobotId max_sender = 0;
  for (std::size_t i = 0, size = packets.size(); i < size; ++i) {
    const PacketView pkt = packets[i];
    index.entries.emplace_back(pkt.sender(), pkt);
    max_sender = std::max(max_sender, pkt.sender());
  }
  // Canonical packet sets arrive sender-ascending; hand-built ones may not.
  if (!std::is_sorted(index.entries.begin(), index.entries.end(),
                      [](const auto& a, const auto& b) {
                        return a.first < b.first;
                      })) {
    std::sort(index.entries.begin(), index.entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  if (!packets.empty()) {
    index.rank_of.assign(static_cast<std::size_t>(max_sender) + 1,
                         SenderIndex::kMissing);
    // First occurrence wins, matching lower_bound on (degenerate,
    // hand-built) sets with duplicate senders.
    for (std::size_t r = 0; r < index.entries.size(); ++r) {
      std::uint32_t& slot = index.rank_of[index.entries[r].first];
      if (slot == SenderIndex::kMissing) slot = static_cast<std::uint32_t>(r);
    }
  }
  return index;
}

/// Dense rank of `name` in the (sorted) index; npos for phantom names.
constexpr std::size_t kNoRank = static_cast<std::size_t>(-1);

std::size_t sender_rank(const SenderIndex& index, RobotId name) {
  if (name >= index.rank_of.size() ||
      index.rank_of[name] == SenderIndex::kMissing)
    return kNoRank;
  return index.rank_of[name];
}

/// Scratch for one round's component construction: `visited` flags senders
/// already queued or absorbed (by dense rank), `frontier` and `members` hold
/// pending and collected ranks, `local_of` translates a member's rank to its
/// dense index within the component being materialized. All flat vectors,
/// reused across the round's components -- the seed's std::set frontier,
/// whose node allocations and pointer chasing dominated giant-component
/// rounds at k >= 10^5, is long gone.
/// Ranks are dense indices below k < 2^32, so 32-bit entries halve the
/// n-proportional footprint of the two walk vectors (memory-diet audit).
struct ComponentScratch {
  std::vector<char> visited;
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> members;
  std::vector<std::uint32_t> local_of;
};

ComponentGraph build_component_indexed(const SenderIndex& by_sender,
                                       RobotId start_name,
                                       ComponentScratch& scratch) {
  const std::size_t start = sender_rank(by_sender, start_name);
  assert(start != kNoRank && "start node must have a packet");

  // Phase 1 -- membership: flood-fill over the packets' neighbor references.
  // Traversal order cannot affect the result (the component is the
  // reachability closure, and nodes are emitted name-ascending below), so a
  // plain stack replaces any ordered frontier.
  //
  // Under the paper's model every referenced neighbor has a packet; a
  // reference without one can only come from a lying (Byzantine) packet, in
  // which case the phantom node is skipped -- the honest part of the
  // component is still built deterministically by every robot.
  if (scratch.visited.size() != by_sender.size())
    scratch.visited.assign(by_sender.size(), 0);
  assert(scratch.frontier.empty());
  scratch.members.clear();
  scratch.visited[start] = 1;
  scratch.frontier.push_back(static_cast<std::uint32_t>(start));
  scratch.members.push_back(static_cast<std::uint32_t>(start));
  while (!scratch.frontier.empty()) {
    const std::size_t rank = scratch.frontier.back();
    scratch.frontier.pop_back();
    const PacketView pkt = by_sender[rank].second;
    for (std::size_t i = 0, end = pkt.neighbor_count(); i < end; ++i) {
      const std::size_t r =
          sender_rank(by_sender, pkt.neighbor(i).min_robot());
      if (r == kNoRank || scratch.visited[r]) continue;
      scratch.visited[r] = 1;
      scratch.frontier.push_back(static_cast<std::uint32_t>(r));
      scratch.members.push_back(static_cast<std::uint32_t>(r));
    }
  }

  // Phase 2 -- materialization, name-ascending (ranks ascend with names, so
  // sorting the collected ranks IS the canonical node order), resolving every
  // edge target to its dense in-component index as it is emitted.
  std::sort(scratch.members.begin(), scratch.members.end());
  if (scratch.local_of.size() != by_sender.size())
    scratch.local_of.resize(by_sender.size());
  for (std::size_t i = 0; i < scratch.members.size(); ++i)
    scratch.local_of[scratch.members[i]] = static_cast<std::uint32_t>(i);

  ComponentGraph cg;
  std::vector<std::uint32_t> targets;
  for (const std::size_t rank : scratch.members) {
    const PacketView pkt = by_sender[rank].second;
    ComponentNode node;
    node.name = pkt.sender();
    node.count = pkt.count();
    node.degree = pkt.degree();
    node.robots.assign(pkt.robots(), pkt.robots() + pkt.robot_count());
    node.edges.reserve(pkt.neighbor_count());
    const std::size_t first_target = targets.size();
    for (std::size_t i = 0, end = pkt.neighbor_count(); i < end; ++i) {
      const NeighborView nb = pkt.neighbor(i);
      const std::size_t r = sender_rank(by_sender, nb.min_robot());
      if (r == kNoRank) continue;  // phantom neighbor: edge dropped
      node.edges.emplace_back(nb.port(), nb.min_robot());
      targets.push_back(scratch.local_of[r]);
    }
    // Packets list neighbors port-ascending already; keep the invariant in
    // case a caller hand-builds packets (permuting targets alongside).
    if (!std::is_sorted(node.edges.begin(), node.edges.end())) {
      std::vector<std::size_t> order(node.edges.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return node.edges[a] < node.edges[b];
      });
      std::vector<std::pair<Port, RobotId>> edges(node.edges.size());
      std::vector<std::uint32_t> tgt(node.edges.size());
      for (std::size_t e = 0; e < order.size(); ++e) {
        edges[e] = node.edges[order[e]];
        tgt[e] = targets[first_target + order[e]];
      }
      node.edges = std::move(edges);
      std::copy(tgt.begin(), tgt.end(), targets.begin() + first_target);
    }
    cg.add_node(std::move(node));
  }
  cg.seal_presorted(std::move(targets));
  return cg;
}


}  // namespace

ComponentGraph build_component(const PacketSet& packets, RobotId start_name) {
  ComponentScratch scratch;
  return build_component_indexed(index_by_sender(packets), start_name, scratch);
}

std::vector<ComponentGraph> build_components_split(
    const PacketSet& packets, std::vector<RobotId>* trivial) {
  const SenderIndex by_sender = index_by_sender(packets);
  std::vector<ComponentGraph> components;
  // The scratch's visited flags persist across seeds: a sender absorbed by
  // an earlier component is never re-seeded (the `seen` set of the seed).
  ComponentScratch scratch;
  scratch.visited.assign(by_sender.size(), 0);
  for (std::size_t i = 0, size = packets.size(); i < size; ++i) {
    const PacketView pkt = packets[i];
    const std::size_t rank = sender_rank(by_sender, pkt.sender());
    assert(rank != kNoRank);
    if (scratch.visited[rank]) continue;
    // A lone robot whose packet lists no occupied neighbor seeds a
    // single-node, edge-free component; when the caller accepts the compact
    // form, record just the name. Marking it visited here preserves the
    // exact absorption behavior of the full build: later components keep
    // their edge toward it but never enqueue it.
    if (trivial != nullptr && pkt.count() == 1 && pkt.neighbor_count() == 0) {
      scratch.visited[rank] = 1;
      trivial->push_back(pkt.sender());
      continue;
    }
    components.push_back(
        build_component_indexed(by_sender, pkt.sender(), scratch));
  }
  return components;
}

std::vector<ComponentGraph> build_all_components(const PacketSet& packets) {
  return build_components_split(packets, nullptr);
}

}  // namespace dyndisp::core
