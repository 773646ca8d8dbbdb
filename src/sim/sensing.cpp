#include "sim/sensing.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "util/bits.h"
#include "util/contract.h"
#include "util/parallel.h"

namespace dyndisp {

namespace {
std::atomic<std::size_t> g_packet_assemblies{0};

/// Contiguous read-only segment of robot IDs (one node's occupants).
struct RobotSpan {
  const RobotId* data = nullptr;
  std::size_t size = 0;
  bool empty() const { return size == 0; }
  const RobotId* begin() const { return data; }
  const RobotId* end() const { return data + size; }
  RobotId front() const { return data[0]; }
};

/// Uniform accessors over the two index representations, so view assembly
/// is written once and produces identical output on both.
struct VecIndex {
  const NodeRobots* idx;
  RobotSpan at(NodeId v) const {
    const std::vector<RobotId>& r = (*idx)[v];
    return {r.data(), r.size()};
  }
};

struct CsrIndex {
  const NodeIndex* idx;
  RobotSpan at(NodeId v) const { return {idx->begin(v), idx->count(v)}; }
};

DYNDISP_COLD
InfoPacket make_packet_impl(const Graph& g, NodeId v, bool with_neighborhood,
                            VecIndex index) {
  InfoPacket pkt;
  const RobotSpan here = index.at(v);
  assert(!here.empty() && "packets originate from occupied nodes only");
  pkt.robots.assign(here.begin(), here.end());
  pkt.sender = here.front();
  pkt.count = here.size;
  pkt.degree = g.degree(v);
  if (with_neighborhood) {
    // Count first so the list is allocated exactly once.
    std::size_t occupied = 0;
    for (Port p = 1; p <= g.degree(v); ++p)
      if (!index.at(g.neighbor(v, p)).empty()) ++occupied;
    pkt.occupied_neighbors.reserve(occupied);
    for (Port p = 1; p <= g.degree(v); ++p) {
      const RobotSpan robots_w = index.at(g.neighbor(v, p));
      if (robots_w.empty()) continue;
      NeighborInfo info;
      info.port = p;
      info.min_robot = robots_w.front();
      info.count = robots_w.size;
      info.robots.assign(robots_w.begin(), robots_w.end());
      pkt.occupied_neighbors.push_back(std::move(info));
    }
  }
  return pkt;
}

template <class Index>
void fill_view_impl(RobotView& out, const Graph& g, const Configuration& conf,
                    RobotId id, Round round, CommModel comm, bool neighborhood,
                    const PacketSet& packets, Index index,
                    const ViewNeeds& needs) {
  assert(conf.alive(id));
  const NodeId v = conf.position(id);

  out.self = id;
  out.round = round;
  out.k = conf.robot_count();
  out.degree = g.degree(v);
  out.node_count = conf.count_at(v);
  out.colocated.clear();
  if (needs.colocated) {
    const RobotSpan here = index.at(v);
    out.colocated.assign(here.begin(), here.end());
  }
  // Engine-owned fields: reset exactly as a fresh make_view result.
  out.arrival_port = kInvalidPort;
  out.colocated_states = nullptr;

  out.neighborhood_knowledge = neighborhood;
  out.empty_ports.clear();
  out.empty_neighbor_count = 0;
  std::size_t neighbors_filled = 0;
  if (neighborhood) {
    for (Port p = 1; p <= g.degree(v); ++p) {
      const RobotSpan robots_w = index.at(g.neighbor(v, p));
      if (robots_w.empty()) {
        ++out.empty_neighbor_count;
        // NOLINTNEXTLINE-dyndisp(hotpath-alloc): persistent view-arena slot
        // refilled in place; capacity is steady once warmed up.
        if (needs.empty_ports) out.empty_ports.push_back(p);
        continue;
      }
      if (!needs.occupied_neighbors) continue;
      // Reuse the slot (and its robots capacity) left from a prior fill.
      if (neighbors_filled == out.occupied_neighbors.size())
        // NOLINTNEXTLINE-dyndisp(hotpath-alloc): persistent view-arena slot
        // growth only while warming up; refilled in place afterwards.
        out.occupied_neighbors.emplace_back();
      NeighborInfo& info = out.occupied_neighbors[neighbors_filled++];
      info.port = p;
      info.min_robot = robots_w.front();
      info.count = robots_w.size;
      info.robots.assign(robots_w.begin(), robots_w.end());
    }
  }
  if (out.occupied_neighbors.size() > neighbors_filled)
    out.occupied_neighbors.resize(neighbors_filled);

  out.global_comm = comm == CommModel::kGlobal;
  out.shared_packets = out.global_comm ? packets : PacketSet{};
}

}  // namespace

std::size_t packet_assembly_count() {
  return g_packet_assemblies.load(std::memory_order_relaxed);
}

DYNDISP_COLD
NodeRobots robots_by_node(const Configuration& conf) {
  NodeRobots index(conf.node_count());
  for (RobotId id = 1; id <= conf.robot_count(); ++id)
    if (conf.alive(id)) index[conf.position(id)].push_back(id);
  return index;
}

DYNDISP_HOT
void NodeIndex::build(const Configuration& conf) {
  const std::size_t n = conf.node_count();
  const std::size_t k = conf.robot_count();
  offsets_.assign(n + 1, 0);
  for (RobotId id = 1; id <= k; ++id)
    if (conf.alive(id)) ++offsets_[conf.position(id) + 1];
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  ids_.resize(offsets_[n]);
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (RobotId id = 1; id <= k; ++id)
    if (conf.alive(id)) ids_[cursor_[conf.position(id)]++] = id;
}

InfoPacket make_packet(const Graph& g, const Configuration& conf, NodeId v,
                       bool with_neighborhood, const NodeRobots* index) {
  NodeRobots local;
  if (index == nullptr) {
    local = robots_by_node(conf);
    index = &local;
  }
  return make_packet_impl(g, v, with_neighborhood, VecIndex{index});
}

DYNDISP_COLD
std::vector<InfoPacket> make_all_packets(const Graph& g,
                                         const Configuration& conf,
                                         bool with_neighborhood,
                                         const NodeRobots* index) {
  NodeRobots local;
  if (index == nullptr) {
    local = robots_by_node(conf);
    index = &local;
  }
  // Node-ascending assembly, then the canonical sender-ascending order
  // (senders are unique: one packet per node over disjoint robot sets).
  std::vector<InfoPacket> packets;
  packets.reserve(conf.occupied_count());
  for (NodeId v = 0; v < conf.node_count(); ++v)
    if (!(*index)[v].empty())
      packets.push_back(
          make_packet_impl(g, v, with_neighborhood, VecIndex{index}));
  std::sort(packets.begin(), packets.end(),
            [](const InfoPacket& a, const InfoPacket& b) {
              return a.sender < b.sender;
            });
  return packets;
}

std::size_t packet_bit_size(const PacketView& packet, std::size_t k,
                            std::size_t n) {
  const std::size_t id_bits = bit_width_for(k + 1);
  const std::size_t port_bits = bit_width_for(n);
  std::size_t bits = id_bits;                // sender
  bits += id_bits;                           // count
  bits += port_bits;                         // degree
  bits += packet.robot_count() * id_bits;    // co-located IDs
  for (std::size_t i = 0, end = packet.neighbor_count(); i < end; ++i) {
    const NeighborView nb = packet.neighbor(i);
    bits += port_bits;                       // port
    bits += id_bits;                         // min_robot
    bits += id_bits;                         // count
    bits += nb.robot_count() * id_bits;      // IDs on the neighbor
  }
  return bits;
}

DYNDISP_HOT
void assemble_arena_metered(PacketArena& arena, const Graph& g,
                            const Configuration& conf, bool with_neighborhood,
                            const NodeIndex& index, std::size_t* wire_bits,
                            ThreadPool* pool,
                            std::vector<std::size_t>* bits_each,
                            std::vector<NodeId>* nodes_each) {
  g_packet_assemblies.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = conf.node_count();
  const std::size_t k = conf.robot_count();

  // Pass 1 (serial): one header per occupied node with every range
  // pre-assigned off the CSR index and the graph alone -- sender robots
  // first, then each occupied neighbor's robots, so a packet's pool slice
  // is contiguous. Node-ascending assignment keeps the layout
  // deterministic at any thread count.
  arena.headers.clear();
  std::uint32_t pool_cursor = 0;
  std::uint32_t nb_cursor = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t here = index.count(v);
    if (here == 0) continue;
    ArenaPacket h;
    h.sender = *index.begin(v);
    h.count = static_cast<std::uint32_t>(here);
    h.degree = static_cast<std::uint32_t>(g.degree(v));
    h.robots_begin = pool_cursor;
    h.robots_count = h.count;
    pool_cursor += h.robots_count;
    h.nb_begin = nb_cursor;
    h.nb_count = 0;
    if (with_neighborhood) {
      for (Port p = 1; p <= g.degree(v); ++p) {
        const std::size_t there = index.count(g.neighbor(v, p));
        if (there == 0) continue;
        ++h.nb_count;
        pool_cursor += static_cast<std::uint32_t>(there);
      }
    }
    nb_cursor += h.nb_count;
    // NOLINTNEXTLINE-dyndisp(hotpath-alloc): retained header table of a
    // pooled arena -- capacity is reached during warm-up, after which the
    // refill is in place (the zero-alloc memprobe test pins this).
    arena.headers.push_back(h);
  }
  arena.neighbors.resize(nb_cursor);
  arena.pool.resize(pool_cursor);

  // Canonical sender-ascending order, sorted in place: ranges are explicit,
  // so reordering headers never moves the pool, and the parallel fill below
  // is order-independent. Senders are unique (one packet per node over
  // disjoint robot sets), so the order is deterministic.
  std::sort(arena.headers.begin(), arena.headers.end(),
            [](const ArenaPacket& a, const ArenaPacket& b) {
              return a.sender < b.sender;
            });

  // Pass 2 (parallel): fill each packet's slices and meter it. The sender's
  // node is recovered from its smallest robot's position, so no node
  // scratch list is needed.
  const bool meter = wire_bits != nullptr || bits_each != nullptr;
  if (bits_each) bits_each->resize(arena.headers.size());
  if (nodes_each) nodes_each->resize(arena.headers.size());
  std::vector<std::size_t> local_bits(
      meter && bits_each == nullptr ? arena.headers.size() : 0);
  std::vector<std::size_t>* bits = bits_each ? bits_each : &local_bits;
  parallel_for(pool, arena.headers.size(), [&](std::size_t i) {
    const ArenaPacket& h = arena.headers[i];
    const NodeId v = conf.position(h.sender);
    std::copy(index.begin(v), index.end(v),
              arena.pool.begin() + h.robots_begin);
    std::uint32_t cursor = h.robots_begin + h.robots_count;
    std::uint32_t filled = 0;
    if (h.nb_count > 0) {
      for (Port p = 1; p <= g.degree(v); ++p) {
        const NodeId w = g.neighbor(v, p);
        if (index.empty(w)) continue;
        ArenaNeighbor& nb = arena.neighbors[h.nb_begin + filled++];
        nb.port = p;
        nb.min_robot = *index.begin(w);
        nb.count = static_cast<std::uint32_t>(index.count(w));
        nb.robots_begin = cursor;
        nb.robots_count = nb.count;
        std::copy(index.begin(w), index.end(w),
                  arena.pool.begin() + cursor);
        cursor += nb.count;
      }
    }
    if (meter) (*bits)[i] = packet_bit_size(PacketView(arena, i), k, n);
    if (nodes_each) (*nodes_each)[i] = v;
  });
  if (wire_bits) {
    std::size_t total = 0;
    for (const std::size_t b : *bits) total += b;
    *wire_bits = total;
  }
}

RobotView make_view(const Graph& g, const Configuration& conf, RobotId id,
                    Round round, CommModel comm, bool neighborhood,
                    PacketSet packets, const NodeRobots* index) {
  NodeRobots local;
  if (index == nullptr) {
    local = robots_by_node(conf);
    index = &local;
  }
  RobotView view;
  fill_view_impl(view, g, conf, id, round, comm, neighborhood, packets,
                 VecIndex{index}, ViewNeeds{});
  return view;
}

DYNDISP_HOT
void fill_view(RobotView& out, const Graph& g, const Configuration& conf,
               RobotId id, Round round, CommModel comm, bool neighborhood,
               const PacketSet& packets, const NodeIndex& index,
               const ViewNeeds& needs) {
  fill_view_impl(out, g, conf, id, round, comm, neighborhood, packets,
                 CsrIndex{&index}, needs);
}

}  // namespace dyndisp
