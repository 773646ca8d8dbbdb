#include "sim/round_context.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/parallel.h"

namespace dyndisp {

DYNDISP_HOT
void RoundContext::begin_round(const Configuration& conf,
                               const std::vector<StateHandle>& states,
                               bool build_state_lists) {
  assert(states.size() == conf.robot_count());
  const std::size_t n = conf.node_count();

  // Retire the finished round's broadcast into the delta-assembly source.
  prev_packets_ = std::move(packets_);
  packets_.reset();
  prev_packet_bits_each_.swap(packet_bits_each_);
  prev_packet_nodes_.swap(packet_nodes_);
  prev_packet_bits_ = packet_bits_;
  packet_bits_each_.clear();
  packet_nodes_.clear();
  packet_bits_ = 0;

  // Rebuild the node index into the retained CSR double buffer: a counting
  // sort into two flat arrays whose capacity persists across rounds, so
  // steady-state rounds allocate nothing here.
  std::swap(prev_index_, index_);
  if (index_.node_count() == n) ++counters_.scratch_reuses;
  index_.build(conf);

  // Diff occupancy against the previous round. A node-count change (never
  // happens mid-run under one adversary, but contexts are reusable) voids
  // the comparison basis and the retired broadcast with it.
  changed_nodes_.clear();
  if (first_round_ || prev_index_.node_count() != n) {
    for (NodeId v = 0; v < n; ++v)
      if (!index_.empty(v)) changed_nodes_.push_back(v);
    occupancy_changed_ = true;
    prev_packets_.reset();
  } else {
    for (NodeId v = 0; v < n; ++v) {
      if (index_.count(v) != prev_index_.count(v) ||
          !std::equal(index_.begin(v), index_.end(v), prev_index_.begin(v)))
        changed_nodes_.push_back(v);
    }
    occupancy_changed_ = !changed_nodes_.empty();
  }
  first_round_ = false;

  // Per-node state lists. A node keeps last round's list handle exactly
  // when the list it needs now is the list it already holds: same robots,
  // and every member's state handle still the one serialized for it. The
  // pointer compare IS the full condition -- robots that stepped get a
  // fresh handle from the engine, so stale content can never be retained.
  // Skipped wholesale when the run's views never read exchanged states;
  // a stale list kept across skipped rounds can never leak, because reuse
  // always re-compares member handles against the current `states`.
  if (node_states_.size() != n) node_states_.assign(n, nullptr);
  if (!build_state_lists) return;
  for (NodeId v = 0; v < n; ++v) {
    if (index_.empty(v)) {
      node_states_[v] = nullptr;
      continue;
    }
    const RobotId* here = index_.begin(v);
    const std::size_t count = index_.count(v);
    const auto& old = node_states_[v];
    bool reusable = old != nullptr && old->size() == count;
    if (reusable) {
      for (std::size_t i = 0; i < count; ++i) {
        if ((*old)[i] != states[here[i] - 1]) {
          reusable = false;
          break;
        }
      }
    }
    if (reusable) {
      ++counters_.node_state_lists_reused;
      continue;
    }
    // NOLINTNEXTLINE-dyndisp(hotpath-alloc): state lists are rebuilt only
    // for nodes whose occupancy changed; unchanged nodes keep their list
    // by handle (node_state_lists_reused counts the reuses).
    auto list = std::make_shared<std::vector<StateHandle>>();
    list->reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      // NOLINTNEXTLINE-dyndisp(hotpath-alloc): fills the freshly allocated
      // list above -- same changed-node slow path, reserved to exact size.
      list->push_back(states[here[i] - 1]);
    node_states_[v] = std::move(list);
  }
}

std::shared_ptr<PacketArena> RoundContext::acquire_arena() {
  for (const std::shared_ptr<PacketArena>& a : arena_pool_) {
    if (a.use_count() == 1) {
      a->clear();
      ++counters_.scratch_reuses;
      return a;
    }
  }
  // All pooled buffers are pinned elsewhere (views, cache entries); a fresh
  // buffer joins the pool up to the cap, beyond which it lives and dies with
  // its broadcast.
  constexpr std::size_t kArenaPoolCap = 8;
  // NOLINTNEXTLINE-dyndisp(hotpath-alloc): pool-miss path only; a warmed-up
  // run cycles pooled buffers (scratch_reuses counts the steady state).
  auto fresh = std::make_shared<PacketArena>();
  if (arena_pool_.size() < kArenaPoolCap) arena_pool_.push_back(fresh);
  return fresh;
}

DYNDISP_HOT
void RoundContext::assemble_packets(const Graph& g, const Configuration& conf,
                                    bool with_neighborhood,
                                    const ByzantineModel* byzantine,
                                    ThreadPool* pool) {
  assert(!packets_ && "the round's broadcast is assembled exactly once");
  std::shared_ptr<PacketArena> arena = acquire_arena();
  assemble_arena_metered(*arena, g, conf, with_neighborhood, index_,
                         &packet_bits_, pool, &packet_bits_each_,
                         &packet_nodes_);
  if (byzantine) {
    byzantine->tamper(*arena);
    // Tampered packets no longer match their metered sizes; drop the
    // per-packet arrays so no delta round ever sources from them.
    packet_bits_each_.clear();
    packet_nodes_.clear();
  }
  packets_ = PacketSet::ArenaHandle(std::move(arena));
}

DYNDISP_HOT void RoundContext::reuse_packets() {
  assert(!packets_ && "the round's broadcast is assembled exactly once");
  assert(prev_packets_ && prev_packet_nodes_.size() == prev_packets_.size() &&
         "reuse requires an untampered previous broadcast");
  packets_ = prev_packets_;
  packet_bits_each_ = prev_packet_bits_each_;
  packet_nodes_ = prev_packet_nodes_;
  packet_bits_ = prev_packet_bits_;
}

DYNDISP_HOT
void RoundContext::delta_packets(const Graph& g, const Configuration& conf,
                                 bool with_neighborhood,
                                 const std::vector<NodeId>& dirty_nodes,
                                 ThreadPool* pool) {
  assert(!packets_ && "the round's broadcast is assembled exactly once");
  assert(prev_packets_ && prev_packet_nodes_.size() == prev_packets_.size() &&
         "delta assembly requires an untampered previous broadcast");
  const std::size_t n = conf.node_count();
  const std::size_t k = conf.robot_count();

  // node -> previous-broadcast packet index; -2 marks dirty nodes (rebuild
  // even if a previous packet exists), -1 nodes with no usable source.
  node_to_prev_.assign(n, -1);
  for (std::size_t i = 0; i < prev_packet_nodes_.size(); ++i)
    node_to_prev_[prev_packet_nodes_[i]] = static_cast<std::int32_t>(i);
  for (const NodeId v : dirty_nodes) {
    assert(v < n);
    node_to_prev_[v] = -2;
  }

  const PacketArena& prev = *prev_packets_.arena_handle();

  // A previous packet's pool slice is contiguous (sender robots, then each
  // neighbor's robots in port order), so its length is the distance from
  // its first robot to the end of its last neighbor's range.
  const auto slice_len = [&prev](const ArenaPacket& h) -> std::uint32_t {
    if (h.nb_count == 0) return h.robots_count;
    const ArenaNeighbor& last = prev.neighbors[h.nb_begin + h.nb_count - 1];
    return last.robots_begin + last.robots_count - h.robots_begin;
  };

  std::shared_ptr<PacketArena> arena_ptr = acquire_arena();
  PacketArena& arena = *arena_ptr;

  // Pass 1 (serial, node-ascending): size every packet -- clean senders
  // straight off the previous header, dirty ones off the index and graph --
  // assigning every range cumulatively, exactly like the full assembly.
  std::uint32_t pool_cursor = 0;
  std::uint32_t nb_cursor = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t here = index_.count(v);
    if (here == 0) continue;
    const std::int32_t pi = node_to_prev_[v];
    ArenaPacket h;
    h.robots_begin = pool_cursor;
    h.nb_begin = nb_cursor;
    if (pi >= 0) {
      const ArenaPacket& ph = prev.headers[static_cast<std::size_t>(pi)];
      h.sender = ph.sender;
      h.count = ph.count;
      h.degree = ph.degree;
      h.robots_count = ph.robots_count;
      h.nb_count = ph.nb_count;
      pool_cursor += slice_len(ph);
    } else {
      h.sender = *index_.begin(v);
      h.count = static_cast<std::uint32_t>(here);
      h.degree = static_cast<std::uint32_t>(g.degree(v));
      h.robots_count = h.count;
      pool_cursor += h.robots_count;
      h.nb_count = 0;
      if (with_neighborhood) {
        for (Port p = 1; p <= g.degree(v); ++p) {
          const std::size_t there = index_.count(g.neighbor(v, p));
          if (there == 0) continue;
          ++h.nb_count;
          pool_cursor += static_cast<std::uint32_t>(there);
        }
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

  // Canonical sender order before the fill, as in the full assembly:
  // explicit ranges mean sorting headers moves no payload.
  std::sort(arena.headers.begin(), arena.headers.end(),
            [](const ArenaPacket& a, const ArenaPacket& b) {
              return a.sender < b.sender;
            });

  // Pass 2 (parallel): clean packets copy their pool slice in one shot and
  // their neighbor entries with rebased ranges (every range in one slice
  // shifts by the same offset); dirty packets fill and meter from scratch.
  packet_bits_each_.resize(arena.headers.size());
  packet_nodes_.resize(arena.headers.size());
  parallel_for(pool, arena.headers.size(), [&](std::size_t i) {
    const ArenaPacket& h = arena.headers[i];
    const NodeId v = conf.position(h.sender);
    packet_nodes_[i] = v;
    const std::int32_t pi = node_to_prev_[v];
    if (pi >= 0) {
      const ArenaPacket& ph = prev.headers[static_cast<std::size_t>(pi)];
      const std::uint32_t len = slice_len(ph);
      std::copy(prev.pool.begin() + ph.robots_begin,
                prev.pool.begin() + ph.robots_begin + len,
                arena.pool.begin() + h.robots_begin);
      const std::uint32_t shift = h.robots_begin - ph.robots_begin;
      for (std::uint32_t e = 0; e < ph.nb_count; ++e) {
        ArenaNeighbor nb = prev.neighbors[ph.nb_begin + e];
        nb.robots_begin += shift;  // uint32 wraparound-safe: exact inverse
        arena.neighbors[h.nb_begin + e] = nb;
      }
      packet_bits_each_[i] = prev_packet_bits_each_[static_cast<std::size_t>(pi)];
    } else {
      std::copy(index_.begin(v), index_.end(v),
                arena.pool.begin() + h.robots_begin);
      std::uint32_t cursor = h.robots_begin + h.robots_count;
      std::uint32_t filled = 0;
      if (h.nb_count > 0) {
        for (Port p = 1; p <= g.degree(v); ++p) {
          const NodeId w = g.neighbor(v, p);
          if (index_.empty(w)) continue;
          ArenaNeighbor& nb = arena.neighbors[h.nb_begin + filled++];
          nb.port = p;
          nb.min_robot = *index_.begin(w);
          nb.count = static_cast<std::uint32_t>(index_.count(w));
          nb.robots_begin = cursor;
          nb.robots_count = nb.count;
          std::copy(index_.begin(w), index_.end(w),
                    arena.pool.begin() + cursor);
          cursor += nb.count;
        }
      }
      packet_bits_each_[i] = packet_bit_size(PacketView(arena, i), k, n);
    }
  });

  packet_bits_ = 0;
  for (std::size_t i = 0; i < arena.headers.size(); ++i) {
    packet_bits_ += packet_bits_each_[i];
    if (node_to_prev_[packet_nodes_[i]] >= 0)
      ++counters_.packets_copied;
    else
      ++counters_.packets_rebuilt;
  }
  packets_ = PacketSet::ArenaHandle(std::move(arena_ptr));
}

PacketSet RoundContext::assemble_candidate_packets(
    const Graph& g, const Configuration& conf, bool with_neighborhood,
    const ByzantineModel* byzantine, ThreadPool* pool) const {
  auto arena = std::make_shared<PacketArena>();
  assemble_arena_metered(*arena, g, conf, with_neighborhood, index_, nullptr,
                         pool);
  if (byzantine) byzantine->tamper(*arena);
  return PacketSet::ArenaHandle(std::move(arena));
}

}  // namespace dyndisp
