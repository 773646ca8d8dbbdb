#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>

#include "analysis/verify.h"
#include "core/component.h"
#include "core/disjoint_paths.h"
#include "core/dispersion.h"
#include "core/planner.h"
#include "core/spanning_tree.h"
#include "dynamic/validator.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Runs `f`, adding its wall time to `acc_ns`.
template <class F>
decltype(auto) timed(std::uint64_t& acc_ns, F&& f) {
  struct Add {
    std::uint64_t& acc;
    std::uint64_t t0;
    ~Add() { acc += now_ns() - t0; }
  } add{acc_ns, now_ns()};
  return f();
}

}  // namespace

// --- TimedAdversary --------------------------------------------------------

TimedAdversary::TimedAdversary(std::unique_ptr<Adversary> inner)
    : inner_(std::move(inner)) {}

Graph TimedAdversary::next_graph(Round r, const Configuration& conf) {
  ++counters_.next_graph_calls;
  return timed(counters_.next_graph_ns,
               [&] { return inner_->next_graph(r, conf); });
}

void TimedAdversary::next_graph_into(Round r, const Configuration& conf,
                                     Graph& out) {
  ++counters_.next_graph_calls;
  timed(counters_.next_graph_ns,
        [&] { inner_->next_graph_into(r, conf, out); });
}

bool TimedAdversary::same_as_last(Round r, const Configuration& conf) const {
  const bool same = inner_->same_as_last(r, conf);
  if (same) ++counters_.reuse_hints;
  return same;
}

void TimedAdversary::set_plan_probe(PlanProbe probe) {
  inner_->set_plan_probe(
      [this, probe = std::move(probe)](const Graph& g) {
        ++counters_.probes;
        return timed(counters_.probe_ns, [&] { return probe(g); });
      });
}

// --- LayerReplay -----------------------------------------------------------

void LayerTotals::add(const LayerTotals& o) {
  rounds += o.rounds;
  replay_ns += o.replay_ns;
  validate_ns += o.validate_ns;
  validations += o.validations;
  broadcast_ns += o.broadcast_ns;
  packets += o.packets;
  packet_bits += o.packet_bits;
  view_ns += o.view_ns;
  components_ns += o.components_ns;
  components += o.components;
  multiplicity_components += o.multiplicity_components;
  trees_ns += o.trees_ns;
  paths_ns += o.paths_ns;
  paths_kept += o.paths_kept;
  plan_component_ns += o.plan_component_ns;
  movers += o.movers;
  move_ns += o.move_ns;
  moves += o.moves;
  mover_mismatches += o.mover_mismatches;
  move_mismatches += o.move_mismatches;
}

LayerReplay::LayerReplay(std::size_t k)
    : needs_(core::DispersionRobot(1, k).view_needs()),
      arena_(std::make_shared<PacketArena>()) {}

void LayerReplay::on_round(const RoundSnapshot& snap) {
  const std::uint64_t begin = now_ns();
  const Graph& g = snap.graph;
  const Configuration& conf = snap.before;
  const std::size_t k = conf.robot_count();
  ++totals_.rounds;

  // Round-graph validation runs once per distinct emitted graph, as in the
  // engine, which skips re-validating an unchanged graph.
  const std::uint64_t fp = g.fingerprint();
  if (!have_validated_ || fp != validated_fp_) {
    const std::string err = timed(totals_.validate_ns, [&] {
      return validate_round_graph(g, conf.node_count());
    });
    if (!err.empty())
      throw InvariantViolation(snap.round, "perfbench-replay", err);
    ++totals_.validations;
    have_validated_ = true;
    validated_fp_ = fp;
  }

  // Broadcast: node index plus the metered flat packet assembly.
  std::size_t bits = 0;
  timed(totals_.broadcast_ns, [&] {
    index_.build(conf);
    assemble_arena_metered(*arena_, g, conf, /*with_neighborhood=*/true,
                           index_, &bits);
  });
  const PacketSet packets{std::shared_ptr<const PacketArena>(arena_)};
  totals_.packets += packets.size();
  totals_.packet_bits += bits;

  // Views for every alive robot under Algorithm 4's declared needs.
  if (views_.size() != k) views_.resize(k);
  timed(totals_.view_ns, [&] {
    for (RobotId id = 1; id <= k; ++id) {
      if (!conf.alive(id)) continue;
      fill_view(views_[id - 1], g, conf, id, snap.round, CommModel::kGlobal,
                /*neighborhood=*/true, packets, index_, needs_);
    }
  });

  // Algorithms 1-4 on the same packets.
  trivial_.clear();
  const std::vector<core::ComponentGraph> comps = timed(
      totals_.components_ns,
      [&] { return core::build_components_split(packets, &trivial_); });
  totals_.components += comps.size() + trivial_.size();
  is_mover_.assign(k + 1, 0);
  std::uint64_t round_movers = 0;
  for (const core::ComponentGraph& cg : comps) {
    if (!cg.has_multiplicity()) continue;
    ++totals_.multiplicity_components;
    const core::SpanningTree st =
        timed(totals_.trees_ns, [&] { return core::build_spanning_tree(cg); });
    const std::size_t cap = cg.find(st.root())->count - 1;
    totals_.paths_kept +=
        timed(totals_.paths_ns, [&] {
          return core::disjoint_paths(cg, st, cap);
        }).size();
    const core::SlidePlan plan = timed(
        totals_.plan_component_ns, [&] { return core::plan_component(cg, st); });
    for (const auto& [id, directive] : plan.movers) {
      (void)directive;
      is_mover_[id] = 1;
      ++round_movers;
    }
  }
  totals_.movers += round_movers;

  // The replay must time the work the engine applied: its movers are
  // exactly the robots the engine gave a real exit port. A robot crashing
  // after Communicate is absent from `before` but was in the engine's
  // broadcast, so crash rounds plan on different packets and are exempt.
  std::uint64_t engine_movers = 0;
  bool same_movers = true;
  for (RobotId id = 1; id <= k; ++id) {
    const bool moves = snap.plan[id - 1] != kInvalidPort;
    engine_movers += moves;
    same_movers &= moves == (is_mover_[id] != 0);
  }
  if (!snap.crashed_this_round &&
      (!same_movers || engine_movers != round_movers))
    ++totals_.mover_mismatches;

  const Configuration after = timed(
      totals_.move_ns, [&] { return apply_plan(g, conf, snap.plan); });
  totals_.moves += engine_movers;
  if (!(after == snap.after)) ++totals_.move_mismatches;
  totals_.replay_ns += now_ns() - begin;
}

void install(EngineOptions& opt, LayerReplay& replay) {
  opt.invariant_checker = [&replay](const RoundSnapshot& snap) {
    replay.on_round(snap);
  };
}

// --- Outcome ---------------------------------------------------------------

std::uint64_t Outcome::digest() const {
  Fnv f;
  for (const std::uint64_t x :
       {std::uint64_t{dispersed}, k, rounds, total_moves, packets_sent,
        packet_bits_sent, max_memory_bits, final_config_hash})
    f.mix(x);
  return f.h;
}

Outcome summarize(const RunResult& r, std::string* error) {
  Outcome out;
  out.dispersed = r.dispersed;
  out.k = r.k;
  out.rounds = r.rounds;
  out.total_moves = r.total_moves;
  out.packets_sent = r.packets_sent;
  out.packet_bits_sent = r.packet_bits_sent;
  out.max_memory_bits = r.max_memory_bits;
  Fnv f;
  const Configuration& c = r.final_config;
  f.mix(c.node_count());
  for (RobotId id = 1; id <= c.robot_count(); ++id) {
    f.mix(c.alive(id));
    f.mix(c.position(id));
  }
  out.final_config_hash = f.h;
  std::string err = analysis::check_round_bound(r);
  if (err.empty()) err = analysis::check_memory_bound(r);
  out.bounds_ok = err.empty();
  if (error != nullptr) *error = err;
  return out;
}

// --- PeakRss ---------------------------------------------------------------

namespace {

/// A "Key:   N kB" line of /proc/self/status, in kB (0 when absent).
std::uint64_t status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb;
  }
  return 0;
}

}  // namespace

bool PeakRss::reset() {
  malloc_trim(0);
  {
    std::ofstream clear("/proc/self/clear_refs");
    if (!clear) return false;
    clear << "5";
    if (!clear.flush()) return false;
  }
  // Some pages may be touched between the two reads; 1 MB of slack keeps
  // the check from failing on that alone.
  const std::uint64_t hwm = status_kb("VmHWM");
  const std::uint64_t rss = status_kb("VmRSS");
  return hwm != 0 && hwm <= rss + 1024;
}

double PeakRss::peak_mb() {
  return static_cast<double>(status_kb("VmHWM")) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

}  // namespace perfbench
