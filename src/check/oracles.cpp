#include "check/oracles.h"

#include <memory>
#include <string>
#include <utility>

#include "analysis/verify.h"
#include "sim/sensing.h"
#include "util/bits.h"

namespace dyndisp::check {

OracleProfile oracle_profile(const TrialConfig& config, bool claims_lemmas) {
  OracleProfile p;
  if (!claims_lemmas) return p;
  // The paper proves the lemmas under global communication; "default"
  // resolves to global for every algorithm that claims them. An explicit
  // --comm local run is a model mismatch and voids the guarantees.
  if (config.comm != "default" && config.comm != "global") return p;
  const bool fault_free = config.faults == 0;
  p.occupied_monotone = fault_free;
  p.progress = fault_free;
  p.memory = true;
  p.dispersal = true;
  p.round_bound = fault_free;
  p.faulty_round_bound = !fault_free;
  return p;
}

InvariantChecker make_invariant_checker(const OracleProfile& profile,
                                        std::size_t k) {
  if (!profile.occupied_monotone && !profile.progress && !profile.memory)
    return nullptr;
  const OracleProfile p = profile;
  const std::size_t memory_bound =
      bit_width_for(static_cast<std::uint64_t>(k) + 1);
  return [p, memory_bound](const RoundSnapshot& s) {
    if (p.occupied_monotone &&
        s.after.occupied_count() < s.before.occupied_count()) {
      throw InvariantViolation(
          s.round, "occupied-monotone",
          "[occupied-monotone] Lemma 6: occupied nodes dropped from " +
              std::to_string(s.before.occupied_count()) + " to " +
              std::to_string(s.after.occupied_count()) + " in round " +
              std::to_string(s.round));
    }
    if (p.progress && s.newly_occupied == 0 && !s.crashed_this_round &&
        s.before.occupied_count() < s.before.alive_count()) {
      throw InvariantViolation(
          s.round, "progress",
          "[progress] Lemma 7: round " + std::to_string(s.round) +
              " occupied no new node while " +
              std::to_string(s.before.alive_count() -
                             s.before.occupied_count()) +
              " robot(s) were still sharing nodes");
    }
    if (p.memory && s.max_memory_bits > memory_bound) {
      throw InvariantViolation(
          s.round, "memory",
          "[memory] Lemma 8: peak robot memory " +
              std::to_string(s.max_memory_bits) + " bits exceeds ceil(log2(" +
              "k+1)) = " + std::to_string(memory_bound) + " bits at round " +
              std::to_string(s.round));
    }
  };
}

void install_broadcast_reference(EngineOptions& options,
                                 const FaultSchedule& faults) {
  if (options.comm != CommModel::kGlobal || options.byzantine) return;
  // The observer fires right after the round's broadcast is published, the
  // checker after its Move phase: the observer hands the digest over.
  struct Published {
    bool seen = false;
    Round round = 0;
    std::uint64_t digest = 0;
  };
  auto published = std::make_shared<Published>();
  options.packet_observer =
      [published, observer = std::move(options.packet_observer)](
          Round r, std::size_t count, std::size_t bits, std::uint64_t digest) {
        if (observer) observer(r, count, bits, digest);
        *published = Published{true, r, digest};
      };
  options.invariant_checker =
      [published, faults, neighborhood = options.neighborhood_knowledge,
       checker = std::move(options.invariant_checker)](
          const RoundSnapshot& s) {
        if (checker) checker(s);
        if (!faults.crashes_at(s.round, CrashPhase::kAfterCommunicate).empty())
          return;
        const std::string round = std::to_string(s.round);
        if (!published->seen || published->round != s.round)
          throw InvariantViolation(
              s.round, "broadcast-reference",
              "[broadcast-reference] no broadcast was published in round " +
                  round);
        const std::uint64_t reference = packet_set_digest(
            make_all_packets(s.graph, s.before, neighborhood));
        if (published->digest != reference)
          throw InvariantViolation(
              s.round, "broadcast-reference",
              "[broadcast-reference] round " + round +
                  " published a broadcast that differs from make_all_packets "
                  "on the round's graph and configuration");
      };
}

std::optional<Violation> post_run_violation(const OracleProfile& profile,
                                            const RunResult& result) {
  if (profile.dispersal && !result.dispersed) {
    return Violation{"dispersal", result.rounds,
                     "[dispersal] run ended after " +
                         std::to_string(result.rounds) +
                         " rounds without dispersing (" +
                         std::to_string(result.final_config.occupied_count()) +
                         "/" + std::to_string(result.k) + " nodes occupied)"};
  }
  if (profile.round_bound) {
    if (std::string err = analysis::check_round_bound(result); !err.empty())
      return Violation{"round-bound", result.rounds, "[round-bound] " + err};
  }
  if (profile.faulty_round_bound) {
    if (std::string err = analysis::check_faulty_round_bound(result);
        !err.empty())
      return Violation{"faulty-round-bound", result.rounds,
                       "[faulty-round-bound] " + err};
  }
  return std::nullopt;
}

}  // namespace dyndisp::check
