// The benchmark's workloads: three single-run engine workloads and one
// in-process campaign sweep, each built from the library's public
// registry and campaign APIs. All inputs derive from the workload seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "campaign/store.h"
#include "harness.h"

namespace perfbench {

/// One Engine::run of Algorithm 4 on a registry adversary and placement.
struct EngineWorkload {
  std::string name;
  std::string adversary;
  std::string family;  ///< Static adversaries' graph family.
  std::string placement;
  std::size_t k = 0;
  std::size_t n = 0;
};

/// The engine workloads at their benchmark sizes: churn-10k,
/// replay-static, ring-worst.
const std::vector<EngineWorkload>& engine_workloads();

/// `w` shrunk to `k` robots with the same n/k ratio (self-tests).
EngineWorkload scaled(const EngineWorkload& w, std::size_t k);

/// A constructed run: the adversary (optionally decorated) and the engine
/// that borrows it. Member order makes the engine die first.
struct EngineRun {
  std::unique_ptr<Adversary> adversary;
  TimedAdversary* timed = nullptr;  ///< Non-null when decorated.
  std::unique_ptr<Engine> engine;
};

/// Builds adversary, placement and Engine for `w` at `seed` with `threads`
/// compute threads. `decorate` wraps the adversary in a TimedAdversary;
/// `replay` (optional, must outlive the run) is installed as the
/// invariant checker.
EngineRun setup_engine(const EngineWorkload& w, std::uint64_t seed,
                       std::size_t threads, bool decorate,
                       LayerReplay* replay = nullptr);

/// The sweep spec at `path`, which must not set base_seed, with base_seed
/// `seed` added.
campaign::CampaignSpec load_sweep_spec(const std::string& path,
                                       std::uint64_t seed);

/// One run_campaign of `spec` with `lanes` lanes into a fresh store under
/// `dir` (removed afterwards). Records come back sorted by job index.
struct SweepRun {
  double wall_s = 0;
  std::size_t lanes = 0;
  std::vector<campaign::TrialRecord> records;
};
SweepRun run_sweep(const campaign::CampaignSpec& spec, std::size_t lanes,
                   const std::string& dir);

/// Runs sweep job `job` outside the campaign scheduler, constructed
/// exactly as make_trial_spec/run_trial do, but with a decorated adversary
/// (its counters land in `counters`) and, when non-null, `replay` installed.
RunResult traced_job(const campaign::JobSpec& job, LayerReplay* replay,
                     TimedAdversary::Counters& counters);

/// The correctness gate of one campaign record: the trial ran, dispersed,
/// and met Theorem 4 (analysis::check_round_bound; rooted placement) and
/// Lemma 8 (check_memory_bound). Empty on success, else the violation.
std::string check_record(const campaign::TrialRecord& rec);

/// True for a crash-fault record over analysis::check_faulty_round_bound's
/// k - f + 1 rounds (Theorem 5 as the library states it). Reported as a
/// count, not gated: crashes drawn late in the run defeat that bound.
bool exceeds_theorem5(const campaign::TrialRecord& rec);

/// Digest of a record set over every field but wall_ms: two runs of one
/// spec agree exactly when their digests do.
std::uint64_t records_digest(const std::vector<campaign::TrialRecord>& records);

}  // namespace perfbench
