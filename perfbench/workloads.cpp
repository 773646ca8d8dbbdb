#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/verify.h"
#include "campaign/registry.h"
#include "campaign/scheduler.h"
#include "core/dispersion.h"

namespace perfbench {

const std::vector<EngineWorkload>& engine_workloads() {
  static const std::vector<EngineWorkload> all = {
      {"churn-10k", "random", "random", "random", 10000, 11000},
      {"replay-static", "static", "random", "rooted", 1024, 1024},
      {"ring-worst", "ring-worst", "random", "rooted", 128, 192},
  };
  return all;
}

EngineWorkload scaled(const EngineWorkload& w, std::size_t k) {
  EngineWorkload s = w;
  s.n = w.n * k / w.k;
  s.k = k;
  return s;
}

EngineRun setup_engine(const EngineWorkload& w, std::uint64_t seed,
                       std::size_t threads, bool decorate,
                       LayerReplay* replay) {
  const campaign::Registry& registry = campaign::Registry::instance();
  EngineRun run;
  run.adversary = registry.adversary(w.adversary, w.family, w.n, seed);
  if (decorate) {
    auto timed = std::make_unique<TimedAdversary>(std::move(run.adversary));
    run.timed = timed.get();
    run.adversary = std::move(timed);
  }
  // Families may round the requested size; place on the graph's real n.
  Configuration initial = registry.placement(
      w.placement, run.adversary->node_count(), w.k, /*groups=*/3, seed);
  EngineOptions opt;
  opt.max_rounds = 10 * w.k;
  opt.threads = threads;
  if (replay != nullptr) install(opt, *replay);
  run.engine = std::make_unique<Engine>(*run.adversary, std::move(initial),
                                        core::dispersion_factory_memoized(),
                                        opt);
  return run;
}

campaign::CampaignSpec load_sweep_spec(const std::string& path,
                                       std::uint64_t seed) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read sweep spec " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  // The seed is the benchmark's argument, so the file must not set one.
  const std::size_t end = text.rfind('}');
  if (end == std::string::npos || text.find("\"base_seed\"") != std::string::npos)
    throw std::runtime_error("sweep spec " + path +
                             " must be a JSON object without base_seed");
  text.insert(end, ", \"base_seed\": " + std::to_string(seed) + "\n");
  return campaign::CampaignSpec::parse_json(text);
}

SweepRun run_sweep(const campaign::CampaignSpec& spec, std::size_t lanes,
                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  SweepRun run;
  {
    campaign::ResultStore store(dir);
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignOutcome out =
        campaign::run_campaign(spec, store, lanes);
    run.wall_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    run.lanes = out.threads;
    run.records = store.load();
  }
  std::filesystem::remove_all(dir);
  std::sort(run.records.begin(), run.records.end(),
            [](const campaign::TrialRecord& a, const campaign::TrialRecord& b) {
              return a.job.index < b.job.index;
            });
  return run;
}

RunResult traced_job(const campaign::JobSpec& job, LayerReplay* replay,
                     TimedAdversary::Counters& counters) {
  const analysis::TrialSpec trial = campaign::make_trial_spec(job);
  TimedAdversary adversary(trial.adversary(job.seed));
  EngineOptions opt = trial.options;
  if (replay != nullptr) install(opt, *replay);
  Engine engine(adversary, trial.placement(job.seed), trial.algorithm, opt,
                trial.faults ? trial.faults(job.seed) : FaultSchedule::none());
  RunResult r = engine.run();
  counters = adversary.counters();
  return r;
}

namespace {

/// The RunResult fields a record carries. Records keep the engine's own
/// final verdict (RunResult::dispersed is Configuration::is_dispersed() at
/// exit) but not the configuration, so final_config stays empty.
RunResult result_of(const campaign::TrialRecord& rec) {
  RunResult r;
  r.dispersed = rec.dispersed;
  r.rounds = static_cast<Round>(rec.rounds);
  r.k = rec.job.k;
  r.initial_occupied = 1;  // rooted: every robot starts on one node
  r.crashed = rec.crashed;
  r.max_memory_bits = rec.memory_bits;
  return r;
}

}  // namespace

std::string check_record(const campaign::TrialRecord& rec) {
  if (!rec.ok) return rec.job.id() + ": trial failed: " + rec.error;
  if (rec.job.placement != "rooted")
    return rec.job.id() + ": the gate assumes a rooted placement";
  const RunResult r = result_of(rec);
  std::string err = analysis::check_round_bound(r);
  if (err.empty()) err = analysis::check_memory_bound(r);
  return err.empty() ? err : rec.job.id() + ": " + err;
}

bool exceeds_theorem5(const campaign::TrialRecord& rec) {
  return rec.job.faults > 0 &&
         !analysis::check_faulty_round_bound(result_of(rec)).empty();
}

std::uint64_t records_digest(
    const std::vector<campaign::TrialRecord>& records) {
  Fnv f;
  for (const campaign::TrialRecord& r : records) {
    f.mix(r.job.index);
    f.mix(r.job.id());
    f.mix(r.spec_hash);
    f.mix(r.ok);
    f.mix(r.error);
    for (const std::uint64_t x : {std::uint64_t{r.dispersed}, r.rounds, r.moves,
                                  r.memory_bits, r.max_occupied, r.crashed})
      f.mix(x);
  }
  return f.h;
}

}  // namespace perfbench
