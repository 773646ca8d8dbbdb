// dyndisp_campaign -- declarative scenario sweeps over the whole library.
//
// Turns a JSON campaign spec (axes: algorithms x adversaries x n x k x comm
// x faults x seeds) into a scheduled, persisted, resumable sweep: trials fan
// out over a thread pool, every result is appended to a JSONL store as it
// finishes, and an interrupted campaign picks up where it left off.
//
//   dyndisp_campaign run campaigns/table1.json --threads 8
//   dyndisp_campaign run campaigns/table1.json --seeds 2     # smoke mode
//   dyndisp_campaign run campaigns/table1.json --workers 4   # process fleet
//   dyndisp_campaign resume campaign_out/table1
//   dyndisp_campaign report campaign_out/table1 --csv table1.csv
//   dyndisp_campaign list
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/registry.h"
#include "campaign/scheduler.h"
#include "campaign/service/coordinator.h"
#include "campaign/service/worker.h"
#include "campaign/spec.h"
#include "campaign/store.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

using namespace dyndisp;
using namespace dyndisp::campaign;

constexpr const char* kUsage = R"(dyndisp_campaign -- scenario sweeps as data

commands:
  run <spec.json>      expand the spec's axes and run every trial
      --out DIR        result-store directory (default campaign_out/<name>)
      --threads N      in-process worker lanes (default: hardware
                       concurrency; the resolved value lands in the
                       manifest's run counters)
      --workers N      run through the service coordinator instead: N
                       worker PROCESSES with per-shard stores, crash
                       recovery, and a deterministic job-order merge
                       (see docs/CAMPAIGN.md); --workers 0 = auto
      --seeds S        override the spec's seeds-per-tuple (smoke mode)
      --quiet          suppress per-trial progress lines
      --no-timing      zero the per-record wall_ms field so the same
                       spec+seed yields byte-identical results.jsonl
                       (determinism regression; see scripts/check_determinism.sh)
      --kill-after N   test hook (with --workers): worker 0's first
                       incarnation SIGKILLs itself after N records
  resume <store-dir>   finish an interrupted campaign; completed trials
                       (records already in results.jsonl or leftover
                       shard stores) are skipped
      --threads N, --workers N, --quiet, --no-timing   as for run
  report <store-dir>   aggregate the JSONL records into the tuple table
      --csv FILE       also export the aggregate as CSV
  worker               internal: service worker (spawned by the
                       coordinator; reads job indices from stdin)
      --spec F --store DIR [--seeds S] [--no-timing]
      [--die-after N] [--die-on N]   crash-injection test hooks
  list                 enumerate registered algorithms, adversaries,
                       families, and placements
  --help               this text

The store directory holds spec.json (the spec copy resume reads),
results.jsonl (one record per finished trial; with --workers, the
job-ordered merge of the per-shard stores -- bitwise identical to a
--threads 1 run), and manifest.json (campaign identity plus per-invocation
executed/skipped/failed/wall-time/threads/workers counters).
)";

int check_unused(const CliArgs& args) {
  if (const auto unknown = args.unused(); !unknown.empty()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n",
                 unknown.front().c_str());
    return 2;
  }
  return 0;
}

/// Flags shared by run and resume.
struct RunFlags {
  std::size_t threads = 0;     ///< 0 = auto (resolved by the scheduler).
  bool use_workers = false;    ///< --workers given: coordinator path.
  std::size_t workers = 0;     ///< 0 = auto.
  std::size_t kill_after = 0;  ///< Crash-injection test hook.
  std::size_t seeds = 0;       ///< 0 = spec's own.
  bool quiet = false;
  bool record_timing = true;
};

RunFlags parse_run_flags(const CliArgs& args) {
  RunFlags f;
  f.threads = static_cast<std::size_t>(args.get_uint("threads", 0));
  f.use_workers = args.has("workers");
  f.workers = static_cast<std::size_t>(args.get_uint("workers", 0));
  f.kill_after = static_cast<std::size_t>(args.get_uint("kill-after", 0));
  if (args.has("seeds"))
    f.seeds = static_cast<std::size_t>(args.get_uint("seeds", 1));
  f.quiet = args.has("quiet");
  f.record_timing = !args.has("no-timing");
  return f;
}

/// Shared by run and resume once the spec and store are in hand. `spec`
/// already carries any seeds override; `flags.seeds` repeats it so the
/// coordinator can forward it to worker processes.
int execute(const CampaignSpec& spec, ResultStore& store,
            const RunFlags& flags) {
  if (flags.use_workers) {
    service::CoordinatorOptions copts;
    copts.workers = flags.workers;
    copts.seeds = flags.seeds;
    copts.record_timing = flags.record_timing;
    copts.kill_after = flags.kill_after;
    copts.progress = flags.quiet ? nullptr : &std::cout;
    const service::ServiceOutcome outcome =
        service::run_coordinator(spec, store, copts);
    std::printf(
        "campaign %s: %zu jobs, %zu executed, %zu skipped, %zu failed, "
        "%zu poisoned (%.1f ms, %zu workers, %zu crashes tolerated)\n",
        spec.name().c_str(), outcome.campaign.total,
        outcome.campaign.executed, outcome.campaign.skipped,
        outcome.campaign.failed, outcome.poisoned_jobs.size(),
        outcome.campaign.wall_ms, outcome.workers, outcome.worker_crashes);
    for (const std::string& id : outcome.poisoned_jobs)
      std::printf("poisoned (crashed a worker on every attempt): %s\n",
                  id.c_str());
    const auto groups = aggregate(store.load());
    std::fputs(render_report(spec.name(), groups).c_str(), stdout);
    std::printf("store: %s\n", store.dir().c_str());
    return outcome.ok() ? 0 : 1;
  }
  if (flags.kill_after != 0) {
    std::fprintf(stderr, "--kill-after needs --workers (see --help)\n");
    return 2;
  }
  const CampaignOutcome outcome =
      run_campaign(spec, store, flags.threads,
                   flags.quiet ? nullptr : &std::cout, flags.record_timing);
  std::printf(
      "campaign %s: %zu jobs, %zu executed, %zu skipped, %zu failed "
      "(%.1f ms, %zu threads)\n",
      spec.name().c_str(), outcome.total, outcome.executed, outcome.skipped,
      outcome.failed, outcome.wall_ms, outcome.threads);
  const auto groups = aggregate(store.load());
  std::fputs(render_report(spec.name(), groups).c_str(), stdout);
  std::printf("store: %s\n", store.dir().c_str());
  return outcome.failed == 0 ? 0 : 1;
}

int cmd_run(const std::string& spec_path, const CliArgs& args) {
  CampaignSpec spec = CampaignSpec::parse_file(spec_path);
  const RunFlags flags = parse_run_flags(args);
  if (flags.seeds != 0) spec.set_seeds(flags.seeds);
  const std::string out_dir =
      args.get("out", "campaign_out/" + spec.name());
  if (const int rc = check_unused(args)) return rc;

  ResultStore store(out_dir);
  return execute(spec, store, flags);
}

int cmd_resume(const std::string& store_dir, const CliArgs& args) {
  RunFlags flags = parse_run_flags(args);
  if (const int rc = check_unused(args)) return rc;

  ResultStore store(store_dir);
  CampaignSpec spec = CampaignSpec::parse_file(store.spec_path());
  if (flags.seeds == 0) {
    // The manifest remembers any --seeds override the original run applied,
    // so resume completes the campaign that was actually started.
    std::ifstream in(store.manifest_path());
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      try {
        const JsonValue manifest = JsonValue::parse(buffer.str());
        if (const JsonValue* seeds = manifest.find("seeds"))
          flags.seeds = static_cast<std::size_t>(seeds->as_uint());
      } catch (const std::invalid_argument&) {
        // Torn manifest (killed mid-write): fall back to the spec's seeds.
      }
    }
  }
  if (flags.seeds != 0) spec.set_seeds(flags.seeds);
  return execute(spec, store, flags);
}

int cmd_worker(const CliArgs& args) {
  service::WorkerOptions opts;
  opts.spec_path = args.get("spec", "");
  opts.store_dir = args.get("store", "");
  opts.seeds = static_cast<std::size_t>(args.get_uint("seeds", 0));
  opts.record_timing = !args.has("no-timing");
  opts.die_after = static_cast<std::size_t>(args.get_uint("die-after", 0));
  if (args.has("die-on"))
    opts.die_on_index = static_cast<std::size_t>(args.get_uint("die-on", 0));
  if (const int rc = check_unused(args)) return rc;
  if (opts.spec_path.empty() || opts.store_dir.empty()) {
    std::fprintf(stderr, "worker needs --spec and --store (see --help)\n");
    return 2;
  }
  return service::run_worker(opts, std::cin, std::cout);
}

int cmd_report(const std::string& store_dir, const CliArgs& args) {
  const std::string csv_path = args.get("csv", "");
  if (const int rc = check_unused(args)) return rc;

  ResultStore store(store_dir);
  const std::vector<TrialRecord> records = store.load();
  if (records.empty()) {
    std::fprintf(stderr, "no records in %s\n", store.results_path().c_str());
    return 1;
  }
  std::string name = store_dir;
  try {
    name = CampaignSpec::parse_file(store.spec_path()).name();
  } catch (const std::exception&) {
    // Report works on a bare results.jsonl too.
  }
  const auto groups = aggregate(records);
  std::fputs(render_report(name, groups).c_str(), stdout);
  std::size_t failed = 0;
  for (const auto& g : groups) failed += g.failed;
  const auto runs = store.run_history();
  std::printf("records: %zu   failed: %zu   scheduler invocations: %zu\n",
              records.size(), failed, runs.size());
  if (!csv_path.empty()) {
    write_report_csv(csv_path, groups);
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_list() {
  const Registry& registry = Registry::instance();
  const auto print = [](const char* category,
                        const std::vector<std::string>& names) {
    std::printf("%s:\n", category);
    for (const std::string& name : names)
      std::printf("  %s\n", name.c_str());
  };
  print("algorithms", registry.algorithm_names());
  print("adversaries", registry.adversary_names());
  print("families", registry.family_names());
  print("placements", registry.placement_names());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2 || std::string(argv[1]) == "--help" ||
        std::string(argv[1]) == "help") {
      std::fputs(kUsage, stdout);
      return argc < 2 ? 2 : 0;
    }
    const std::string command = argv[1];
    if (command == "list") {
      const CliArgs args(argc - 1, argv + 1);
      if (const int rc = check_unused(args)) return rc;
      return cmd_list();
    }
    if (command == "worker") {
      const CliArgs args(argc - 1, argv + 1);
      return cmd_worker(args);
    }
    if (command == "run" || command == "resume" || command == "report") {
      if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
        std::fprintf(stderr, "%s needs a %s argument (see --help)\n",
                     command.c_str(),
                     command == "run" ? "<spec.json>" : "<store-dir>");
        return 2;
      }
      // argv[2] is the positional path; CliArgs treats it as the program
      // name and parses the flags that follow.
      const CliArgs args(argc - 2, argv + 2);
      const std::string path = argv[2];
      if (command == "run") return cmd_run(path, args);
      if (command == "resume") return cmd_resume(path, args);
      return cmd_report(path, args);
    }
    std::fprintf(stderr, "unknown command '%s' (see --help)\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
