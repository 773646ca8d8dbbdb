// The campaign service coordinator: shards a spec's deterministic job list
// across worker *processes* and merges their shard stores back into one
// job-ordered results.jsonl.
//
// Scheduling is demand-driven: the coordinator holds the global job queue
// and feeds each worker exactly one job at a time over its stdin pipe, so a
// straggling worker never strands queued work behind it -- the moment any
// worker acks, it is handed the next pending job (work-stealing by pull).
//
// Crash tolerance: a worker that dies (SIGKILL, abort, nonzero exit) is
// reaped, its shard store is consulted -- a record the worker persisted but
// never acked counts as completed, not re-run -- and its in-flight job is
// requeued at the front of the queue for a freshly spawned replacement
// worker bound to the same shard directory. A job that takes a worker down
// `max_attempts` times (default 2) is deterministic poison: it is dropped,
// listed in the outcome, and makes the coordinator exit nonzero; everything
// else still completes.
//
// Determinism: workers append records in completion order, but the final
// merge (ResultStore::replace_all via merge_shards) rewrites the root
// results.jsonl in (job index, seed) order with the exact serializer the
// in-process scheduler uses -- so the merged store is bitwise identical to
// a single-process threads=1 run at ANY worker count, crashes included
// (modulo wall_ms, which --no-timing zeroes).
#pragma once

#include <cstddef>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "campaign/scheduler.h"
#include "campaign/spec.h"
#include "campaign/store.h"

namespace dyndisp::campaign::service {

struct CoordinatorOptions {
  /// Worker processes; 0 = auto (hardware concurrency), clamped to the
  /// pending job count. The resolved value is echoed in the manifest.
  std::size_t workers = 0;
  /// Path of the dyndisp_campaign binary to exec in `worker` mode; empty
  /// resolves /proc/self/exe (correct when the caller IS that binary --
  /// tests pass the path explicitly).
  std::string worker_binary;
  std::size_t seeds = 0;      ///< Seeds override forwarded to workers.
  bool record_timing = true;  ///< false => workers zero per-record wall_ms.
  /// Test hook: the FIRST incarnation of worker 0 is spawned with
  /// --die-after N (SIGKILL itself after N durable appends, pre-ack);
  /// its replacement runs normally. 0 = off.
  std::size_t kill_after = 0;
  /// Test hook: every worker is spawned with --die-on N (SIGKILL on
  /// receiving job index N, before running it) -- deterministic poison.
  std::size_t die_on_index = std::numeric_limits<std::size_t>::max();
  /// Attempts before a crash-looping job is declared deterministic and
  /// dropped (>= 1).
  std::size_t max_attempts = 2;
  std::ostream* progress = nullptr;  ///< Per-job progress lines.
};

struct ServiceOutcome {
  CampaignOutcome campaign;  ///< Same counters the scheduler reports.
  std::size_t workers = 0;   ///< Resolved fleet size.
  std::size_t worker_crashes = 0;  ///< Crashes tolerated via requeue.
  /// Jobs that crashed a worker `max_attempts` times and were dropped;
  /// non-empty forces a nonzero exit. (Trial failures that the worker
  /// survives are records, counted in campaign.failed instead.)
  std::vector<std::string> poisoned_jobs;
  bool ok() const { return campaign.failed == 0 && poisoned_jobs.empty(); }
};

/// Runs (or resumes) `spec` against `store` with a fleet of worker
/// processes. Leftover shard stores from a killed coordinator are folded in
/// before scheduling (their jobs are not re-run). Throws
/// std::invalid_argument on a spec-hash mismatch with the store and
/// std::runtime_error on process-management failures.
ServiceOutcome run_coordinator(const CampaignSpec& spec, ResultStore& store,
                               const CoordinatorOptions& options);

}  // namespace dyndisp::campaign::service
