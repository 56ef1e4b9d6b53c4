// ShardCoordinator — fault-tolerant fan-out of workload cells over the
// serve protocol (DESIGN.md §12, ROADMAP item 3).
//
// The coordinator spawns N `memsentry_cli serve` workers as local
// subprocesses (jobs=1 each, newline-JSON over per-worker UNIX sockets) and
// drives them with `run_cell` requests under time-bounded leases. Cells are
// pure functions of their recipe — (workload, cell, quick, instructions,
// seed, extra), the same keys the run memo hashes — so any attempt may be
// torn, repeated, or raced without affecting the result, and the merged
// report is byte-identical to a serial single-engine run at any worker
// count and under any chaos schedule.
//
// Robustness ladder (each rung catches what the one above lets through):
//   1. connect/ping with jitter-free seeded exponential backoff and a fixed
//      retry budget — a worker that never comes up is a worker failure;
//   2. lease expiry — a worker that accepts a cell but does not reply
//      within the lease is SIGKILLed, reaped, respawned, and the cell is
//      re-dispatched to a healthy worker;
//   3. reply validation — frames that fail JSON parse or the FNV-1a payload
//      digest are counted garbled and the cell re-dispatched;
//   4. quarantine — K consecutive failures retire the worker and
//      redistribute its queue;
//   5. per-cell attempt cap — a cell that keeps failing remotely runs
//      inline in the coordinator process (cells_inlined), unless every
//      attempt ended with its worker dying: such a cell would take the
//      coordinator down too, so it ends as a typed cell failure instead;
//   6. degradation — when every worker is quarantined the remaining cells
//      run inline serially (lethal cells again end as typed failures; a
//      worker death the chaos schedule ordered never makes a cell lethal on
//      its own); the suite always completes, flagged `degraded`.
#ifndef MEMSENTRY_SRC_EVAL_COORDINATOR_H_
#define MEMSENTRY_SRC_EVAL_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/serve.h"

namespace memsentry::eval {

struct CoordinatorOptions {
  // Path to the memsentry_cli binary used to spawn `serve` workers.
  std::string worker_cli;
  // Directory for per-worker sockets and log files (created if missing).
  std::string socket_dir;
  int workers = 3;              // clamped to >= 1
  double lease_seconds = 20.0;  // per-cell reply deadline once dispatched
  int quarantine_after = 3;     // consecutive failures before a worker is retired
  int max_attempts = 4;         // remote tries per cell before it runs inline (or fails)
  int connect_attempts = 8;     // ping retries per spawn (backoff 50ms doubling)
  ServeChaos chaos;             // forwarded to workers via serve --chaos
  bool quiet = false;
  // Durability hooks, mirroring EngineOptions: `restore` marks a cell done
  // at submit time with a recorded payload; `on_cell_done` streams each
  // completed cell's payload (called from the coordinator thread only).
  std::function<const json::Value*(const std::string& workload, const std::string& cell)>
      restore;
  std::function<void(const std::string& workload, const std::string& cell,
                     const json::Value& payload)>
      on_cell_done;
};

// All counters are host-timing-dependent (a loaded machine can expire a
// lease chaos never touched), so they surface as info-kind metrics only —
// never gated, never part of the determinism contract. `degraded` is the
// exception the acceptance criteria pin: all workers dead => 1.
struct CoordinatorStats {
  uint64_t cells_total = 0;
  uint64_t cells_restored = 0;
  uint64_t cells_dispatched = 0;    // run_cell requests sent (incl. re-dispatch)
  uint64_t cells_redispatched = 0;  // re-queued after a failed attempt
  uint64_t cells_inlined = 0;       // ran in-process (attempt cap or degraded)
  uint64_t lease_expiries = 0;
  uint64_t garbled_replies = 0;     // JSON parse or payload-digest failures
  uint64_t connect_retries = 0;
  uint64_t workers_respawned = 0;
  uint64_t workers_quarantined = 0;
  bool degraded = false;
};

class ShardCoordinator {
 public:
  ShardCoordinator(const WorkloadRegistry* registry, CoordinatorOptions options);
  ~ShardCoordinator();

  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  // Enqueues a workload's cells (same forcings as CampaignEngine::Submit).
  // Returns the job id, or 0 for an unknown workload. Submit everything
  // before Run(); the coordinator is single-shot.
  uint64_t Submit(const std::string& workload_name, const WorkloadOptions& options);

  // Spawns the fleet, drives every cell to completion (re-dispatching,
  // quarantining, and degrading as needed), assembles each job serially in
  // cell-enumeration order, and tears the fleet down. Returns the max job
  // status (0 = every workload assembled clean). The suite always
  // completes: total worker loss degrades to in-process execution.
  int Run();

  // Valid after Run(); reports are in submit order and stay alive for the
  // coordinator's lifetime. Find() is keyed by workload name.
  const std::vector<std::unique_ptr<JobReport>>& reports() const { return reports_; }
  const JobReport* Find(const std::string& workload_name) const;

  const CoordinatorStats& stats() const { return stats_; }

 private:
  struct JobRec;
  struct WorkerSlot;
  struct CellRef {
    size_t job = 0;
    size_t cell = 0;
    int attempts = 0;     // completed dispatch attempts
    int deaths = 0;       // attempts that ended with the worker dying, chaos kills aside
    int chaos_kills = 0;  // attempts whose worker the chaos schedule killed
  };

  double Now() const;
  void SpawnWorker(WorkerSlot& worker);
  void ShutdownWorker(WorkerSlot& worker, bool graceful);
  bool TryConnect(WorkerSlot& worker);
  void DispatchCell(WorkerSlot& worker, CellRef cell);
  void WorkerFailed(WorkerSlot& worker, const char* why, bool respawn);
  void RequeueOrInline(CellRef cell);
  void FailOrRunInline(const CellRef& cell);
  void RunCellInline(const CellRef& cell);
  void FailCell(const CellRef& cell, const std::string& why);
  void CompleteCell(const CellRef& cell, json::Value payload, double seconds);
  void HandleFrame(WorkerSlot& worker, const std::string& frame);
  void PollWorkers(double timeout_seconds);
  bool AllQuarantined() const;
  void RunDegraded();

  const WorkloadRegistry* registry_;
  CoordinatorOptions options_;
  std::vector<std::unique_ptr<JobRec>> jobs_;
  std::vector<std::unique_ptr<JobReport>> reports_;
  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  std::vector<CellRef> queue_;  // FIFO of cells awaiting dispatch
  CoordinatorStats stats_;
  bool ran_ = false;
};

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_COORDINATOR_H_
