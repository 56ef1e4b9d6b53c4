// ShardCoordinator fault-tolerance contract (DESIGN.md §12):
//  - the merged report is byte-identical to a serial single-engine run at
//    any worker count, with real `memsentry_cli serve` subprocess workers;
//  - the chaos harness (kill / hang / garble, seeded) perturbs scheduling
//    only: the report still converges to the clean run's exact bytes;
//  - total worker loss degrades to in-process execution — the suite always
//    completes, flagged `degraded`;
//  - a cell that kills its worker on every attempt ends as a typed job
//    failure and never runs inline, so it cannot take the coordinator down;
//  - restore/on_cell_done durability hooks mirror the engine's semantics;
//  - the chaos schedule is a pure function of (seed, workload, cell,
//    attempt) and re-dispatched attempts always run clean.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/coordinator.h"
#include "src/eval/serve.h"
#include "src/suite/workloads.h"

#if !defined(_WIN32) && defined(MEMSENTRY_CLI)

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

namespace memsentry {
namespace {

eval::WorkloadOptions QuickOptions() {
  eval::WorkloadOptions options;
  options.quick = true;
  options.experiment.target_instructions = 100'000;
  return options;
}

// Small, fast registered workloads (same subset the engine tests use) so a
// full chaos schedule still finishes in seconds.
const std::vector<std::string>& TestWorkloads() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"fault_matrix", "table4_micro", "ablations"};
  return *names;
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "ms_coord_" + name + "_" + std::to_string(::getpid());
  std::system(("rm -rf \"" + dir + "\" && mkdir -p \"" + dir + "\"").c_str());
  return dir;
}

// Serial single-engine reference: the byte stream every coordinator run
// must reproduce.
void RunSerial(std::map<std::string, std::string>* metrics_out) {
  eval::EngineOptions options;
  options.jobs = 1;
  eval::CampaignEngine engine(&suite::SuiteRegistry(), std::move(options));
  for (const std::string& name : TestWorkloads()) {
    const uint64_t id = engine.Submit(name, QuickOptions());
    ASSERT_NE(id, 0u) << name;
    const eval::JobReport* report = engine.Wait(id);
    ASSERT_NE(report, nullptr);
    ASSERT_EQ(report->state, eval::JobState::kDone) << name;
    ASSERT_EQ(report->status, 0) << name;
    (*metrics_out)[name] = report->report.metrics().Dump(0);
  }
}

// Drives a full coordinator run over the test workloads and serializes each
// job's metric stream.
void RunShard(eval::CoordinatorOptions options, const std::string& dir_tag,
              std::map<std::string, std::string>* metrics_out,
              eval::CoordinatorStats* stats_out = nullptr) {
  if (options.worker_cli.empty()) {
    options.worker_cli = MEMSENTRY_CLI;
  }
  options.socket_dir = FreshDir(dir_tag);
  options.quiet = true;
  eval::ShardCoordinator coordinator(&suite::SuiteRegistry(), std::move(options));
  for (const std::string& name : TestWorkloads()) {
    ASSERT_NE(coordinator.Submit(name, QuickOptions()), 0u) << name;
  }
  EXPECT_EQ(coordinator.Run(), 0);
  for (const auto& report : coordinator.reports()) {
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->state, eval::JobState::kDone) << report->workload;
    EXPECT_EQ(report->status, 0) << report->workload;
    EXPECT_EQ(report->cell_names.size(), report->cell_seconds.size());
    (*metrics_out)[report->workload] = report->report.metrics().Dump(0);
  }
  if (stats_out != nullptr) {
    *stats_out = coordinator.stats();
  }
}

// How many first-attempt cells a chaos config fires on, computed from the
// same pure schedule function the server uses.
size_t ExpectedChaosHits(const eval::ServeChaos& chaos) {
  size_t hits = 0;
  for (const std::string& name : TestWorkloads()) {
    const eval::Workload* workload = suite::FindSuiteWorkload(name);
    EXPECT_NE(workload, nullptr) << name;
    if (workload == nullptr) {
      continue;
    }
    for (const eval::WorkloadCell& cell : workload->cells(QuickOptions())) {
      hits += !eval::ChaosDecision(chaos, name, cell.name, 1).empty();
    }
  }
  return hits;
}

TEST(ShardCoordinator, ChaosSpecParsesAndScheduleIsDeterministic) {
  auto parsed = eval::ParseChaosSpec("kill,hang,garble:seed=7:one_in=5:hang_ms=1234");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed->kill);
  EXPECT_TRUE(parsed->hang);
  EXPECT_TRUE(parsed->garble);
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->one_in, 5u);
  EXPECT_EQ(parsed->hang_ms, 1234u);
  // Format round-trips through the parser.
  auto again = eval::ParseChaosSpec(parsed->Format());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Format(), parsed->Format());

  EXPECT_FALSE(eval::ParseChaosSpec("").ok());
  EXPECT_FALSE(eval::ParseChaosSpec("explode:seed=1").ok());
  EXPECT_FALSE(eval::ParseChaosSpec("kill:seed=x").ok());
  EXPECT_FALSE(eval::ParseChaosSpec("kill:one_in=0").ok());
  EXPECT_FALSE(eval::ParseChaosSpec("kill:bogus=1").ok());

  // The schedule is a pure function of (seed, workload, cell, attempt):
  // stable across calls, only enabled modes, and attempts >= 2 always run
  // clean (the termination guarantee re-dispatch leans on).
  const eval::ServeChaos chaos = *parsed;
  bool fired = false;
  for (int i = 0; i < 64; ++i) {
    const std::string cell = "cell-" + std::to_string(i);
    const std::string first = eval::ChaosDecision(chaos, "w", cell, 1);
    EXPECT_EQ(first, eval::ChaosDecision(chaos, "w", cell, 1));
    EXPECT_TRUE(first.empty() || first == "kill" || first == "hang" || first == "garble")
        << first;
    fired |= !first.empty();
    EXPECT_EQ(eval::ChaosDecision(chaos, "w", cell, 2), "");
    EXPECT_EQ(eval::ChaosDecision(chaos, "w", cell, 3), "");
  }
  EXPECT_TRUE(fired);

  eval::ServeChaos kill_only;
  kill_only.kill = true;
  kill_only.seed = 11;
  for (int i = 0; i < 64; ++i) {
    const std::string mode =
        eval::ChaosDecision(kill_only, "w", "cell-" + std::to_string(i), 1);
    EXPECT_TRUE(mode.empty() || mode == "kill") << mode;
  }
}

// The core contract: real subprocess workers at any worker count produce
// the serial engine's exact bytes.
TEST(ShardCoordinator, CleanRunMatchesSerialAtAnyWorkerCount) {
  std::map<std::string, std::string> serial;
  ASSERT_NO_FATAL_FAILURE(RunSerial(&serial));
  ASSERT_EQ(serial.size(), TestWorkloads().size());

  for (const int workers : {1, 3}) {
    eval::CoordinatorOptions options;
    options.workers = workers;
    std::map<std::string, std::string> shard;
    eval::CoordinatorStats stats;
    ASSERT_NO_FATAL_FAILURE(
        RunShard(std::move(options), "clean_w" + std::to_string(workers), &shard, &stats));
    EXPECT_EQ(shard, serial) << "workers=" << workers;
    EXPECT_GT(stats.cells_total, 0u);
    EXPECT_EQ(stats.cells_inlined, 0u);
    EXPECT_FALSE(stats.degraded);
  }
}

// Chaos perturbs scheduling only: with kill/hang/garble firing on a seeded
// subset of first attempts, the report still converges to the clean bytes.
TEST(ShardCoordinator, ChaosRunsConvergeToCleanReport) {
  std::map<std::string, std::string> serial;
  ASSERT_NO_FATAL_FAILURE(RunSerial(&serial));

  for (const uint64_t seed : {7ull, 2ull}) {
    eval::ServeChaos chaos;
    chaos.kill = chaos.hang = chaos.garble = true;
    chaos.seed = seed;
    chaos.one_in = 3;
    chaos.hang_ms = 5000;  // > lease below, so hangs surface as expiries
    ASSERT_GT(ExpectedChaosHits(chaos), 0u) << "seed " << seed;

    eval::CoordinatorOptions options;
    options.workers = 3;
    options.lease_seconds = 2.0;
    options.chaos = chaos;
    std::map<std::string, std::string> shard;
    eval::CoordinatorStats stats;
    ASSERT_NO_FATAL_FAILURE(
        RunShard(std::move(options), "chaos_s" + std::to_string(seed), &shard, &stats));
    EXPECT_EQ(shard, serial) << "seed " << seed;
    // Every chaos hit costs the victim cell a re-dispatch (or, past the
    // attempt cap / under quarantine, an inline run).
    EXPECT_GT(stats.cells_redispatched + stats.cells_inlined, 0u) << "seed " << seed;
  }
}

// Total worker loss: every spawn fails, every worker quarantines, and the
// suite still completes in-process with the clean report, flagged degraded.
TEST(ShardCoordinator, DegradesToInlineWhenAllWorkersDie) {
  std::map<std::string, std::string> serial;
  ASSERT_NO_FATAL_FAILURE(RunSerial(&serial));

  eval::CoordinatorOptions options;
  options.worker_cli = "/bin/false";  // serve never comes up
  options.workers = 2;
  options.connect_attempts = 2;  // keep the spawn/backoff ladder short
  options.quarantine_after = 1;
  std::map<std::string, std::string> shard;
  eval::CoordinatorStats stats;
  ASSERT_NO_FATAL_FAILURE(RunShard(std::move(options), "degraded", &shard, &stats));
  EXPECT_EQ(shard, serial);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.workers_quarantined, 2u);
  EXPECT_EQ(stats.cells_inlined, stats.cells_total);
}

// Durability hooks mirror the engine: payloads recorded via on_cell_done
// and fed back through restore complete every cell without a single
// dispatch, and assembly reproduces the identical stream.
TEST(ShardCoordinator, RestoredCellsSkipDispatchAndReproduceMetrics) {
  std::mutex mutex;
  std::map<std::string, json::Value> payloads;
  eval::CoordinatorOptions record;
  record.workers = 2;
  record.on_cell_done = [&](const std::string& workload, const std::string& cell,
                            const json::Value& payload) {
    std::lock_guard<std::mutex> lock(mutex);
    payloads[workload + "/" + cell] = payload;
  };
  std::map<std::string, std::string> first;
  eval::CoordinatorStats first_stats;
  ASSERT_NO_FATAL_FAILURE(RunShard(std::move(record), "record", &first, &first_stats));
  ASSERT_GT(payloads.size(), 0u);
  EXPECT_EQ(first_stats.cells_total, payloads.size());
  EXPECT_EQ(first_stats.cells_restored, 0u);

  eval::CoordinatorOptions restore;
  restore.workers = 2;
  restore.restore = [&](const std::string& workload,
                        const std::string& cell) -> const json::Value* {
    auto it = payloads.find(workload + "/" + cell);
    return it == payloads.end() ? nullptr : &it->second;
  };
  std::map<std::string, std::string> second;
  eval::CoordinatorStats second_stats;
  ASSERT_NO_FATAL_FAILURE(RunShard(std::move(restore), "restore", &second, &second_stats));
  EXPECT_EQ(first, second);
  EXPECT_EQ(second_stats.cells_restored, payloads.size());
  EXPECT_EQ(second_stats.cells_dispatched, 0u);
}

// A cell that kills its worker on every attempt — fault_matrix's forced
// crash aborts whichever process runs it — must end as a typed job failure,
// never inline: an inline run would abort the coordinator as well. With two
// workers the attempt cap catches it; with one, three deaths in a row
// quarantine the only worker first (the raised attempt cap guarantees it)
// and the degraded path must catch it. Returns 0 only if the coordinator
// survived, the crashing job failed typed, and every other cell completed.
int RunLethalCellScenario(int workers) {
  std::map<std::string, size_t> completed;
  eval::CoordinatorOptions options;
  options.worker_cli = MEMSENTRY_CLI;
  options.socket_dir = FreshDir(workers == 1 ? "lethal_w1" : "lethal");
  options.workers = workers;
  if (workers == 1) {
    options.max_attempts = 8;
  }
  options.quiet = true;
  options.on_cell_done = [&completed](const std::string& workload, const std::string&,
                                      const json::Value&) { ++completed[workload]; };
  eval::ShardCoordinator coordinator(&suite::SuiteRegistry(), std::move(options));
  eval::WorkloadOptions lethal = QuickOptions();
  lethal.extra["force_crash"] = "MPK/pkru-desync";
  coordinator.Submit("fault_matrix", lethal);
  coordinator.Submit("table4_micro", QuickOptions());
  const int status = coordinator.Run();
  const eval::JobReport* crashed = coordinator.Find("fault_matrix");
  const eval::JobReport* healthy = coordinator.Find("table4_micro");
  const bool crashed_typed = crashed != nullptr && crashed->state == eval::JobState::kFailed &&
                             crashed->status == 1 &&
                             completed["fault_matrix"] + 1 == crashed->cell_names.size();
  const bool healthy_done = healthy != nullptr && healthy->state == eval::JobState::kDone &&
                            healthy->status == 0 &&
                            completed["table4_micro"] == healthy->cell_names.size();
  const eval::CoordinatorStats& stats = coordinator.stats();
  std::fprintf(stderr,
               "workers=%d status=%d crashed_typed=%d healthy_done=%d inlined=%llu "
               "respawned=%llu degraded=%d\n",
               workers, status, crashed_typed, healthy_done,
               static_cast<unsigned long long>(stats.cells_inlined),
               static_cast<unsigned long long>(stats.workers_respawned), stats.degraded);
  const bool survived_typed = status != 0 && crashed_typed && healthy_done &&
                              stats.cells_inlined == 0 && stats.workers_respawned > 0 &&
                              stats.degraded == (workers == 1);
  return survived_typed ? 0 : 1;
}

// Runs each scenario in a forked child, so a coordinator that dies fails
// this test rather than the test binary. The child leads its own process
// group: whatever workers a dead coordinator orphaned are killed with it.
TEST(ShardCoordinator, LethalCellFailsTypedAndCoordinatorSurvives) {
  for (const int workers : {2, 1}) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::setpgid(0, 0);
      ::_exit(RunLethalCellScenario(workers));
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ::kill(-pid, SIGKILL);
    ASSERT_TRUE(WIFEXITED(wstatus))
        << "workers=" << workers << ": the coordinator died with signal " << WTERMSIG(wstatus);
    EXPECT_EQ(WEXITSTATUS(wstatus), 0) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace memsentry

#endif  // !_WIN32 && MEMSENTRY_CLI
