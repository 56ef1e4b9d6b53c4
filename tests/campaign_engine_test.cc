// CampaignEngine determinism and durability contract (DESIGN.md §11):
//  - metric streams are bit-identical for every worker count / steal
//    schedule, and identical to the standalone (ParallelMap) execution;
//  - restored cells (the journal resume path) skip execution but feed
//    assembly the exact payloads, reproducing the metric stream;
//  - the runner's --engine=inproc merged report is bit-identical to the
//    standalone `memsentry_cli run` reports at any --jobs, which reject
//    arguments they do not recognise;
//  - a kill -9 mid-suite plus --resume converges to the clean-run report;
//  - Post() runs ad-hoc tasks concurrently on the workers, and OnJobDone()
//    fires once with the final report;
//  - `serve` round-trips submit/status/wait/cancel/shutdown over its socket.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/run_memo.h"
#include "src/eval/serve.h"
#include "src/suite/workloads.h"

#if !defined(_WIN32)

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

namespace memsentry {
namespace {

eval::EngineOptions Workers(int jobs) {
  eval::EngineOptions options;
  options.jobs = jobs;
  return options;
}

eval::WorkloadOptions QuickOptions() {
  eval::WorkloadOptions options;
  options.quick = true;
  options.experiment.target_instructions = 100'000;
  return options;
}

// The fast registered workloads the engine-level tests schedule. Kept small
// so the full test file stays a few seconds; the sweep-heavy workloads are
// covered by the runner-level subset below.
const std::vector<std::string>& TestWorkloads() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"fault_matrix", "table4_micro", "ablations"};
  return *names;
}

// Runs every test workload through one engine, filling `metrics_out` with
// the serialized metric stream per workload. (void so ASSERT_* can bail.)
void RunEngine(int jobs, eval::EngineOptions options,
               std::map<std::string, std::string>* metrics_out,
               eval::EngineStats* stats_out = nullptr) {
  options.jobs = jobs;
  std::map<std::string, std::string>& metrics = *metrics_out;
  eval::CampaignEngine engine(&suite::SuiteRegistry(), std::move(options));
  std::vector<uint64_t> ids;
  for (const std::string& name : TestWorkloads()) {
    const uint64_t id = engine.Submit(name, QuickOptions());
    ASSERT_NE(id, 0u) << name;
    ids.push_back(id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const eval::JobReport* report = engine.Wait(ids[i]);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->state, eval::JobState::kDone) << report->workload;
    EXPECT_EQ(report->status, 0) << report->workload;
    EXPECT_EQ(report->cell_names.size(), report->cell_seconds.size());
    metrics[report->workload] = report->report.metrics().Dump(0);
  }
  if (stats_out != nullptr) {
    *stats_out = engine.stats();
  }
}

// The core scheduling-independence property: 1 worker, 4 workers (steal
// schedules differ run to run), and the standalone ParallelMap path all
// produce byte-identical metric streams.
TEST(CampaignEngine, MetricsIndependentOfWorkerCountAndSchedule) {
  std::map<std::string, std::string> serial;
  ASSERT_NO_FATAL_FAILURE(RunEngine(1, {}, &serial));
  std::map<std::string, std::string> parallel;
  ASSERT_NO_FATAL_FAILURE(RunEngine(4, {}, &parallel));
  EXPECT_EQ(serial, parallel);

  // Standalone execution (what the bench binaries run) emits the same
  // stream. The run memo must be value-preserving, so equality holds whether
  // or not earlier engine runs left cached entries behind.
  for (const std::string& name : TestWorkloads()) {
    const eval::Workload* workload = suite::FindSuiteWorkload(name);
    ASSERT_NE(workload, nullptr) << name;
    eval::ReportBuilder report;
    EXPECT_EQ(eval::RunWorkloadStandalone(*workload, QuickOptions(), report), 0) << name;
    EXPECT_EQ(report.metrics().Dump(0), serial[name]) << name;
  }
}

// The memo is an engine-scoped cache, not an approximation: disabling it
// must not change a single metric byte.
TEST(CampaignEngine, RunMemoIsValuePreserving) {
  eval::EngineOptions with_memo;
  with_memo.run_memo = true;
  eval::EngineOptions without_memo;
  without_memo.run_memo = false;
  std::map<std::string, std::string> memoized;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(with_memo), &memoized));
  std::map<std::string, std::string> fresh;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(without_memo), &fresh));
  EXPECT_EQ(memoized, fresh);
}

// Durability hooks: payloads recorded via on_cell_done and fed back through
// restore mark every cell done without running it, and assembly still
// produces the identical metric stream — the property bench_runner's
// --resume builds on.
TEST(CampaignEngine, RestoredCellsReproduceMetricsWithoutRunning) {
  std::mutex mutex;
  std::map<std::string, json::Value> payloads;  // "workload/cell" -> payload
  eval::EngineOptions record;
  record.on_cell_done = [&](const std::string& workload, const std::string& cell,
                            const json::Value& payload) {
    std::lock_guard<std::mutex> lock(mutex);
    payloads[workload + "/" + cell] = payload;
  };
  std::map<std::string, std::string> first;
  eval::EngineStats first_stats;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(record), &first, &first_stats));
  ASSERT_GT(payloads.size(), 0u);
  EXPECT_EQ(first_stats.cells_run, payloads.size());
  EXPECT_EQ(first_stats.cells_restored, 0u);

  eval::EngineOptions restore;
  restore.restore = [&](const std::string& workload,
                        const std::string& cell) -> const json::Value* {
    auto it = payloads.find(workload + "/" + cell);
    return it == payloads.end() ? nullptr : &it->second;
  };
  std::map<std::string, std::string> second;
  eval::EngineStats second_stats;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(restore), &second, &second_stats));
  EXPECT_EQ(first, second);
  EXPECT_EQ(second_stats.cells_run, 0u);
  EXPECT_EQ(second_stats.cells_restored, payloads.size());
}

TEST(CampaignEngine, UnknownIdsAndCancelSemantics) {
  eval::CampaignEngine engine(&suite::SuiteRegistry(), {});
  EXPECT_EQ(engine.Submit("no_such_workload", QuickOptions()), 0u);
  EXPECT_TRUE(engine.JobStatus(999).is_null());
  EXPECT_EQ(engine.Wait(999), nullptr);
  EXPECT_FALSE(engine.Cancel(999));

  const uint64_t id = engine.Submit("fault_matrix", QuickOptions());
  ASSERT_NE(id, 0u);
  const eval::JobReport* report = engine.Wait(id);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->state, eval::JobState::kDone);
  // Finished jobs cannot be cancelled.
  EXPECT_FALSE(engine.Cancel(id));
  const json::Value status = engine.JobStatus(id);
  EXPECT_EQ(status.StringOr("state", ""), "done");
  EXPECT_EQ(status.NumberOr("cells_done", -1), status.NumberOr("cells_total", -2));
}

// Post() runs ad-hoc tasks on the engine's workers, concurrently: two tasks
// that each wait for the other can only both finish if they overlap.
TEST(CampaignEngine, PostedTasksRunConcurrentlyOnWorkers) {
  std::mutex mutex;
  std::condition_variable arrived;
  std::condition_variable all_done;
  int present = 0;
  int met = 0;
  int finished = 0;
  // Declared last: its destructor drains the tasks before their state goes.
  eval::CampaignEngine engine(&suite::SuiteRegistry(), Workers(2));
  const auto rendezvous = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    ++present;
    arrived.notify_all();
    if (arrived.wait_for(lock, std::chrono::seconds(10), [&] { return present == 2; })) {
      ++met;
    }
    ++finished;
    all_done.notify_all();
  };
  engine.Post(rendezvous);
  engine.Post(rendezvous);
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(all_done.wait_for(lock, std::chrono::seconds(30), [&] { return finished == 2; }));
  EXPECT_EQ(met, 2);
  // Posted tasks are not cells.
  EXPECT_EQ(engine.stats().cells_run, 0u);
}

// OnJobDone is the non-blocking Wait: it fires exactly once with the final
// report — from the finishing worker, or at once for a finished job — and
// refuses unknown ids.
TEST(CampaignEngine, OnJobDoneFiresOnceWithTheFinalReport) {
  std::mutex mutex;
  std::condition_variable fired_cv;
  std::vector<std::string> fired;  // state names, in callback order
  eval::CampaignEngine engine(&suite::SuiteRegistry(), Workers(2));
  EXPECT_FALSE(engine.OnJobDone(999, [](const eval::JobReport&) { FAIL(); }));

  const uint64_t id = engine.Submit("fault_matrix", QuickOptions());
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(engine.OnJobDone(id, [&](const eval::JobReport& report) {
    std::lock_guard<std::mutex> lock(mutex);
    fired.push_back(eval::JobStateName(report.state));
    fired_cv.notify_all();
  }));
  const eval::JobReport* report = engine.Wait(id);
  ASSERT_NE(report, nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(fired_cv.wait_for(lock, std::chrono::seconds(30), [&] { return !fired.empty(); }));
    EXPECT_EQ(fired, std::vector<std::string>{"done"});
  }

  const eval::JobReport* seen = nullptr;
  ASSERT_TRUE(engine.OnJobDone(id, [&](const eval::JobReport& r) { seen = &r; }));
  EXPECT_EQ(seen, report) << "a finished job's callback runs before OnJobDone returns";
}

// `memsentry_cli serve` protocol: a resident engine behind a UNIX socket.
TEST(CampaignEngine, ServeSocketRoundTrip) {
  const std::string socket_path =
      ::testing::TempDir() + "ms_serve_" + std::to_string(::getpid()) + ".sock";
  ::unlink(socket_path.c_str());
  eval::ServeOptions options;
  options.socket_path = socket_path;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.quiet = true;
  int serve_status = -1;
  std::thread server([&] { serve_status = eval::ServeLoop(options); });

  auto request = [&](json::Value req) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto response = eval::ServeRequest(socket_path, req);
      if (response.ok()) {
        return std::move(response).value();
      }
      ::usleep(50'000);  // server still binding
    }
    ADD_FAILURE() << "serve socket never came up: " << socket_path;
    return json::Value();
  };

  json::Value ping = json::Value::Object();
  ping.Set("cmd", "ping");
  EXPECT_TRUE(request(std::move(ping)).BoolOr("ok", false));

  json::Value list = json::Value::Object();
  list.Set("cmd", "workloads");
  const json::Value workloads = request(std::move(list));
  EXPECT_TRUE(workloads.BoolOr("ok", false));
  bool has_fault_matrix = false;
  if (const json::Value* names = workloads.Find("workloads")) {
    for (const json::Value& name : names->items()) {
      has_fault_matrix |= name.is_string() && name.string_value() == "fault_matrix";
    }
  }
  EXPECT_TRUE(has_fault_matrix);

  json::Value submit = json::Value::Object();
  submit.Set("cmd", "submit");
  submit.Set("workload", "fault_matrix");
  submit.Set("quick", true);
  submit.Set("instructions", 100'000);
  const json::Value submitted = request(std::move(submit));
  ASSERT_TRUE(submitted.BoolOr("ok", false));
  const uint64_t job = static_cast<uint64_t>(submitted.NumberOr("job", 0));
  ASSERT_GE(job, 1u);

  json::Value wait = json::Value::Object();
  wait.Set("cmd", "wait");
  wait.Set("job", job);
  const json::Value finished = request(std::move(wait));
  EXPECT_TRUE(finished.BoolOr("ok", false));
  const json::Value* info = finished.Find("job");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->StringOr("state", ""), "done");
  const json::Value* metrics = finished.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->size(), 0u);

  json::Value bogus = json::Value::Object();
  bogus.Set("cmd", "wait");
  bogus.Set("job", 424242);
  EXPECT_FALSE(request(std::move(bogus)).BoolOr("ok", true));

  json::Value cancel = json::Value::Object();
  cancel.Set("cmd", "cancel");
  cancel.Set("job", job);
  const json::Value cancelled = request(std::move(cancel));
  EXPECT_TRUE(cancelled.BoolOr("ok", false));
  EXPECT_FALSE(cancelled.BoolOr("cancelled", true));  // job already finished

  json::Value shutdown = json::Value::Object();
  shutdown.Set("cmd", "shutdown");
  EXPECT_TRUE(request(std::move(shutdown)).BoolOr("ok", false));
  server.join();
  EXPECT_EQ(serve_status, 0);
}

}  // namespace
}  // namespace memsentry

// ---------------------------------------------------------------------------
// Runner-level end-to-end: the real bench_runner binary, checked against
// standalone `memsentry_cli run` reports.
#if defined(MEMSENTRY_BENCH_RUNNER) && defined(MEMSENTRY_CLI)

namespace memsentry {
namespace {

// The registered-workload subset the runner tests sweep, in the runner's
// merge order: one figure sweep (57 cells — enough to exercise stealing and
// mid-run kills), one case study with a memoizable baseline, one fault sweep.
const std::vector<std::string>& Subset() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "fig5_indirect", "safestack_casestudy", "fault_matrix"};
  return *names;
}

// The --only= value selecting Subset().
std::string SubsetCsv() {
  std::string csv;
  for (const std::string& name : Subset()) {
    csv += (csv.empty() ? "" : ",") + name;
  }
  return csv;
}

struct RunnerRun {
  int exit_code = 0;
  std::string log;
  json::Value merged;
};

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::system(("rm -rf \"" + dir + "\" && mkdir -p \"" + dir + "\"").c_str());
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

RunnerRun RunSuite(const std::string& dir, const std::string& out_name,
                   const std::string& extra_flags) {
  RunnerRun run;
  const std::string out = dir + "/" + out_name;
  const std::string log = out + ".log";
  const std::string command = std::string("\"") + MEMSENTRY_BENCH_RUNNER + "\" --only=" +
                              SubsetCsv() + " --quick --out=\"" + out + "\" --no-gate " +
                              extra_flags + " > \"" + log + "\" 2>&1";
  const int raw = std::system(command.c_str());
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  run.log = ReadFile(log);
  auto merged = json::ParseFile(out);
  EXPECT_TRUE(merged.ok()) << "no merged report at " << out << "\n" << run.log;
  if (merged.ok()) {
    run.merged = std::move(merged).value();
  }
  return run;
}

// Every fidelity/perf metric (info metrics legitimately vary run to run),
// serialized in document order for exact comparison: the metric order is
// part of what the determinism gate compares.
std::string GatedMetrics(const json::Value& merged) {
  std::string out;
  const json::Value* metrics = merged.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return out;
  }
  for (const auto& [name, entry] : metrics->members()) {
    const std::string kind = entry.StringOr("kind", "info");
    if (kind == "info") {
      continue;
    }
    const json::Value* value = entry.Find("value");
    out += name + "=" + (value != nullptr ? value->Dump(0) : "<missing>") + "\n";
  }
  return out;
}

// The reference every engine run is held to: each subset workload run
// standalone through `memsentry_cli run` (RunWorkloadStandalone, its own
// process, no run memo), merged in the runner's order into one document at
// `path`.
void WriteStandaloneReference(const std::string& dir, const std::string& path) {
  json::Value metrics = json::Value::Object();
  for (const std::string& name : Subset()) {
    const std::string report = dir + "/standalone_" + name + ".json";
    const std::string command = std::string("\"") + MEMSENTRY_CLI + "\" run " + name +
                                " --instructions=100000 --json=\"" + report +
                                "\" --bundle-root=\"" + dir + "/bundles\" > \"" + report +
                                ".log\" 2>&1";
    const int raw = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 0) << name << "\n"
                                                         << ReadFile(report + ".log");
    auto parsed = json::ParseFile(report);
    ASSERT_TRUE(parsed.ok()) << report;
    for (const auto& [metric, entry] : parsed->Find("metrics")->members()) {
      metrics.Set(metric, entry);
    }
  }
  json::Value doc = json::Value::Object();
  doc.Set("metrics", std::move(metrics));
  ASSERT_TRUE(json::WriteFileAtomic(path, doc).ok()) << path;
}

// The acceptance property: the inproc engine's merged report is
// bit-identical to the standalone reports at every --jobs value, and the
// runner's own --check-determinism agrees.
TEST(BenchRunnerEngine, InprocMatchesStandaloneAtAnyJobs) {
  const std::string dir = FreshDir("campaign_engine_inproc");
  const std::string reference_path = dir + "/standalone.json";
  ASSERT_NO_FATAL_FAILURE(WriteStandaloneReference(dir, reference_path));
  auto reference = json::ParseFile(reference_path);
  ASSERT_TRUE(reference.ok());
  const std::string reference_metrics = GatedMetrics(*reference);
  ASSERT_FALSE(reference_metrics.empty());

  for (const char* jobs : {"1", "4", "0"}) {  // 0 = hardware_concurrency
    const std::string out = std::string("inproc_j") + jobs + ".json";
    const RunnerRun inproc = RunSuite(dir, out,
                                      std::string("--engine=inproc --jobs=") + jobs +
                                          " --check-determinism=\"" + reference_path + "\"");
    ASSERT_EQ(inproc.exit_code, 0) << inproc.log;
    EXPECT_NE(inproc.log.find("determinism check ok"), std::string::npos) << inproc.log;
    const json::Value* engine = inproc.merged.Find("engine");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->StringOr("engine", ""), "inproc");
    EXPECT_GT(engine->NumberOr("cells_run", 0) + engine->NumberOr("cells_restored", 0), 0);
    EXPECT_EQ(GatedMetrics(inproc.merged), reference_metrics) << "--jobs=" << jobs;
    // Per-cell timing info metrics ride along in the merged doc.
    const json::Value* metrics = inproc.merged.Find("metrics");
    ASSERT_NE(metrics, nullptr);
    bool has_cell_timing = false;
    for (const auto& [name, entry] : metrics->members()) {
      has_cell_timing |= name.rfind("engine/seconds/", 0) == 0;
      (void)entry;
    }
    EXPECT_TRUE(has_cell_timing);
  }
}

// `run` takes only the =-form flags it documents: the space form or a typo
// would otherwise run silently at the default budget.
TEST(MemsentryCliRun, RejectsUnrecognisedArguments) {
  const std::string dir = FreshDir("cli_run_args");
  for (const char* args : {"--instructions 50000", "--job=2", "--quik"}) {
    const std::string log = dir + "/run.log";
    const std::string command = std::string("\"") + MEMSENTRY_CLI + "\" run fig4_callret " +
                                args + " > \"" + log + "\" 2>&1";
    const int raw = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 2) << args;
    EXPECT_NE(ReadFile(log).find("unrecognised argument"), std::string::npos) << args;
  }
}

// kill -9 mid-suite, then --resume: the journal restores finished cells and
// the re-run converges to the clean run's exact report. Robust to the
// inherent race: whether the kill lands before the journal header, mid-run,
// or after completion, the resumed report must match the reference.
TEST(BenchRunnerEngine, JournalResumeAfterKillNine) {
  const std::string dir = FreshDir("campaign_engine_resume");
  const RunnerRun reference = RunSuite(dir, "clean.json", "--engine=inproc --jobs=2");
  ASSERT_EQ(reference.exit_code, 0) << reference.log;
  const std::string reference_metrics = GatedMetrics(reference.merged);
  ASSERT_FALSE(reference_metrics.empty());

  const std::string out = dir + "/resumed.json";
  const std::string journal = dir + "/journal.jsonl";
  const std::vector<std::string> arg_strings = {
      MEMSENTRY_BENCH_RUNNER,
      "--only=" + SubsetCsv(),
      "--quick",
      "--engine=inproc",
      "--jobs=2",
      "--out=" + out,
      "--journal=" + journal,
      "--no-gate",
  };
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv;
    for (const std::string& arg : arg_strings) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::usleep(250'000);  // let the engine get mid-suite
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);

  const RunnerRun resumed =
      RunSuite(dir, "resumed.json", "--engine=inproc --jobs=2 --journal=\"" + journal +
                                        "\" --resume");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.log;
  EXPECT_EQ(GatedMetrics(resumed.merged), reference_metrics);
  // The journal survived the kill and identifies the inproc engine.
  std::ifstream in(journal);
  std::string header_line;
  ASSERT_TRUE(std::getline(in, header_line));
  auto header = json::Parse(header_line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().StringOr("engine", ""), "inproc");
  // Resuming under a different configuration must refuse to merge, loudly.
  const std::string mismatched = std::string("\"") + MEMSENTRY_BENCH_RUNNER + "\" --only=" +
                                 SubsetCsv() + " --quick --engine=inproc --jobs=2 --out=\"" +
                                 out + "\" --journal=\"" + journal +
                                 "\" --no-gate --resume --instructions=123 > /dev/null 2>&1";
  const int raw = std::system(mismatched.c_str());
  EXPECT_TRUE(WIFEXITED(raw) && WEXITSTATUS(raw) == 2);
}

}  // namespace
}  // namespace memsentry

#endif  // MEMSENTRY_BENCH_RUNNER && MEMSENTRY_CLI
#endif  // !_WIN32
