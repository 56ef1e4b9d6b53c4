// End-to-end robustness tests for tools/bench_runner's one forked entry,
// bench_substrate: a hanging binary is timed out (SIGTERM, then SIGKILL) and
// classified distinctly from a crash, a SIGSEGV binary is retried once, a
// binary that dies after writing its report has the report salvaged, and
// the engine's workloads survive into the merged document regardless of the
// carnage beside them. Each scenario points --bench-dir at its own
// directory holding a stand-in bench_substrate shell script, so the
// scenarios are exact and fast.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/base/json.h"

#if defined(MEMSENTRY_BENCH_RUNNER) && !defined(_WIN32)

#include <csignal>
#include <sys/stat.h>
#include <sys/wait.h>

namespace memsentry {
namespace {

void WriteScript(const std::string& path, const std::string& body) {
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << "#!/bin/sh\n" << body;
  }
  ASSERT_EQ(::chmod(path.c_str(), 0755), 0);
}

// A stand-in benchmark that writes a one-metric report to its --json= path.
std::string ReportingScript(const std::string& metric) {
  return "out=\"\"\n"
         "for a in \"$@\"; do case \"$a\" in --json=*) out=\"${a#--json=}\";; esac; done\n"
         "printf '{\"schema\":1,\"wall_seconds\":0.01,\"metrics\":{\"" +
         metric + "\":{\"value\":1,\"kind\":\"fidelity\",\"tol\":0}}}' > \"$out\"\n";
}

struct RunnerRun {
  int exit_code = 0;
  json::Value merged;
};

// Runs the suite with `dir` as the bench directory: bench_substrate is the
// stand-in script there, plus any registered workloads in `also`.
RunnerRun RunSuite(const std::string& dir, const std::string& extra_flags,
                   const std::string& also = "") {
  RunnerRun run;
  const std::string out = dir + "/BENCH_RESULTS.json";
  const std::string command = std::string("\"") + MEMSENTRY_BENCH_RUNNER +
                              "\" --quick --bench-dir=\"" + dir + "\" --only=bench_substrate" +
                              also + " --out=\"" + out + "\" --no-gate " + extra_flags + " > \"" +
                              dir + "/runner.log\" 2>&1";
  const int raw = std::system(command.c_str());
  run.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  auto merged = json::ParseFile(out);
  EXPECT_TRUE(merged.ok()) << "runner must write a merged report even on failures";
  if (merged.ok()) {
    run.merged = std::move(merged).value();
  }
  return run;
}

// The merged header entry for the forked binary.
const json::Value* Substrate(const RunnerRun& run) {
  const json::Value* binaries = run.merged.Find("binaries");
  return binaries == nullptr ? nullptr : binaries->Find("bench_substrate");
}

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::system(("rm -rf \"" + dir + "\" && mkdir -p \"" + dir + "\"").c_str());
  return dir;
}

TEST(BenchRunnerRobustness, HangIsTimedOutAndNeverRetried) {
  const std::string dir = FreshDir("runner_hang");
  WriteScript(dir + "/bench_substrate", "exec sleep 600\n");
  const RunnerRun run = RunSuite(dir, "--timeout=2");
  EXPECT_NE(run.exit_code, 0);  // the suite had a failure and says so
  const json::Value* hung = Substrate(run);
  ASSERT_NE(hung, nullptr);
  EXPECT_TRUE(hung->BoolOr("timed_out", false));
  EXPECT_EQ(hung->NumberOr("retries", -1), 0);  // timeouts are never retried
}

// A crashing forked binary is retried once, then reported — and the
// engine's workloads running beside it still land in the merged document.
TEST(BenchRunnerRobustness, CrashIsRetriedOnceAndEngineMetricsSurvive) {
  const std::string dir = FreshDir("runner_crash");
  WriteScript(dir + "/bench_substrate", "kill -SEGV $$\n");
  const RunnerRun run = RunSuite(dir, "--timeout=30", ",table4_micro");
  EXPECT_NE(run.exit_code, 0);
  const json::Value* crashed = Substrate(run);
  ASSERT_NE(crashed, nullptr);
  EXPECT_FALSE(crashed->BoolOr("timed_out", true));
  EXPECT_EQ(crashed->NumberOr("signal", 0), SIGSEGV);
  EXPECT_EQ(crashed->NumberOr("retries", 0), 1);  // one retry, then give up
  EXPECT_FALSE(crashed->BoolOr("salvaged", true));

  const json::Value* healthy = run.merged.Find("binaries")->Find("table4_micro");
  ASSERT_NE(healthy, nullptr);
  EXPECT_EQ(healthy->NumberOr("exit", -1), 0);
  bool has_table4 = false;
  for (const auto& [name, entry] : run.merged.Find("metrics")->members()) {
    has_table4 |= name.rfind("table4/", 0) == 0;
    (void)entry;
  }
  EXPECT_TRUE(has_table4);
}

// A binary that dies after writing its report contributes every metric it
// produced.
TEST(BenchRunnerRobustness, DeadBinaryReportIsSalvaged) {
  const std::string dir = FreshDir("runner_salvage");
  WriteScript(dir + "/bench_substrate", ReportingScript("fake/salvaged") + "kill -SEGV $$\n");
  const RunnerRun run = RunSuite(dir, "--timeout=30");
  EXPECT_NE(run.exit_code, 0);
  const json::Value* salvaged = Substrate(run);
  ASSERT_NE(salvaged, nullptr);
  EXPECT_TRUE(salvaged->BoolOr("salvaged", false));
  EXPECT_NE(run.merged.Find("metrics")->Find("fake/salvaged"), nullptr);
}

// Atomic report writes from the runner's perspective: a binary that dies
// leaving only a half-written temp file (the write-to-temp half of
// temp+rename) must not have that file salvaged as a report.
TEST(BenchRunnerRobustness, HalfWrittenTempFileIsNeverSalvaged) {
  const std::string dir = FreshDir("runner_tempfile");
  WriteScript(dir + "/bench_substrate",
              "out=\"\"\n"
              "for a in \"$@\"; do case \"$a\" in --json=*) out=\"${a#--json=}\";; esac; done\n"
              "printf '{\"schema\":1,\"wall_seconds\":0.01,\"metrics\":{\"fake/teased\":'"
              " > \"$out.tmp\"\n"  // a torn prefix at the temp path, never renamed
              "kill -SEGV $$\n");

  const RunnerRun run = RunSuite(dir, "--timeout=30");
  EXPECT_NE(run.exit_code, 0);
  const json::Value* info = Substrate(run);
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->BoolOr("salvaged", true));
  EXPECT_EQ(run.merged.Find("metrics")->Find("fake/teased"), nullptr);
}

// Crash-retry reports write to stamped paths (<name>.retry1.json) so a
// retry can never overwrite the first attempt's output, and the merged
// header records every attempt's path.
TEST(BenchRunnerRobustness, RetriesWriteStampedReportPaths) {
  const std::string dir = FreshDir("runner_retry");
  const std::string marker = dir + "/already_crashed";
  WriteScript(dir + "/bench_substrate",
              "if [ ! -f \"" + marker + "\" ]; then touch \"" + marker +
                  "\"; kill -SEGV $$; fi\n" + ReportingScript("fake/second_try"));

  const RunnerRun run = RunSuite(dir, "--timeout=30");
  EXPECT_EQ(run.exit_code, 0);
  const json::Value* info = Substrate(run);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->NumberOr("retries", 0), 1);
  const json::Value* reports = info->Find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->size(), 2u);
  const std::string retry_path = reports->items()[1].string_value();
  EXPECT_NE(retry_path.find("bench_substrate.retry1.json"), std::string::npos);
  EXPECT_TRUE(json::ParseFile(retry_path).ok()) << retry_path;
  EXPECT_NE(run.merged.Find("metrics")->Find("fake/second_try"), nullptr);
}

TEST(BenchRunnerRobustness, CleanSuiteReportsCleanHeader) {
  const std::string dir = FreshDir("runner_clean");
  WriteScript(dir + "/bench_substrate", ReportingScript("fake/clean"));
  const RunnerRun run = RunSuite(dir, "--timeout=30");
  EXPECT_EQ(run.exit_code, 0);
  const json::Value* info = Substrate(run);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->NumberOr("exit", -1), 0);
  EXPECT_FALSE(info->BoolOr("timed_out", true));
  EXPECT_EQ(info->NumberOr("retries", -1), 0);
  EXPECT_EQ(run.merged.Find("metrics")->Find("fake/clean")->NumberOr("value", 0), 1);
}

}  // namespace
}  // namespace memsentry

#endif  // MEMSENTRY_BENCH_RUNNER && !_WIN32
