// Tests for the machine-readable benchmark pipeline: the JSON
// writer/parser in src/base/json.h and the regression-gate comparator in
// src/eval/regression_gate.h, including end-to-end checks that
// tools/bench_runner exits nonzero when a fidelity metric is perturbed
// beyond tolerance against the committed seed baseline, and that its merged
// report carries only engine-produced metrics.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/eval/regression_gate.h"

namespace memsentry {
namespace {

using eval::CompareAgainstBaseline;
using eval::GateOptions;
using eval::GateReport;
using eval::MetricKind;
using eval::Severity;

// ---------------------------------------------------------------- writer --

TEST(JsonWriter, EscapesSpecialCharacters) {
  EXPECT_EQ(json::Escape("plain"), "plain");
  EXPECT_EQ(json::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::Escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json::Escape("tab\there"), "tab\\there");
  EXPECT_EQ(json::Escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(json::Escape(std::string("nul\x01" "byte")), "nul\\u0001byte");
}

TEST(JsonWriter, DumpsNestedObjectsCompact) {
  json::Value doc = json::Value::Object();
  doc.Set("name", "fig3/geomean/MPX-w");
  doc.Set("ok", true);
  doc.Set("nothing", json::Value());
  json::Value inner = json::Value::Object();
  inner.Set("value", 1.028);
  inner.Set("tags", json::Value::Array());
  inner.Find("tags")->Append("a");
  inner.Find("tags")->Append(2);
  doc.Set("metric", std::move(inner));
  EXPECT_EQ(doc.Dump(),
            "{\"name\":\"fig3/geomean/MPX-w\",\"ok\":true,\"nothing\":null,"
            "\"metric\":{\"value\":1.028,\"tags\":[\"a\",2]}}");
}

TEST(JsonWriter, PrettyPrintIndents) {
  json::Value doc = json::Value::Object();
  doc.Set("a", 1);
  const std::string pretty = doc.Dump(2);
  EXPECT_EQ(pretty, "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, PreservesInsertionOrder) {
  json::Value doc = json::Value::Object();
  doc.Set("zeta", 1);
  doc.Set("alpha", 2);
  doc.Set("mid", 3);
  EXPECT_EQ(doc.Dump(), "{\"zeta\":1,\"alpha\":2,\"mid\":3}");
}

TEST(JsonWriter, NumbersRoundTripThroughText) {
  json::Value doc = json::Value::Object();
  doc.Set("x", 1.0 / 3.0);
  doc.Set("big", 1.25e300);
  auto parsed = json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->NumberOr("x", 0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("big", 0), 1.25e300);
}

// ---------------------------------------------------------------- parser --

TEST(JsonParser, ParsesScalarsAndContainers) {
  auto v = json::Parse(R"({"s": "hi", "n": -2.5e2, "t": true, "f": false,
                           "nil": null, "arr": [1, [2, 3], {}]})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->StringOr("s", ""), "hi");
  EXPECT_DOUBLE_EQ(v->NumberOr("n", 0), -250.0);
  EXPECT_TRUE(v->BoolOr("t", false));
  EXPECT_FALSE(v->BoolOr("f", true));
  EXPECT_TRUE(v->Find("nil")->is_null());
  const json::Value* arr = v->Find("arr");
  ASSERT_TRUE(arr != nullptr && arr->is_array());
  EXPECT_EQ(arr->items().size(), 3u);
  EXPECT_EQ(arr->items()[1].items()[1].number_value(), 3.0);
}

TEST(JsonParser, DecodesEscapes) {
  auto v = json::Parse(R"(["a\"b", "c\\d", "tab\t", "\u0041", "\u00e9", "\ud83d\ude00"])");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->items()[0].string_value(), "a\"b");
  EXPECT_EQ(v->items()[1].string_value(), "c\\d");
  EXPECT_EQ(v->items()[2].string_value(), "tab\t");
  EXPECT_EQ(v->items()[3].string_value(), "A");
  EXPECT_EQ(v->items()[4].string_value(), "\xc3\xa9");          // é
  EXPECT_EQ(v->items()[5].string_value(), "\xf0\x9f\x98\x80");  // 😀 via surrogate pair
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_FALSE(json::Parse("").ok());
  EXPECT_FALSE(json::Parse("{\"a\": 1,}").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("[1, 2").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("{\"bad\": \"\\q\"}").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("nul").ok());
}

TEST(JsonParser, RoundTripsAReport) {
  json::Value metrics = json::Value::Object();
  json::Value entry = json::Value::Object();
  entry.Set("value", 1.147);
  entry.Set("kind", "fidelity");
  entry.Set("tol", 0.05);
  entry.Set("paper", 1.147);
  metrics.Set("fig3/geomean/MPX-rw", std::move(entry));
  json::Value doc = json::Value::Object();
  doc.Set("schema", 1);
  doc.Set("metrics", std::move(metrics));
  auto reparsed = json::Parse(doc.Dump(2));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Dump(), doc.Dump());
}

// ------------------------------------------------------------ comparator --

json::Value MakeMetric(double value, const char* kind, double tol) {
  json::Value m = json::Value::Object();
  m.Set("value", value);
  m.Set("kind", kind);
  m.Set("tol", tol);
  return m;
}

json::Value MakeDoc(std::vector<std::pair<std::string, json::Value>> metrics) {
  json::Value doc = json::Value::Object();
  doc.Set("schema", 1);
  json::Value m = json::Value::Object();
  for (auto& [name, metric] : metrics) {
    m.Set(name, std::move(metric));
  }
  doc.Set("metrics", std::move(m));
  return doc;
}

TEST(RegressionGate, IdenticalDocumentsPass) {
  json::Value doc = MakeDoc({{"fig4/geomean/MPK", MakeMetric(2.31, "fidelity", 0.05)},
                             {"fig4/cycles/MPK", MakeMetric(9e6, "perf", 0.15)}});
  const GateReport report = CompareAgainstBaseline(doc, doc);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 2);
  EXPECT_EQ(report.failures, 0);
  EXPECT_EQ(report.warnings, 0);
}

TEST(RegressionGate, MissingFidelityMetricFails) {
  json::Value baseline = MakeDoc({{"fig4/geomean/MPK", MakeMetric(2.31, "fidelity", 0.05)}});
  json::Value results = MakeDoc({});
  const GateReport report = CompareAgainstBaseline(results, baseline);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing, 1);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].severity, Severity::kFailure);
}

TEST(RegressionGate, MissingPerfMetricOnlyWarns) {
  json::Value baseline = MakeDoc({{"fig4/cycles/MPK", MakeMetric(9e6, "perf", 0.15)}});
  json::Value results = MakeDoc({});
  const GateReport report = CompareAgainstBaseline(results, baseline);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.missing, 1);
  EXPECT_EQ(report.warnings, 1);
}

TEST(RegressionGate, NewMetricIsNotedNotGated) {
  json::Value baseline = MakeDoc({});
  json::Value results = MakeDoc({{"fig7/geomean/new", MakeMetric(1.0, "fidelity", 0.05)}});
  const GateReport report = CompareAgainstBaseline(results, baseline);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.new_metrics, 1);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].severity, Severity::kNote);
}

TEST(RegressionGate, ToleranceBoundary) {
  // 5% tolerance on a baseline of 2.0: 2.1 sits exactly on the boundary
  // (passes), 2.100001 is beyond (fails).
  json::Value baseline = MakeDoc({{"m", MakeMetric(2.0, "fidelity", 0.05)}});
  json::Value at = MakeDoc({{"m", MakeMetric(2.1, "fidelity", 0.05)}});
  EXPECT_TRUE(CompareAgainstBaseline(at, baseline).ok());
  json::Value beyond = MakeDoc({{"m", MakeMetric(2.100001, "fidelity", 0.05)}});
  const GateReport report = CompareAgainstBaseline(beyond, baseline);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failures, 1);
  // Deviation below the boundary passes symmetrically.
  json::Value below = MakeDoc({{"m", MakeMetric(1.9, "fidelity", 0.05)}});
  EXPECT_TRUE(CompareAgainstBaseline(below, baseline).ok());
}

TEST(RegressionGate, BaselineToleranceIsAuthoritative) {
  // The baseline's per-metric tol (20%) overrides both the results' claimed
  // tol and the kind default.
  json::Value baseline = MakeDoc({{"m", MakeMetric(1.0, "fidelity", 0.20)}});
  json::Value results = MakeDoc({{"m", MakeMetric(1.15, "fidelity", 0.01)}});
  EXPECT_TRUE(CompareAgainstBaseline(results, baseline).ok());
}

TEST(RegressionGate, PerfWarnsUntilGated) {
  json::Value baseline = MakeDoc({{"fig4/cycles/MPK", MakeMetric(1e6, "perf", 0.10)}});
  json::Value results = MakeDoc({{"fig4/cycles/MPK", MakeMetric(2e6, "perf", 0.10)}});
  GateOptions options;
  options.gate_perf = false;  // only one baseline snapshot exists
  const GateReport warned = CompareAgainstBaseline(results, baseline, options);
  EXPECT_TRUE(warned.ok());
  EXPECT_EQ(warned.warnings, 1);
  options.gate_perf = true;  // trajectory established
  const GateReport gated = CompareAgainstBaseline(results, baseline, options);
  EXPECT_FALSE(gated.ok());
  EXPECT_EQ(gated.failures, 1);
}

TEST(RegressionGate, InfoMetricsNeverCompared) {
  json::Value baseline = MakeDoc({{"wall", MakeMetric(1.0, "info", 0.0)}});
  json::Value results = MakeDoc({{"wall", MakeMetric(100.0, "info", 0.0)}});
  const GateReport report = CompareAgainstBaseline(results, baseline);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 0);
  EXPECT_TRUE(report.issues.empty());
}

TEST(RegressionGate, DocumentsWithoutMetricsFail) {
  json::Value empty = json::Value::Object();
  json::Value ok = MakeDoc({});
  EXPECT_FALSE(CompareAgainstBaseline(empty, ok).ok());
  EXPECT_FALSE(CompareAgainstBaseline(ok, empty).ok());
}

// ------------------------------------------- against the committed seed --

#ifdef MEMSENTRY_SOURCE_DIR
constexpr const char* kSeedBaseline = MEMSENTRY_SOURCE_DIR "/bench/baselines/seed.json";

// Picks the first fidelity metric in the document and perturbs it well
// beyond its tolerance.
std::string PerturbFirstFidelityMetric(json::Value& doc) {
  json::Value* metrics = doc.Find("metrics");
  EXPECT_NE(metrics, nullptr);
  for (auto& [name, metric] : metrics->members()) {
    if (metric.StringOr("kind", "") != "fidelity") {
      continue;
    }
    const double value = metric.NumberOr("value", 1.0);
    const double tol = metric.NumberOr("tol", 0.05);
    metric.Set("value", value * (1.0 + 4.0 * tol) + 1.0);
    return name;
  }
  return "";
}

TEST(RegressionGate, SeedBaselineSelfCompares) {
  auto baseline = json::ParseFile(kSeedBaseline);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const GateReport report = CompareAgainstBaseline(*baseline, *baseline);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.compared, 100);  // the suite is big: whole figures, tables
}

TEST(RegressionGate, PerturbedFidelityMetricFailsAgainstSeed) {
  auto baseline = json::ParseFile(kSeedBaseline);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  json::Value perturbed = *baseline;
  const std::string name = PerturbFirstFidelityMetric(perturbed);
  ASSERT_FALSE(name.empty());
  const GateReport report = CompareAgainstBaseline(perturbed, *baseline);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const auto& issue : report.issues) {
    found = found || (issue.metric == name && issue.severity == Severity::kFailure);
  }
  EXPECT_TRUE(found) << "no failure recorded for perturbed metric " << name;
}
#endif  // MEMSENTRY_SOURCE_DIR

// ------------------------------------------------- bench_runner process --

#if defined(MEMSENTRY_BENCH_RUNNER) && defined(MEMSENTRY_SOURCE_DIR)
// End-to-end: bench_runner --compare must exit 0 on the pristine seed
// snapshot and nonzero once a fidelity metric is perturbed beyond tolerance.
TEST(BenchRunner, ExitsNonzeroOnPerturbedFidelityMetric) {
  auto baseline = json::ParseFile(kSeedBaseline);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + std::string(info->name());
  ASSERT_EQ(std::system(("mkdir -p \"" + dir + "\"").c_str()), 0);

  const std::string pristine = dir + "/pristine.json";
  ASSERT_TRUE(json::WriteFile(pristine, *baseline).ok());
  json::Value bad = *baseline;
  ASSERT_FALSE(PerturbFirstFidelityMetric(bad).empty());
  const std::string perturbed = dir + "/perturbed.json";
  ASSERT_TRUE(json::WriteFile(perturbed, bad).ok());

  const std::string runner = MEMSENTRY_BENCH_RUNNER;
  const std::string base_args =
      "\" --baseline=\"" + std::string(kSeedBaseline) + "\" > /dev/null 2>&1";
  EXPECT_EQ(std::system(("\"" + runner + "\" --compare=\"" + pristine + base_args).c_str()),
            0);
  EXPECT_NE(std::system(("\"" + runner + "\" --compare=\"" + perturbed + base_args).c_str()),
            0);
}

// The runner is engine-only: every metric comes from a workload's report or
// the engine, so no metric is exempt from the gate as host-dependent, none
// times a queue position, and the header has no fork-path fields. The
// retired fork-path flags and entry are usage errors.
TEST(BenchRunner, MergedReportHasNoHostMetrics) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + std::string(info->name());
  ASSERT_EQ(std::system(("mkdir -p \"" + dir + "\"").c_str()), 0);
  const std::string runner = MEMSENTRY_BENCH_RUNNER;
  const std::string out = dir + "/results.json";
  const auto run = [&](const std::string& args) {
    const int status = std::system(("\"" + runner + "\" " + args + " --out=\"" + out +
                                    "\" > \"" + dir + "/runner.log\" 2>&1")
                                       .c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };

  ASSERT_EQ(run("--quick --jobs=2 --only=table4_micro,fig3_address --no-gate"), 0);
  auto merged = json::ParseFile(out);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const json::Value* metrics = merged->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("fig3/geomean/MPX-w"), nullptr);
  for (const auto& [name, entry] : metrics->members()) {
    EXPECT_EQ(entry.Find("host"), nullptr) << name;
    EXPECT_EQ(name.find("sim_instr_per_second"), std::string::npos) << name;
    EXPECT_EQ(name.find("runner/seconds/"), std::string::npos) << name;
  }
  const json::Value* binaries = merged->Find("binaries");
  ASSERT_NE(binaries, nullptr);
  const json::Value* fig3 = binaries->Find("fig3_address");
  ASSERT_NE(fig3, nullptr);
  EXPECT_EQ(fig3->Find("timed_out"), nullptr);

  EXPECT_EQ(run("--quick --only=bench_substrate --no-gate"), 2);
  EXPECT_EQ(run("--quick --timeout=5 --no-gate"), 2);
  EXPECT_EQ(run("--quick --bench-dir=x --no-gate"), 2);
}
#endif  // MEMSENTRY_BENCH_RUNNER

}  // namespace
}  // namespace memsentry
