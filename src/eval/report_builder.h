// Metric accumulation for benchmark reports, shared between standalone runs
// (`memsentry_cli run`, through bench::Reporter) and the in-process campaign
// engine (src/eval/campaign_engine.h). A ReportBuilder collects named scalar
// metrics — fidelity, perf, info — in insertion order; the order
// and the bit-exact values are what the suite's determinism gate compares,
// so every path that emits a given workload's metrics must route through the
// same builder calls in the same sequence.
#ifndef MEMSENTRY_SRC_EVAL_REPORT_BUILDER_H_
#define MEMSENTRY_SRC_EVAL_REPORT_BUILDER_H_

#include <cmath>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/eval/figures.h"
#include "src/eval/regression_gate.h"
#include "src/workloads/spec_profiles.h"

namespace memsentry::eval {

// Default per-metric relative tolerances baked into every report (and thus
// into snapshots under bench/baselines/). Geomeans are tight; individual
// benchmarks wobble more across instruction budgets and compilers; cycle
// totals are perf-kind and warn-only until a second baseline exists.
inline constexpr double kGeomeanTol = 0.05;
inline constexpr double kPerBenchmarkTol = 0.15;
inline constexpr double kCyclesTol = 0.15;
inline constexpr double kMicroLatencyTol = 0.10;

// Collects one binary's (or one engine job's) results as named metrics.
// Metric names are slash-paths, unique across the whole suite because each
// workload prefixes its own figure/table (e.g. "fig3/geomean/MPX-w").
class ReportBuilder {
 public:
  // One scalar metric. paper = NAN when the paper gives no reference value;
  // note is free-form context carried into the report.
  void Add(const std::string& name, double value, MetricKind kind, double tol,
           double paper = NAN, const std::string& note = "") {
    json::Value entry = json::Value::Object();
    entry.Set("value", value);
    entry.Set("kind", MetricKindName(kind));
    entry.Set("tol", tol);
    if (!std::isnan(paper)) {
      entry.Set("paper", paper);
    }
    if (!note.empty()) {
      entry.Set("note", note);
    }
    metrics_.Set(name, std::move(entry));
  }

  void AddFidelity(const std::string& name, double value, double tol, double paper = NAN,
                   const std::string& note = "") {
    Add(name, value, MetricKind::kFidelity, tol, paper, note);
  }

  void AddPerf(const std::string& name, double value, double tol = kCyclesTol) {
    Add(name, value, MetricKind::kPerf, tol);
  }

  void AddInfo(const std::string& name, double value) {
    Add(name, value, MetricKind::kInfo, 0.0);
  }

  // A whole figure: per-config geomeans (fidelity, with the paper's
  // reference), per-benchmark normalized runtimes (fidelity, looser), and
  // suite-total protected cycles (perf).
  void AddFigure(const std::string& prefix, const std::vector<FigureSeries>& series,
                 const std::vector<double>& paper_geomeans) {
    const auto profiles = workloads::SpecCpu2006();
    for (size_t i = 0; i < series.size(); ++i) {
      const auto& s = series[i];
      const double paper = i < paper_geomeans.size() ? paper_geomeans[i] : NAN;
      AddFidelity(prefix + "/geomean/" + s.config, s.geomean, kGeomeanTol, paper);
      for (size_t b = 0; b < s.normalized.size() && b < profiles.size(); ++b) {
        AddFidelity(prefix + "/norm/" + s.config + "/" + profiles[b].name, s.normalized[b],
                    kPerBenchmarkTol);
      }
      AddPerf(prefix + "/cycles/" + s.config, s.total_prot_cycles);
    }
  }

  const json::Value& metrics() const { return metrics_; }
  json::Value TakeMetrics() { return std::move(metrics_); }

 private:
  json::Value metrics_ = json::Value::Object();
};

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_REPORT_BUILDER_H_
