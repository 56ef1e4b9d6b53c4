#include "src/eval/regression_gate.h"

#include <cmath>
#include <cstdio>

namespace memsentry::eval {

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kFidelity:
      return "fidelity";
    case MetricKind::kPerf:
      return "perf";
    case MetricKind::kInfo:
      return "info";
  }
  return "?";
}

MetricKind ParseMetricKind(const std::string& name) {
  if (name == "fidelity") {
    return MetricKind::kFidelity;
  }
  if (name == "perf") {
    return MetricKind::kPerf;
  }
  return MetricKind::kInfo;
}

double RelativeDelta(double measured, double reference) {
  const double denom = std::max(std::fabs(reference), 1e-12);
  return std::fabs(measured - reference) / denom;
}

std::string GateReport::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%d compared, %d failures, %d warnings, %d new, %d missing", compared,
                failures, warnings, new_metrics, missing);
  return buf;
}

namespace {

const json::Value* Metrics(const json::Value& doc) {
  const json::Value* m = doc.Find("metrics");
  return (m != nullptr && m->is_object()) ? m : nullptr;
}

std::string FormatDelta(double measured, double reference, double tol) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.6g vs baseline %.6g (delta %.2f%%, tol %.2f%%)",
                measured, reference, 100.0 * RelativeDelta(measured, reference),
                100.0 * tol);
  return buf;
}

}  // namespace

GateReport CompareAgainstBaseline(const json::Value& results, const json::Value& baseline,
                                  const GateOptions& options) {
  GateReport report;
  const json::Value* base_metrics = Metrics(baseline);
  const json::Value* run_metrics = Metrics(results);
  if (base_metrics == nullptr) {
    report.issues.push_back(
        {Severity::kFailure, "<baseline>", "baseline document has no \"metrics\" object"});
    ++report.failures;
    return report;
  }
  if (run_metrics == nullptr) {
    report.issues.push_back(
        {Severity::kFailure, "<results>", "results document has no \"metrics\" object"});
    ++report.failures;
    return report;
  }

  for (const auto& [name, base_entry] : base_metrics->members()) {
    const MetricKind kind = ParseMetricKind(base_entry.StringOr("kind", "info"));
    if (kind == MetricKind::kInfo) {
      continue;
    }
    const json::Value* run_entry = run_metrics->Find(name);
    if (run_entry == nullptr) {
      // A fidelity metric that disappeared means a figure lost coverage —
      // that is exactly the silent drift the gate exists to catch.
      ++report.missing;
      if (kind == MetricKind::kFidelity) {
        report.issues.push_back(
            {Severity::kFailure, name, "fidelity metric missing from results"});
        ++report.failures;
      } else {
        report.issues.push_back({Severity::kWarning, name, "perf metric missing from results"});
        ++report.warnings;
      }
      continue;
    }
    const double reference = base_entry.NumberOr("value", 0.0);
    const double measured = run_entry->NumberOr("value", 0.0);
    const double default_tol = kind == MetricKind::kFidelity ? options.fidelity_default_tol
                                                             : options.perf_default_tol;
    const double tol = base_entry.NumberOr("tol", default_tol);
    ++report.compared;
    // A value sitting exactly on the tolerance boundary passes; the 1e-9
    // slack keeps last-ulp rounding in the relative delta from flaking it.
    if (RelativeDelta(measured, reference) <= tol + 1e-9) {
      continue;
    }
    const bool gated = kind == MetricKind::kFidelity || options.gate_perf;
    report.issues.push_back({gated ? Severity::kFailure : Severity::kWarning, name,
                             FormatDelta(measured, reference, tol)});
    if (gated) {
      ++report.failures;
    } else {
      ++report.warnings;
    }
  }

  for (const auto& [name, run_entry] : run_metrics->members()) {
    if (ParseMetricKind(run_entry.StringOr("kind", "info")) == MetricKind::kInfo) {
      continue;
    }
    if (base_metrics->Find(name) == nullptr) {
      ++report.new_metrics;
      report.issues.push_back(
          {Severity::kNote, name, "new metric (not in baseline; re-snapshot to track it)"});
    }
  }
  return report;
}

}  // namespace memsentry::eval
