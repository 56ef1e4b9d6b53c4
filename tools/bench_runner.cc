// bench_runner — executes the whole benchmark suite, merges every workload's
// metric stream into one BENCH_RESULTS.json, and gates the result against a
// committed baseline snapshot (bench/baselines/). Exits nonzero when a
// workload fails or a fidelity metric drifts beyond its tolerance, so CI can
// consume it directly.
//
//   bench_runner                      full suite (400k-instruction workloads)
//   bench_runner --quick              CI mode: 100k instructions
//   bench_runner --only=fig3_address,table4_micro
//   bench_runner --skip=attack_campaigns
//   bench_runner --out=BENCH_RESULTS.json
//   bench_runner --baseline=PATH      (default: bench/baselines/seed[-quick].json)
//   bench_runner --compare=RESULTS    gate an existing merged report, run nothing
//   bench_runner --write-baseline=P   also snapshot the merged report to P
//   bench_runner --no-gate            produce BENCH_RESULTS.json, skip comparison
//   bench_runner --check-determinism=OTHER.json
//                                     require every fidelity/perf metric to be
//                                     byte-identical to OTHER (info metrics
//                                     such as wall-clock are exempt)
//   bench_runner --fastpath=on|off|check
//                                     force the simulator fast paths (also
//                                     exported as MEMSENTRY_FASTPATH); modeled
//                                     results are bit-identical across modes,
//                                     "check" validates them in lockstep
//   bench_runner --journal=PATH       suite journal (default: BENCH_JOURNAL.jsonl
//                                     next to --out): a configuration header,
//                                     then one event per finished cell
//   bench_runner --resume             restore every journaled cell of a killed
//                                     run with the same configuration and run
//                                     the rest; the merged report is identical
//                                     to an uninterrupted run's
//
// Engines. --engine=inproc (the default) runs every registered suite workload
// (src/suite/workloads.h) inside this process through one warm
// eval::CampaignEngine of --jobs=N workers (default hardware_concurrency):
// cells on a work-stealing pool sharing one run memo.
// --engine=shard hands the same cells to an eval::ShardCoordinator driving
// --workers=N `memsentry_cli serve` subprocesses under --lease=SECONDS
// leases, re-dispatching on worker death/hang/garbage, quarantining repeat
// offenders and degrading to in-process execution if the whole fleet dies;
// --chaos=kill,hang,garble:seed=S arms the workers' fault harness and
// --worker-cli=PATH overrides the sibling memsentry_cli. Fidelity/perf
// metrics are bit-identical across engines, worker counts and chaos
// schedules. Host speed is not a suite metric: bench/bench_substrate is a
// plain google-benchmark binary, and perfbench/ measures simulation speed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/fastpath.h"
#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/coordinator.h"
#include "src/eval/regression_gate.h"
#include "src/eval/run_memo.h"
#include "src/suite/workloads.h"

#ifndef MEMSENTRY_SOURCE_DIR
#define MEMSENTRY_SOURCE_DIR "."
#endif

namespace memsentry {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kFullInstructions = 400'000;
constexpr uint64_t kQuickInstructions = 100'000;

struct SuiteEntry {
  const char* name;
  // Workload flag applied only in --quick mode, as `memsentry_cli run`
  // would receive it on its argv.
  const char* quick_extra = "";
};

// The suite, in merge order: every registered workload
// (src/suite/workloads.h), each run by the engine.
const SuiteEntry kSuite[] = {
    {"table1_defenses"},
    {"table2_applicability"},
    {"table3_limits"},
    {"table4_micro"},
    {"fig3_address"},
    {"fig4_callret"},
    {"fig5_indirect"},
    {"fig6_syscall"},
    {"mprotect_baseline"},
    {"crypt_size_sweep"},
    {"safestack_casestudy"},
    {"attack_matrix"},
    {"attack_campaigns", "--campaigns=160"},
    {"fault_matrix"},
    {"ablations"},
    {"server_workload", "--quick"},
    {"microarch_stats"},
};

struct Options {
  bool quick = false;
  bool gate = true;
  bool resume = false;
  uint64_t instructions = 0;  // 0 = mode default
  int jobs = 0;               // 0 = hardware_concurrency; 1 = fully serial
  std::string out = "BENCH_RESULTS.json";
  std::string baseline;
  std::string baselines_dir;
  std::string compare_existing;
  std::string write_baseline;
  std::string check_determinism;
  std::string engine = "inproc";  // inproc | shard
  std::string fastpath;           // empty = inherit the environment
  std::string journal;            // empty = BENCH_JOURNAL.jsonl next to --out
  int workers = 3;                // --engine=shard: serve subprocess count
  double lease_seconds = 20;      // --engine=shard: per-cell reply deadline
  std::string chaos;              // --engine=shard: worker chaos spec ("" = off)
  std::string worker_cli;         // --engine=shard: memsentry_cli path ("" = sibling)
  std::vector<std::string> only;
  std::vector<std::string> skip;
};

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) {
      out.push_back(item);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

bool Contains(const std::vector<std::string>& list, const std::string& name) {
  return std::find(list.begin(), list.end(), name) != list.end();
}

// Write-ahead suite journal: one JSON object per line — a header describing
// the run configuration, then one {"event":"cell",...} per finished cell.
// The header (and a resumed run's replayed prefix) goes through the
// temp-file+rename path; every cell event after that is appended with a
// single buffered write + flush, so journaling stays linear in suite size.
// The append can tear at most the line in flight under a kill -9;
// LoadJournal drops a torn tail and resumes from the last complete event.
class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}
  ~Journal() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  // Starts a fresh journal (overwrites any previous run's).
  void Start(const json::Value& header) {
    std::lock_guard<std::mutex> lock(mutex_);
    Reset(header.Dump(0) + "\n");
  }

  // Continues an existing journal (the --resume path). `existing` is the
  // complete-line prefix LoadJournal recovered, so a torn tail from the
  // killed run is dropped rather than appended after.
  void Continue(std::string existing) {
    std::lock_guard<std::mutex> lock(mutex_);
    Reset(existing);
  }

  void Append(const json::Value& event) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) {
      return;
    }
    const std::string line = event.Dump(0) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
      std::fprintf(stderr, "bench_runner: journal write failed: %s\n", path_.c_str());
    }
  }

 private:
  void Reset(const std::string& prefix) {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    if (Status s = json::WriteTextFileAtomic(path_, prefix); !s.ok()) {
      std::fprintf(stderr, "bench_runner: journal write failed: %s\n", s.ToString().c_str());
      return;
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) {
      std::fprintf(stderr, "bench_runner: cannot append to journal %s\n", path_.c_str());
    }
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

// What a previous run's journal says about the suite: the run-configuration
// header and every completed cell's payload, keyed (workload, cell). A
// restored cell skips execution entirely and feeds its journaled payload
// straight to assembly.
struct JournalState {
  json::Value header;
  std::map<std::string, std::map<std::string, json::Value>> cells;  // workload -> cell -> payload
  std::string raw;  // complete-line text, continued on resume
};

StatusOr<JournalState> LoadJournal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return NotFound("no journal at " + path);
  }
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  JournalState state;
  state.raw = text;
  size_t start = 0;
  bool first = true;
  while (start < text.size()) {
    const size_t line_start = start;
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    auto parsed = json::Parse(line);
    if (!parsed.ok()) {
      // A kill -9 can tear the event that was mid-append. Drop the torn tail
      // from the replayed prefix so Continue() never writes after a partial
      // line, and treat the rest as absent.
      state.raw = text.substr(0, line_start);
      break;
    }
    if (first) {
      if (parsed->Find("journal") == nullptr) {
        return InvalidArgument(path + " does not start with a journal header");
      }
      state.header = std::move(parsed).value();
      first = false;
      continue;
    }
    if (const json::Value* payload = parsed->Find("payload");
        payload != nullptr && parsed->StringOr("event", "") == "cell") {
      state.cells[parsed->StringOr("binary", "")][parsed->StringOr("cell", "")] = *payload;
    }
  }
  if (first) {
    return InvalidArgument(path + " is empty");
  }
  return state;
}

json::Value InfoMetric(double value) {
  json::Value entry = json::Value::Object();
  entry.Set("value", value);
  entry.Set("kind", "info");
  entry.Set("tol", 0.0);
  return entry;
}

// Adds `source`'s metrics to the merged stream, refusing duplicates.
void MergeMetrics(const std::string& name, const json::Value& source, json::Value& metrics,
                  int& exit_code) {
  for (const auto& [metric_name, metric] : source.members()) {
    if (metrics.Find(metric_name) != nullptr) {
      std::fprintf(stderr, "bench_runner: duplicate metric %s from %s\n", metric_name.c_str(),
                   name.c_str());
      exit_code = 1;
      continue;
    }
    metrics.Set(metric_name, metric);
  }
}

// Folds one engine job into the merged document, in the shape a standalone
// `memsentry_cli run` report has: the workload's metric stream followed by
// the host wall-clock trailer bench::Reporter::Finish appends (info kind —
// never part of the determinism contract).
void MergeJob(const eval::JobReport& job, const char* engine_name, json::Value& binaries,
              json::Value& metrics, int& exit_code) {
  const std::string& name = job.workload;
  const size_t restored =
      static_cast<size_t>(std::count(job.cell_restored.begin(), job.cell_restored.end(), true));
  json::Value info = json::Value::Object();
  info.Set("exit", job.status);
  info.Set("engine", engine_name);
  info.Set("cells", static_cast<uint64_t>(job.cell_names.size()));
  if (restored > 0) {
    info.Set("cells_restored", static_cast<uint64_t>(restored));
    info.Set("resumed", true);
  }
  info.Set("wall_seconds", job.wall_seconds);
  if (job.state != eval::JobState::kDone || job.status != 0) {
    std::fprintf(stderr, "bench_runner: %s (%s) finished %s with status %d\n", name.c_str(),
                 engine_name, eval::JobStateName(job.state), job.status);
    exit_code = 1;
  }
  binaries.Set(name, std::move(info));
  MergeMetrics(name, job.report.metrics(), metrics, exit_code);
  metrics.Set(name + "/wall_seconds", InfoMetric(job.wall_seconds));
  // Where the wall-clock went, at the engine's scheduling granularity.
  // tools/ci/check_gate.sh wall-summary surfaces the slowest cells.
  for (size_t c = 0; c < job.cell_names.size(); ++c) {
    metrics.Set("engine/seconds/" + name + "/" + job.cell_names[c],
                InfoMetric(job.cell_seconds[c]));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_runner [--quick] [--only=a,b] [--skip=a,b] [--out=PATH]\n"
               "                    [--baseline=PATH] [--no-gate] [--compare=RESULTS]\n"
               "                    [--write-baseline=PATH] [--instructions=N] [--jobs=N]\n"
               "                    [--check-determinism=OTHER.json]\n"
               "                    [--fastpath=on|off|check] [--journal=PATH] [--resume]\n"
               "                    [--engine=inproc|shard] [--workers=N]\n"
               "                    [--lease=SECONDS] [--chaos=SPEC] [--worker-cli=PATH]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--no-gate") {
      opts.gate = false;
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (const char* v = value("--journal")) {
      opts.journal = v;
    } else if (const char* v = value("--only")) {
      opts.only = SplitCsv(v);
    } else if (const char* v = value("--skip")) {
      opts.skip = SplitCsv(v);
    } else if (const char* v = value("--out")) {
      opts.out = v;
    } else if (const char* v = value("--baseline")) {
      opts.baseline = v;
    } else if (const char* v = value("--baselines-dir")) {
      opts.baselines_dir = v;
    } else if (const char* v = value("--compare")) {
      opts.compare_existing = v;
    } else if (const char* v = value("--write-baseline")) {
      opts.write_baseline = v;
    } else if (const char* v = value("--instructions")) {
      opts.instructions = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--jobs")) {
      opts.jobs = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = value("--check-determinism")) {
      opts.check_determinism = v;
    } else if (const char* v = value("--fastpath")) {
      opts.fastpath = v;
    } else if (const char* v = value("--engine")) {
      opts.engine = v;
    } else if (const char* v = value("--workers")) {
      opts.workers = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = value("--lease")) {
      opts.lease_seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--chaos")) {
      opts.chaos = v;
    } else if (const char* v = value("--worker-cli")) {
      opts.worker_cli = v;
    } else {
      std::fprintf(stderr, "bench_runner: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (opts.engine != "inproc" && opts.engine != "shard") {
    std::fprintf(stderr, "bench_runner: bad --engine value '%s' (want inproc|shard)\n",
                 opts.engine.c_str());
    return false;
  }
  return true;
}

// This binary's directory, resolved through symlinks when possible.
fs::path SelfDir(const char* argv0) {
  std::error_code ec;
  fs::path self = fs::canonical(fs::path(argv0), ec);
  if (ec) {
    self = fs::path(argv0);
  }
  return self.parent_path();
}

const char* CompilerString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Compares every fidelity/perf metric of `results` and `other` for exact
// (bitwise double) equality in both directions. Info metrics — wall clocks,
// jobs, engine counters — legitimately differ between runs and are exempt.
// Returns the number of mismatches, printing each.
int CountDeterminismMismatches(const json::Value& results, const json::Value& other) {
  const json::Value* a = results.Find("metrics");
  const json::Value* b = other.Find("metrics");
  if (a == nullptr || !a->is_object() || b == nullptr || !b->is_object()) {
    std::fprintf(stderr, "bench_runner: determinism check needs \"metrics\" in both files\n");
    return 1;
  }
  int mismatches = 0;
  for (const auto& [name, entry] : a->members()) {
    if (eval::ParseMetricKind(entry.StringOr("kind", "info")) == eval::MetricKind::kInfo) {
      continue;
    }
    const json::Value* peer = b->Find(name);
    if (peer == nullptr) {
      std::fprintf(stderr, "  [determinism] %s: missing from other run\n", name.c_str());
      ++mismatches;
      continue;
    }
    const double va = entry.NumberOr("value", 0.0);
    const double vb = peer->NumberOr("value", 0.0);
    if (va != vb) {
      std::fprintf(stderr, "  [determinism] %s: %.17g != %.17g\n", name.c_str(), va, vb);
      ++mismatches;
    }
  }
  for (const auto& [name, entry] : b->members()) {
    if (eval::ParseMetricKind(entry.StringOr("kind", "info")) == eval::MetricKind::kInfo) {
      continue;
    }
    if (a->Find(name) == nullptr) {
      std::fprintf(stderr, "  [determinism] %s: missing from this run\n", name.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

int Severity3(eval::Severity s) {
  return s == eval::Severity::kFailure ? 2 : s == eval::Severity::kWarning ? 1 : 0;
}

void PrintGateReport(const eval::GateReport& report, const std::string& baseline_path,
                     bool perf_gated) {
  std::printf("\n---- regression gate vs %s ----\n", baseline_path.c_str());
  std::printf("perf metrics: %s\n",
              perf_gated ? "gated (>=2 baseline snapshots)" : "warn-only (single baseline)");
  for (int severity = 2; severity >= 0; --severity) {
    for (const auto& issue : report.issues) {
      if (Severity3(issue.severity) != severity) {
        continue;
      }
      const char* tag = severity == 2 ? "FAIL" : severity == 1 ? "warn" : "note";
      std::printf("  [%s] %s: %s\n", tag, issue.metric.c_str(), issue.message.c_str());
    }
  }
  std::printf("gate: %s (%s)\n", report.ok() ? "PASS" : "FAIL", report.Summary().c_str());
}

}  // namespace

int Run(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    return Usage();
  }
  if (!opts.fastpath.empty()) {
    base::FastPathMode mode;
    if (!base::ParseFastPathMode(opts.fastpath.c_str(), &mode)) {
      std::fprintf(stderr, "bench_runner: bad --fastpath value '%s' (want on|off|check)\n",
                   opts.fastpath.c_str());
      return 2;
    }
    // Exported (not just set in-process): the shard workers are child
    // processes and pick the mode up from their own environment.
    ::setenv("MEMSENTRY_FASTPATH", base::FastPathModeName(mode), /*overwrite=*/1);
    base::SetFastPathMode(mode);
  }
  const uint64_t instructions =
      opts.instructions != 0 ? opts.instructions
                             : (opts.quick ? kQuickInstructions : kFullInstructions);
  if (opts.baselines_dir.empty()) {
    opts.baselines_dir = std::string(MEMSENTRY_SOURCE_DIR) + "/bench/baselines";
  }
  if (opts.baseline.empty()) {
    opts.baseline =
        opts.baselines_dir + (opts.quick ? "/seed-quick.json" : "/seed.json");
  }

  json::Value merged = json::Value::Object();
  int exit_code = 0;

  if (!opts.compare_existing.empty()) {
    auto loaded = json::ParseFile(opts.compare_existing);
    if (!loaded.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    merged = std::move(loaded).value();
  } else {
    // Reject --only/--skip names that match nothing: a typo would otherwise
    // run an empty suite and fail the gate with hundreds of "missing metric"
    // errors instead of naming the bad selector.
    for (const std::vector<std::string>* selector : {&opts.only, &opts.skip}) {
      for (const std::string& name : *selector) {
        bool known = false;
        for (const SuiteEntry& entry : kSuite) {
          known = known || name == entry.name;
        }
        if (!known) {
          std::fprintf(stderr, "bench_runner: unknown benchmark '%s' in --only/--skip\n",
                       name.c_str());
          return 2;
        }
      }
    }

    // --out's directory holds the report, the journal and the shard sockets;
    // make it before any work, so a bad path fails fast, not after the suite.
    const fs::path out_dir = fs::path(opts.out).parent_path();
    std::error_code ec;
    if (!out_dir.empty() && !fs::create_directories(out_dir, ec) && ec) {
      std::fprintf(stderr, "bench_runner: cannot create %s: %s\n", out_dir.c_str(),
                   ec.message().c_str());
      return 1;
    }

    const bool shard = opts.engine == "shard";
    const char* engine_name = opts.engine.c_str();
    merged.Set("schema", 1);
    merged.Set("suite", "memsentry-bench");
    merged.Set("mode", opts.quick ? "quick" : "full");
    merged.Set("instructions", instructions);
    merged.Set("fastpath", opts.fastpath.empty() ? "default" : opts.fastpath);
    json::Value binaries = json::Value::Object();
    json::Value metrics = json::Value::Object();

    // The suite journal. A fresh run writes a new header; --resume validates
    // the existing header against this invocation's configuration (merging
    // two differently-configured runs would silently gate garbage) and
    // collects every cell already journaled with its payload.
    const std::string journal_path =
        opts.journal.empty() ? (out_dir / "BENCH_JOURNAL.jsonl").string() : opts.journal;
    Journal journal(journal_path);
    json::Value journal_header = json::Value::Object();
    journal_header.Set("journal", 1);
    journal_header.Set("mode", opts.quick ? "quick" : "full");
    journal_header.Set("instructions", instructions);
    journal_header.Set("fastpath", opts.fastpath.empty() ? "default" : opts.fastpath);
    journal_header.Set("engine", engine_name);
    journal_header.Set("out", opts.out);
    std::map<std::string, std::map<std::string, json::Value>> journal_cells;
    bool resuming = false;
    if (opts.resume) {
      auto previous = LoadJournal(journal_path);
      if (!previous.ok()) {
        std::fprintf(stderr, "bench_runner: --resume: %s; starting fresh\n",
                     previous.status().ToString().c_str());
      } else if (previous->header.Dump(0) != journal_header.Dump(0)) {
        std::fprintf(stderr,
                     "bench_runner: --resume: journal %s was written by a differently "
                     "configured run\n  journal: %s\n  this run: %s\n",
                     journal_path.c_str(), previous->header.Dump(0).c_str(),
                     journal_header.Dump(0).c_str());
        return 2;
      } else {
        journal_cells = std::move(previous->cells);
        journal.Continue(std::move(previous->raw));
        resuming = true;
      }
    }
    if (!resuming) {
      journal.Start(journal_header);
    }
    // Cell-granular durability, shared by both engines: journaled payloads
    // mark their cells done at submit time, and every finished cell's
    // payload is appended (Journal::Append serializes), so a kill -9
    // mid-suite costs at most the cells that were in flight.
    const auto restore = [&journal_cells](const std::string& workload,
                                          const std::string& cell) -> const json::Value* {
      const auto wit = journal_cells.find(workload);
      if (wit == journal_cells.end()) {
        return nullptr;
      }
      const auto cit = wit->second.find(cell);
      return cit == wit->second.end() ? nullptr : &cit->second;
    };
    const auto on_cell_done = [&journal](const std::string& workload, const std::string& cell,
                                         const json::Value& payload) {
      json::Value event = json::Value::Object();
      event.Set("event", "cell");
      event.Set("binary", workload);
      event.Set("cell", cell);
      event.Set("payload", payload);
      journal.Append(event);
    };

    const int total_jobs = ResolveJobs(opts.jobs);
    std::unique_ptr<eval::CampaignEngine> engine;
    std::unique_ptr<eval::ShardCoordinator> coordinator;
    if (shard) {
      eval::CoordinatorOptions coptions;
      coptions.workers = opts.workers;
      coptions.lease_seconds = opts.lease_seconds;
      coptions.socket_dir = (out_dir / "bench_reports" / "coordinator").string();
      // Workers are the memsentry_cli sibling of this binary unless
      // overridden (tests point --worker-cli at the build tree).
      coptions.worker_cli = !opts.worker_cli.empty()
                                ? opts.worker_cli
                                : (SelfDir(argv[0]) / "memsentry_cli").string();
      if (!opts.chaos.empty()) {
        auto chaos = eval::ParseChaosSpec(opts.chaos);
        if (!chaos.ok()) {
          std::fprintf(stderr, "bench_runner: --chaos: %s\n",
                       chaos.status().ToString().c_str());
          return 2;
        }
        coptions.chaos = *chaos;
      }
      coptions.restore = restore;
      coptions.on_cell_done = on_cell_done;
      coordinator = std::make_unique<eval::ShardCoordinator>(&suite::SuiteRegistry(), coptions);
    } else {
      eval::EngineOptions engine_options;
      // Escape hatch for memo bisection: MEMSENTRY_NO_RUN_MEMO=1 runs every
      // cell from scratch. Results must not change (the determinism check
      // passes either way) — only the wall-clock does.
      engine_options.run_memo = std::getenv("MEMSENTRY_NO_RUN_MEMO") == nullptr;
      engine_options.jobs = total_jobs;
      engine_options.restore = restore;
      engine_options.on_cell_done = on_cell_done;
      engine = std::make_unique<eval::CampaignEngine>(&suite::SuiteRegistry(), engine_options);
    }

    const auto suite_start = std::chrono::steady_clock::now();
    // Submit every selected workload up front: the engine interleaves all
    // of their cells across its workers, so a straggler workload soaks up
    // the whole pool.
    std::vector<uint64_t> job_ids;
    for (const SuiteEntry& entry : kSuite) {
      if ((!opts.only.empty() && !Contains(opts.only, entry.name)) ||
          Contains(opts.skip, entry.name)) {
        continue;
      }
      eval::WorkloadOptions woptions;
      woptions.experiment.target_instructions = instructions;
      if (opts.quick && entry.quick_extra[0] != '\0') {
        // The same token `memsentry_cli run` would receive on its argv.
        const char* extra_argv[] = {"bench_runner", entry.quick_extra};
        eval::ParseWorkloadArgs(2, const_cast<char**>(extra_argv), woptions);
      }
      std::printf("[bench_runner] %s (%s) ...\n", entry.name, engine_name);
      std::fflush(stdout);
      job_ids.push_back(shard ? coordinator->Submit(entry.name, woptions)
                              : engine->Submit(entry.name, woptions));
    }

    // The coordinator drives its fleet from this thread until every cell is
    // in; the inproc engine's workers are already chewing through the queues.
    if (shard) {
      (void)coordinator->Run();
    }
    std::vector<const eval::JobReport*> jobs;
    for (const uint64_t id : job_ids) {
      const eval::JobReport* job = shard ? coordinator->reports()[id - 1].get() : engine->Wait(id);
      std::printf("[bench_runner] %s done: %zu cells (%zu restored) in %.2fs\n",
                  job->workload.c_str(), job->cell_names.size(),
                  static_cast<size_t>(
                      std::count(job->cell_restored.begin(), job->cell_restored.end(), true)),
                  job->wall_seconds);
      std::fflush(stdout);
      jobs.push_back(job);
    }
    const double suite_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_start).count();

    // Merge serially in suite order, so the merged document (and any error
    // output) is identical no matter how the parallel schedule interleaved.
    for (const eval::JobReport* job : jobs) {
      MergeJob(*job, engine_name, binaries, metrics, exit_code);
    }

    // Which engine produced the document, plus its aggregates: the
    // coordinator's failure traffic, or the inproc engine's work-stealing
    // traffic and run-memo efficacy across every workload. All
    // info-kind: the counters are host-timing-dependent (a loaded machine
    // expires leases chaos never touched), so none participate in gating or
    // the determinism check.
    json::Value engine_header = json::Value::Object();
    engine_header.Set("engine", engine_name);
    if (shard) {
      const eval::CoordinatorStats& stats = coordinator->stats();
      const std::pair<const char*, uint64_t> counters[] = {
          {"cells_total", stats.cells_total},
          {"cells_dispatched", stats.cells_dispatched},
          {"cells_redispatched", stats.cells_redispatched},
          {"cells_inlined", stats.cells_inlined},
          {"lease_expiries", stats.lease_expiries},
          {"garbled_replies", stats.garbled_replies},
          {"connect_retries", stats.connect_retries},
          {"workers_respawned", stats.workers_respawned},
          {"workers_quarantined", stats.workers_quarantined},
          {"degraded", stats.degraded ? 1u : 0u},
      };
      for (const auto& [key, value] : counters) {
        metrics.Set(std::string("coordinator/") + key, InfoMetric(static_cast<double>(value)));
      }
      engine_header.Set("workers", opts.workers);
      engine_header.Set("lease_seconds", opts.lease_seconds);
      engine_header.Set("chaos", opts.chaos);
      engine_header.Set("cells_restored", stats.cells_restored);
      engine_header.Set("cells_redispatched", stats.cells_redispatched);
      engine_header.Set("workers_quarantined", stats.workers_quarantined);
      engine_header.Set("degraded", stats.degraded);
      std::printf(
          "[bench_runner] suite wall-clock %.2fs (engine=shard, workers=%d, cells=%llu "
          "[%llu redispatched, %llu inlined, %llu restored], lease expiries=%llu, "
          "garbled=%llu, quarantined=%llu, degraded=%d)\n",
          suite_seconds, opts.workers, static_cast<unsigned long long>(stats.cells_total),
          static_cast<unsigned long long>(stats.cells_redispatched),
          static_cast<unsigned long long>(stats.cells_inlined),
          static_cast<unsigned long long>(stats.cells_restored),
          static_cast<unsigned long long>(stats.lease_expiries),
          static_cast<unsigned long long>(stats.garbled_replies),
          static_cast<unsigned long long>(stats.workers_quarantined), stats.degraded ? 1 : 0);
    } else {
      const eval::EngineStats stats = engine->stats();
      const eval::RunMemo::Stats memo = eval::RunMemo::Global().stats();
      metrics.Set("engine/cells_run", InfoMetric(static_cast<double>(stats.cells_run)));
      metrics.Set("engine/cells_restored", InfoMetric(static_cast<double>(stats.cells_restored)));
      metrics.Set("engine/steals", InfoMetric(static_cast<double>(stats.steals)));
      metrics.Set("engine/run_memo_hit_rate", InfoMetric(memo.HitRate()));
      metrics.Set("engine/run_memo_hits", InfoMetric(static_cast<double>(memo.hits)));
      engine_header.Set("jobs", engine->jobs());
      engine_header.Set("cells_run", stats.cells_run);
      engine_header.Set("cells_restored", stats.cells_restored);
      engine_header.Set("steals", stats.steals);
      std::printf(
          "[bench_runner] suite wall-clock %.2fs (engine=inproc, workers=%d, cells=%llu "
          "run + %llu restored, steals=%llu)\n",
          suite_seconds, engine->jobs(), static_cast<unsigned long long>(stats.cells_run),
          static_cast<unsigned long long>(stats.cells_restored),
          static_cast<unsigned long long>(stats.steals));
    }
    // The wall-clock trajectory of the suite itself: info metrics, recorded
    // in every snapshot but never gated (they are host-dependent).
    metrics.Set("runner/wall_seconds", InfoMetric(suite_seconds));
    metrics.Set("runner/jobs", InfoMetric(total_jobs));
    merged.Set("engine", std::move(engine_header));

    // Host metadata, so future baseline snapshots are attributable.
    json::Value host = json::Value::Object();
    host.Set("jobs", total_jobs);
    host.Set("hardware_concurrency", HardwareJobs());
    host.Set("compiler", CompilerString());
    merged.Set("host", std::move(host));
    merged.Set("binaries", std::move(binaries));
    merged.Set("metrics", std::move(metrics));

    if (Status s = json::WriteFileAtomic(opts.out, merged); !s.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[bench_runner] wrote %s (%zu metrics)\n", opts.out.c_str(),
                merged.Find("metrics")->size());
  }

  if (!opts.write_baseline.empty()) {
    if (Status s = json::WriteFileAtomic(opts.write_baseline, merged); !s.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[bench_runner] snapshot written to %s\n", opts.write_baseline.c_str());
  }

  if (!opts.check_determinism.empty()) {
    auto other = json::ParseFile(opts.check_determinism);
    if (!other.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", other.status().ToString().c_str());
      return 1;
    }
    const int mismatches = CountDeterminismMismatches(merged, *other);
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "bench_runner: determinism check FAILED: %d fidelity/perf metrics differ "
                   "from %s\n",
                   mismatches, opts.check_determinism.c_str());
      return 1;
    }
    std::printf("[bench_runner] determinism check ok: all fidelity/perf metrics identical "
                "to %s\n",
                opts.check_determinism.c_str());
  }

  if (!opts.gate) {
    return exit_code;
  }

  auto baseline = json::ParseFile(opts.baseline);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_runner: no baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }

  // Perf metrics warn while only the seed snapshot exists; once a second
  // snapshot for this mode lands in bench/baselines they gate like fidelity.
  int snapshots = 0;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(opts.baselines_dir, ec)) {
    const std::string file = dirent.path().filename().string();
    if (file.size() < 5 || file.substr(file.size() - 5) != ".json") {
      continue;
    }
    const bool is_quick = file.find("-quick") != std::string::npos;
    if (is_quick == opts.quick) {
      ++snapshots;
    }
  }
  eval::GateOptions gate_options;
  gate_options.gate_perf = snapshots >= 2;

  const eval::GateReport report = eval::CompareAgainstBaseline(merged, *baseline, gate_options);
  PrintGateReport(report, opts.baseline, gate_options.gate_perf);
  return report.ok() ? exit_code : 1;
}

}  // namespace memsentry

int main(int argc, char** argv) { return memsentry::Run(argc, argv); }
