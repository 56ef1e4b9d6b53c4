// msbench — the measuring half of the MemSentry benchmark (perfbench/run.py
// builds and runs it). Every subcommand prints exactly one JSON object on stdout.
//
//   msbench pass figures|tenants --seed N --workers W --t0-ns T
//           [--trace 1 --trace-out PATH]
//       One measured pass in a fresh process, so the process-global caches
//       (DecodeCache, synthesis cache, RunMemo) start cold, as in a user's
//       suite run. The pass submits the workload's cells to an
//       eval::CampaignEngine and reports host wall/CPU time, per-cell run
//       times and the merged report's metrics. With --trace 1 the pass then
//       rebuilds every cell from the libraries' public functions with a span
//       around each call, checks that the rebuild equals the engine's cells
//       bit for bit, and reports per-layer self times and counts.
//
//   msbench service --seed N --workers W --cli PATH --socket PATH --seconds S
//           [--trace 1 --trace-out PATH] [--inject-fail K]
//       Spawns `memsentry_cli serve --jobs W`, drives it over its UNIX
//       socket with two closed-loop clients and an open-loop ping prober,
//       checks every reply against an in-process run of the same request,
//       and reports per-pass and per-request timings.
//
// Layers are timed from outside: spans wrap calls into each module's
// public API and never reach inside a call.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/core/memsentry.h"
#include "src/defenses/event_annotator.h"
#include "src/defenses/shadow_stack.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/figures.h"
#include "src/eval/run_memo.h"
#include "src/eval/serve.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"
#include "src/suite/workloads.h"
#include "src/workloads/server.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace {

using namespace memsentry;  // NOLINT(build/namespaces)

// ---------------------------------------------------------------- clocks

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------- tracing

// Layers are named after the modules whose public calls they wrap.
enum Layer {
  kCell,
  kSynth,
  kPrepare,
  kDefense,
  kInstrument,
  kDecode,
  kExec,
  kServerSetup,
  kServerRun,
  kJsonDump,
  kJsonParse,
  kServeRtt,
  kLayerCount
};
const char* const kLayerNames[kLayerCount] = {
    "eval.cell",           "workloads.synth",      "workloads.prepare",  "defenses.pass",
    "core.instrument",     "sim.decode",           "sim.exec",           "workloads.server.setup",
    "workloads.server.run", "base.json.dump",      "base.json.parse",    "eval.serve.rtt"};

struct Span {
  Layer layer;
  int parent;  // index into the same trace, -1 for a root
  int64_t start_ns;
  int64_t end_ns;
};

// One thread's spans, kept in memory until the process writes them out.
// With tracing off, Open() records nothing and costs two branches.
class Trace {
 public:
  explicit Trace(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Trace* trace, Layer layer) : trace_(trace) {
      if (trace_->on_) {
        index_ = static_cast<int>(trace_->spans_.size());
        trace_->spans_.push_back(Span{layer, trace_->open_, NowNs(), 0});
        trace_->open_ = index_;
      }
    }
    ~Scope() {
      if (trace_->on_) {
        trace_->spans_[index_].end_ns = NowNs();
        trace_->open_ = trace_->spans_[index_].parent;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  Scope Open(Layer layer) { return Scope(this, layer); }
  // Only between spans: an open Scope must close under the flag it opened with.
  void set_on(bool on) { on_ = on; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

// Self time per layer: each span's duration minus the durations of the
// spans it directly caused.
void AddSelfTimes(const std::vector<Span>& spans, double* self_s) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    self_s[spans[i].layer] +=
        static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) * 1e-9;
  }
}

// Chrome trace-event JSON: one complete ("X") event per span, one tid per
// recorded trace; args.parent links a span to the span that caused it.
void WriteTraceFile(const std::string& path, const std::vector<const Trace*>& traces) {
  if (path.empty()) {
    return;
  }
  json::Value events = json::Value::Array();
  int64_t origin = INT64_MAX;
  for (const Trace* t : traces) {
    for (const Span& s : t->spans()) {
      origin = std::min(origin, s.start_ns);
    }
  }
  for (size_t tid = 0; tid < traces.size(); ++tid) {
    const auto& spans = traces[tid]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      json::Value e = json::Value::Object();
      e.Set("name", kLayerNames[spans[i].layer]);
      e.Set("ph", "X");
      e.Set("pid", 1);
      e.Set("tid", static_cast<uint64_t>(tid));
      e.Set("ts", static_cast<double>(spans[i].start_ns - origin) * 1e-3);
      e.Set("dur", static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3);
      json::Value args = json::Value::Object();
      args.Set("id", static_cast<uint64_t>(i));
      args.Set("parent", spans[i].parent);
      e.Set("args", std::move(args));
      events.Append(std::move(e));
    }
  }
  json::Value doc = json::Value::Object();
  doc.Set("traceEvents", std::move(events));
  std::ofstream(path) << doc.Dump(0) << "\n";
}

// ---------------------------------------------------------------- arguments

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      values_[argv[i]] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t U64(const std::string& key, uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 0);
  }

 private:
  std::map<std::string, std::string> values_;
};

json::Value NumberArray(const std::vector<double>& values) {
  json::Value out = json::Value::Array();
  for (double v : values) {
    out.Append(v);
  }
  return out;
}

// ---------------------------------------------------------------- workloads

// The evaluation figures and sweeps, in the suite's order.
const std::vector<std::string>& FigureWorkloads() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "fig3_address",     "fig4_callret",     "fig5_indirect",
      "fig6_syscall",     "crypt_size_sweep", "mprotect_baseline"};
  return *names;
}

// The benchmark seed is the figure pipelines' synthesis seed; the tenant
// sweep's arrival seed is offset from the server default by the same amount,
// so the default benchmark seed reproduces both libraries' default reports.
uint64_t ServerSeed(uint64_t seed) {
  return workloads::ServerConfig{}.seed ^ (seed ^ eval::ExperimentOptions{}.seed);
}

// The sweep starts at 100 tenants: cells of 1 and 10 tenants run for under a
// millisecond, so they would make the per-cell median a measure of host
// jitter rather than of the server path.
const std::vector<int>& TenantCounts() {
  static const std::vector<int>* counts = new std::vector<int>{100, 1000, 10000};
  return *counts;
}

// The multi-tenant server sweep (100..10k tenants x 5 techniques) as an
// engine workload whose arrivals follow the benchmark seed. Cells carry the
// full ServerResult digest; assembly emits them as fidelity metrics so the
// reference check covers every cell.
eval::Workload TenantsWorkload(uint64_t seed) {
  eval::Workload w;
  w.name = "tenants";
  w.cells = [seed](const eval::WorkloadOptions&) {
    std::vector<eval::WorkloadCell> cells;
    for (int tenants : TenantCounts()) {
      for (workloads::ServerTechnique technique : workloads::AllServerTechniques()) {
        cells.push_back(
            {std::string(workloads::ServerTechniqueName(technique)) + "/t" +
                 std::to_string(tenants),
             [seed, tenants, technique](const eval::WorkloadOptions&) {
               workloads::ServerConfig config;
               config.tenants = tenants;
               config.technique = technique;
               config.seed = ServerSeed(seed);
               const workloads::ServerResult r = workloads::RunServerWorkload(config);
               json::Value payload = json::Value::Object();
               payload.Set("requests", r.requests);
               payload.Set("faults", r.faults);
               payload.Set("p99_latency", static_cast<double>(r.p99_latency));
               payload.Set("requests_per_sec", r.requests_per_sec);
               // Low 53 bits: exactly representable in a JSON number.
               payload.Set("digest53",
                           static_cast<double>(r.digest & ((uint64_t{1} << 53) - 1)));
               return payload;
             }});
      }
    }
    return cells;
  };
  w.assemble = [](const eval::WorkloadOptions&, const std::vector<json::Value>& payloads,
                  eval::ReportBuilder& report) {
    const auto cells = TenantsWorkload(0).cells({});
    int status = 0;
    for (size_t i = 0; i < payloads.size(); ++i) {
      const std::string prefix = "tenants/" + cells[i].name;
      const double faults = payloads[i].NumberOr("faults", -1);
      report.AddFidelity(prefix + "/faults", faults, 0.0);
      report.AddFidelity(prefix + "/requests", payloads[i].NumberOr("requests", 0), 0.0);
      report.AddFidelity(prefix + "/requests_per_sec",
                         payloads[i].NumberOr("requests_per_sec", 0), 0.0);
      report.AddFidelity(prefix + "/p99_cycles", payloads[i].NumberOr("p99_latency", 0), 0.0);
      report.AddFidelity(prefix + "/digest53", payloads[i].NumberOr("digest53", 0), 0.0);
      if (faults != 0) {
        status = 1;  // a fault mid-request is a simulator bug
      }
    }
    return status;
  };
  return w;
}

// ---------------------------------------------------------------- engine pass

struct EnginePass {
  double wall_s = 0;
  double cpu_s = 0;
  int status = 0;
  std::vector<double> cell_s;
  json::Value metrics = json::Value::Object();
  eval::EngineStats engine;
  eval::RunMemo::Stats memo;
  std::map<std::string, json::Value> payloads;  // "workload/cell" -> payload
};

// Submits every workload at once (the suite runner's schedule), waits for
// all of them and merges their metrics into one report, serialized as the
// runner writes it.
EnginePass RunEnginePass(eval::CampaignEngine& engine, const std::vector<std::string>& names,
                         const eval::WorkloadOptions& options) {
  EnginePass pass;
  const double cpu0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  std::vector<uint64_t> ids;
  for (const std::string& name : names) {
    ids.push_back(engine.Submit(name, options));
  }
  for (uint64_t id : ids) {
    const eval::JobReport* report = id == 0 ? nullptr : engine.Wait(id);
    if (report == nullptr || report->state != eval::JobState::kDone || report->status != 0) {
      pass.status = 1;
      continue;
    }
    pass.cell_s.insert(pass.cell_s.end(), report->cell_seconds.begin(),
                       report->cell_seconds.end());
    for (const auto& [name, value] : report->report.metrics().members()) {
      pass.metrics.Set(name, value);
    }
  }
  (void)pass.metrics.Dump(2);  // the runner writes the merged report out
  pass.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.engine = engine.stats();
  pass.memo = eval::RunMemo::Global().stats();
  return pass;
}

// ---------------------------------------------------------------- traced figure rebuild

// Per-cell layer counters, summed after the rebuild.
struct Counters {
  uint64_t synth_calls = 0;
  uint64_t instrument_calls = 0;
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t instrs = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t domain_switches = 0;
  uint64_t syscalls = 0;
  double exec_cpu_s = 0;

  void Add(const Counters& o) {
    synth_calls += o.synth_calls;
    instrument_calls += o.instrument_calls;
    decode_hits += o.decode_hits;
    decode_misses += o.decode_misses;
    instrs += o.instrs;
    loads += o.loads;
    stores += o.stores;
    domain_switches += o.domain_switches;
    syscalls += o.syscalls;
    exec_cpu_s += o.exec_cpu_s;
  }
};

enum class CellKind { kAddress, kDomain, kCryptSize };

// One figure cell, decoded from its engine name.
struct FigureCell {
  std::string key;  // "workload/cell"
  CellKind kind = CellKind::kDomain;
  const workloads::SpecProfile* profile = nullptr;
  core::TechniqueKind technique = core::TechniqueKind::kMpk;
  core::ProtectMode mode = core::ProtectMode::kWriteOnly;
  eval::DomainScenario scenario = eval::DomainScenario::kCallRet;
  uint64_t crypt_bytes = 0;  // crypt_size_sweep region size
};

std::vector<FigureCell> EnumerateFigureCells(const eval::WorkloadOptions& options) {
  std::vector<FigureCell> out;
  for (const std::string& name : FigureWorkloads()) {
    const eval::Workload* workload = suite::FindSuiteWorkload(name);
    for (const eval::WorkloadCell& cell : workload->cells(options)) {
      FigureCell c;
      c.key = name + "/" + cell.name;
      const size_t slash = cell.name.find('/');
      const std::string config = cell.name.substr(0, slash);
      const std::string profile = slash == std::string::npos ? cell.name
                                                             : cell.name.substr(slash + 1);
      if (name == "fig3_address") {
        c.kind = CellKind::kAddress;
        for (const auto& a : eval::AddressSweepConfigs()) {
          if (config == a.name) {
            c.technique = a.kind;
            c.mode = a.mode;
          }
        }
      } else if (name == "crypt_size_sweep") {
        c.kind = CellKind::kCryptSize;
        c.technique = core::TechniqueKind::kCrypt;
        c.crypt_bytes = std::strtoull(cell.name.c_str(), nullptr, 10);
      } else if (name == "mprotect_baseline") {
        c.technique = core::TechniqueKind::kMprotect;
      } else {
        for (const auto& d : eval::DomainSweepConfigs()) {
          if (config == d.name) {
            c.technique = d.kind;
          }
        }
        c.scenario = name == "fig5_indirect"  ? eval::DomainScenario::kIndirectBranch
                     : name == "fig6_syscall" ? eval::DomainScenario::kSyscall
                                              : eval::DomainScenario::kCallRet;
      }
      // The size sweep runs on 401.bzip2, like the suite workload.
      c.profile = workloads::FindProfile(c.kind == CellKind::kCryptSize ? "401.bzip2" : profile);
      out.push_back(c);
    }
  }
  return out;
}

struct Outcome {
  bool ok = false;
  Cycles cycles = 0;
  uint64_t instructions = 0;
};

// A map whose values are computed once, by the first thread to ask for a
// key; later askers wait for that result and get a copy.
template <typename T>
class OnceMap {
 public:
  template <typename Make>
  T Get(const std::string& key, Make&& make) {
    std::promise<T> promise;
    std::shared_future<T> value;
    bool build = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto [it, inserted] = values_.try_emplace(key);
      if (inserted) {
        it->second = promise.get_future().share();
        build = true;
      }
      value = it->second;
    }
    if (build) {
      promise.set_value(make());
    }
    return value.get();
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_future<T>> values_;
};

// Shared between rebuild workers: one synthesized module per profile and
// one baseline run per recipe, as the engine's synthesis cache and run memo
// keep them — so the rebuild does the same work as the engine pass.
struct RebuildCaches {
  OnceMap<ir::Module> modules;
  OnceMap<Outcome> baselines;
};

// A baseline observes the technique only through the safe region's
// effective size (the technique's granularity rounding), so columns with the
// same geometry share one baseline run per profile and scenario.
std::string BaselineRecipe(const FigureCell& c) {
  const uint64_t bytes = c.technique == core::TechniqueKind::kCrypt ? 16 : 4096;
  const uint64_t granularity = core::CreateTechnique(c.technique)->limits().granularity;
  const int scenario = c.kind == CellKind::kAddress ? -1 : static_cast<int>(c.scenario);
  return c.profile->name + "|" + std::to_string(scenario) + "|" +
         std::to_string((bytes + granularity - 1) / granularity * granularity) + "|" +
         std::to_string(c.crypt_bytes);
}

// One pipeline — synthesize, prepare, defense pass, MemSentry pass, decode,
// execute — with a span around each public call.
Outcome RunTracedPipeline(const FigureCell& c, bool isolated,
                          const eval::ExperimentOptions& options, RebuildCaches& caches,
                          Trace& trace, Counters& counters) {
  ir::Module module;
  {
    auto span = trace.Open(kSynth);
    module = caches.modules.Get(c.profile->name, [&] {
      ++counters.synth_calls;
      workloads::SynthOptions synth;
      synth.target_instructions = options.target_instructions;
      synth.seed = options.seed;
      return workloads::SynthesizeSpecProgram(*c.profile, synth);
    });
  }
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<core::MemSentry> memsentry;
  VirtAddr region_base = 0;
  {
    auto span = trace.Open(kPrepare);
    machine = std::make_unique<sim::Machine>();
    process = std::make_unique<sim::Process>(machine.get());
    if (isolated && c.technique == core::TechniqueKind::kVmfunc) {
      (void)process->EnableDune();
    }
    (void)workloads::PrepareWorkloadProcess(*process, *c.profile);
    core::MemSentryConfig config;
    config.technique = c.technique;
    config.options = options.instrument;
    if (c.kind == CellKind::kAddress) {
      config.options.mode = c.mode;
    }
    memsentry = std::make_unique<core::MemSentry>(process.get(), config);
    const uint64_t bytes = c.technique == core::TechniqueKind::kCrypt ? 16 : 4096;
    if (auto region = memsentry->allocator().Alloc("defense-metadata", bytes); region.ok()) {
      region_base = region.value()->base;
    }
    if (c.kind == CellKind::kCryptSize) {
      auto& region = process->safe_regions()[0];
      if (isolated) {
        const uint64_t old_pages = PageAlignUp(region.size) >> kPageShift;
        const uint64_t new_pages = PageAlignUp(c.crypt_bytes) >> kPageShift;
        if (new_pages > old_pages) {
          (void)process->MapRange(region.base + old_pages * kPageSize, new_pages - old_pages,
                                  machine::PageFlags::Data());
        }
      }
      region.size = c.crypt_bytes;
    }
  }
  if (c.kind != CellKind::kAddress) {
    auto span = trace.Open(kDefense);
    Status status;
    if (c.scenario == eval::DomainScenario::kCallRet) {
      status = defenses::ShadowStackPass(region_base).Run(module);
    } else {
      status = defenses::EventAnnotatorPass(c.scenario == eval::DomainScenario::kSyscall
                                                ? defenses::EventKind::kSyscall
                                                : defenses::EventKind::kIndirectBranch,
                                            region_base)
                   .Run(module);
    }
    if (!status.ok()) {
      return {};
    }
  }
  if (isolated) {
    auto span = trace.Open(kInstrument);
    ++counters.instrument_calls;
    if (!memsentry->Protect(module).ok()) {
      return {};
    }
  }
  std::shared_ptr<const sim::DecodedModule> decoded;
  {
    auto span = trace.Open(kDecode);
    bool hit = false;
    decoded = sim::DecodeCache::Global().Get(module, *process, &hit);
    ++(hit ? counters.decode_hits : counters.decode_misses);
  }
  sim::RunResult result;
  {
    auto span = trace.Open(kExec);
    sim::Executor executor(process.get(), &module);
    executor.SetDecoded(decoded);
    const double cpu0 = ThreadCpuSeconds();
    result = executor.Run(sim::RunConfig{});
    counters.exec_cpu_s += ThreadCpuSeconds() - cpu0;
  }
  counters.instrs += result.instructions;
  counters.loads += result.loads;
  counters.stores += result.stores;
  counters.domain_switches += result.domain_switches;
  counters.syscalls += result.syscalls;
  return Outcome{result.halted && !result.fault.has_value(), result.cycles, result.instructions};
}

struct RebuiltCell {
  double normalized = -1;
  Cycles prot_cycles = 0;
  Counters counters;
  std::unique_ptr<Trace> trace;
};

RebuiltCell RebuildFigureCell(const FigureCell& c, const eval::ExperimentOptions& options,
                              RebuildCaches& caches, bool trace_on) {
  RebuiltCell out;
  out.trace = std::make_unique<Trace>(trace_on);
  auto span = out.trace->Open(kCell);
  const Outcome base = caches.baselines.Get(BaselineRecipe(c), [&] {
    return RunTracedPipeline(c, /*isolated=*/false, options, caches, *out.trace, out.counters);
  });
  if (!base.ok) {
    return out;
  }
  const Outcome prot =
      RunTracedPipeline(c, /*isolated=*/true, options, caches, *out.trace, out.counters);
  if (prot.ok) {
    out.normalized = prot.cycles / base.cycles;
    out.prot_cycles = prot.cycles;
  }
  return out;
}

// ---------------------------------------------------------------- pass subcommand

json::Value LayerTimes(const std::vector<const Trace*>& traces) {
  double self_s[kLayerCount] = {};
  for (const Trace* t : traces) {
    AddSelfTimes(t->spans(), self_s);
  }
  json::Value out = json::Value::Object();
  for (int i = 0; i < kLayerCount; ++i) {
    out.Set(kLayerNames[i], self_s[i]);
  }
  return out;
}

// Times one serialization of the merged report and one parse of it back.
void TimeReportJson(const json::Value& metrics, json::Value& layer) {
  const int64_t t0 = NowNs();
  const std::string text = metrics.Dump(2);
  const int64_t t1 = NowNs();
  const bool parsed = json::Parse(text).ok();
  const int64_t t2 = NowNs();
  layer.Set("base.json.dump_s", static_cast<double>(t1 - t0) * 1e-9);
  layer.Set("base.json.parse_s", parsed ? static_cast<double>(t2 - t1) * 1e-9 : -1.0);
  layer.Set("base.json.bytes", static_cast<uint64_t>(text.size()));
}

// One rebuild of every cell of a pass from public functions, compared with
// the engine's payloads. Spans are recorded only when `trace_on`: the same
// rebuild without them gives the tracing overhead by difference.
struct Rebuild {
  double wall_s = 0;
  uint64_t mismatches = 0;
  json::Value layer = json::Value::Object();
  std::vector<std::unique_ptr<Trace>> traces;
};

Rebuild RebuildFigures(const eval::WorkloadOptions& options, int workers,
                       const EnginePass& engine, bool trace_on) {
  const std::vector<FigureCell> specs = EnumerateFigureCells(options);
  sim::DecodeCache::Global().Clear();
  RebuildCaches caches;
  Rebuild out;
  const int64_t t0 = NowNs();
  std::vector<RebuiltCell> cells = ParallelMap(workers, specs.size(), [&](size_t i) {
    return RebuildFigureCell(specs[i], options.experiment, caches, trace_on);
  });
  out.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;

  Counters total;
  for (size_t i = 0; i < specs.size(); ++i) {
    total.Add(cells[i].counters);
    out.traces.push_back(std::move(cells[i].trace));
    const auto it = engine.payloads.find(specs[i].key);
    const bool same = it != engine.payloads.end() && cells[i].normalized > 0 &&
                      it->second.NumberOr("normalized", 0) == cells[i].normalized &&
                      it->second.NumberOr("prot_cycles", 0) == cells[i].prot_cycles;
    if (!same) {
      ++out.mismatches;
      std::fprintf(stderr, "msbench: rebuilt cell %s differs from the engine run\n",
                   specs[i].key.c_str());
    }
  }
  out.layer.Set("traced_cells", static_cast<uint64_t>(specs.size()));
  out.layer.Set("workloads.synth.calls", total.synth_calls);
  out.layer.Set("core.instrument.calls", total.instrument_calls);
  out.layer.Set("sim.decode.hits", total.decode_hits);
  out.layer.Set("sim.decode.misses", total.decode_misses);
  out.layer.Set("sim.exec.instrs", total.instrs);
  out.layer.Set("sim.exec.cpu_s", total.exec_cpu_s);
  out.layer.Set("sim.exec.loads", total.loads);
  out.layer.Set("sim.exec.stores", total.stores);
  out.layer.Set("sim.exec.domain_switches", total.domain_switches);
  out.layer.Set("sim.exec.syscalls", total.syscalls);
  return out;
}

Rebuild RebuildTenants(uint64_t seed, int workers, const EnginePass& engine, bool trace_on) {
  const auto cells = TenantsWorkload(seed).cells({});
  struct Cell {
    workloads::ServerResult result;
    bool setup_ok = false;
    std::unique_ptr<Trace> trace;
  };
  sim::DecodeCache::Global().Clear();
  sim::DecodeCache::Global().ResetStats();
  const int64_t t0 = NowNs();
  std::vector<Cell> rebuilt = ParallelMap(workers, cells.size(), [&](size_t i) {
    Cell cell;
    cell.trace = std::make_unique<Trace>(trace_on);
    auto span = cell.trace->Open(kCell);
    workloads::ServerConfig config;
    config.tenants = TenantCounts()[i / workloads::AllServerTechniques().size()];
    config.technique =
        workloads::AllServerTechniques()[i % workloads::AllServerTechniques().size()];
    config.seed = ServerSeed(seed);
    workloads::ServerEngine server(config);
    {
      auto setup = cell.trace->Open(kServerSetup);
      cell.setup_ok = server.Setup().ok();
    }
    if (cell.setup_ok) {
      auto run = cell.trace->Open(kServerRun);
      cell.result = server.Run();
    }
    return cell;
  });
  Rebuild out;
  out.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const sim::DecodeCacheStats decode = sim::DecodeCache::Global().stats();

  uint64_t requests = 0, ctx = 0, syscalls = 0;
  double tlb = 0, grant = 0;
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    const workloads::ServerResult& r = rebuilt[i].result;
    requests += r.requests;
    ctx += r.context_switches;
    syscalls += r.syscalls;
    tlb += r.tlb_hit_rate * static_cast<double>(r.requests);
    grant += r.grant_hit_rate * static_cast<double>(r.requests);
    const auto it = engine.payloads.find("tenants/" + cells[i].name);
    const double digest53 = static_cast<double>(r.digest & ((uint64_t{1} << 53) - 1));
    if (!rebuilt[i].setup_ok || r.faults != 0 || it == engine.payloads.end() ||
        it->second.NumberOr("digest53", -1) != digest53) {
      ++out.mismatches;
      std::fprintf(stderr, "msbench: rebuilt cell tenants/%s differs from the engine run\n",
                   cells[i].name.c_str());
    }
    out.traces.push_back(std::move(rebuilt[i].trace));
  }
  json::Value& layer = out.layer;
  layer.Set("traced_cells", static_cast<uint64_t>(cells.size()));
  layer.Set("sim.decode.hits", decode.hits);
  layer.Set("sim.decode.misses", decode.misses);
  layer.Set("workloads.server.requests", requests);
  layer.Set("workloads.server.ctx_switches", ctx);
  layer.Set("workloads.server.syscalls", syscalls);
  layer.Set("workloads.server.tlb_hit_rate", requests ? tlb / static_cast<double>(requests) : 0);
  layer.Set("workloads.server.grant_hit_rate",
            requests ? grant / static_cast<double>(requests) : 0);
  return out;
}

int PassMain(const std::string& workload, const Args& args) {
  const uint64_t seed = args.U64("--seed", eval::ExperimentOptions{}.seed);
  const int workers = static_cast<int>(args.U64("--workers", 4));
  const int64_t t0 = static_cast<int64_t>(args.U64("--t0-ns", static_cast<uint64_t>(NowNs())));
  const bool trace = args.U64("--trace", 0) != 0;
  const bool figures = workload == "figures";
  if (!figures && workload != "tenants") {
    std::fprintf(stderr, "msbench: unknown pass workload %s\n", workload.c_str());
    return 2;
  }

  eval::WorkloadRegistry tenants_registry;
  if (!figures) {
    tenants_registry.Register(TenantsWorkload(seed));
  }
  eval::EngineOptions engine_options;
  engine_options.jobs = workers;
  std::mutex payload_mutex;
  std::map<std::string, json::Value> payloads;
  if (trace) {
    engine_options.on_cell_done = [&](const std::string& w, const std::string& c,
                                      const json::Value& payload) {
      std::lock_guard<std::mutex> lock(payload_mutex);
      payloads[w + "/" + c] = payload;
    };
  }
  eval::CampaignEngine engine(figures ? &suite::SuiteRegistry() : &tenants_registry,
                              engine_options);
  const double setup_s = static_cast<double>(NowNs() - t0) * 1e-9;

  eval::WorkloadOptions options;
  options.experiment.seed = seed;
  EnginePass pass = RunEnginePass(
      engine, figures ? FigureWorkloads() : std::vector<std::string>{"tenants"}, options);
  pass.payloads = std::move(payloads);

  json::Value out = json::Value::Object();
  out.Set("setup_s", setup_s);
  out.Set("wall_s", pass.wall_s);
  out.Set("cpu_s", pass.cpu_s);
  out.Set("status", pass.status);
  out.Set("cell_s", NumberArray(pass.cell_s));
  out.Set("steals", pass.engine.steals);
  out.Set("memo_hits", pass.memo.hits);
  out.Set("memo_misses", pass.memo.misses);

  if (trace) {
    // The rebuild runs twice, with and without spans, in an order that
    // alternates between passes so neither side always runs on a warmer heap.
    const auto rebuild = [&](bool trace_on) {
      return figures ? RebuildFigures(options, workers, pass, trace_on)
                     : RebuildTenants(seed, workers, pass, trace_on);
    };
    const bool traced_first = args.U64("--pass-index", 0) % 2 == 1;
    Rebuild first = rebuild(traced_first);
    Rebuild second = rebuild(!traced_first);
    Rebuild& traced = traced_first ? first : second;
    const Rebuild& plain = traced_first ? second : first;
    std::vector<const Trace*> traces;
    for (const auto& t : traced.traces) {
      traces.push_back(t.get());
    }
    json::Value layer = std::move(traced.layer);
    layer.Set("traced_wall_s", traced.wall_s);
    layer.Set("untraced_wall_s", plain.wall_s);
    layer.Set("traced_mismatches", traced.mismatches + plain.mismatches);
    layer.Set("self_s", LayerTimes(traces));
    TimeReportJson(pass.metrics, layer);
    WriteTraceFile(args.Str("--trace-out"), traces);
    out.Set("layer", std::move(layer));
  }
  out.Set("peak_rss_mb", PeakRssMb());
  out.Set("metrics", std::move(pass.metrics));
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}

// ---------------------------------------------------------------- service

// One request/reply round on a fresh connection (the daemon serves one
// connection at a time until EOF, so a client holds none between requests).
struct Exchange {
  bool ok = false;  // transport succeeded and the reply parsed
  json::Value reply;
  size_t reply_bytes = 0;
  double rtt_s = 0;  // connect + send -> full reply
};

Exchange Roundtrip(const std::string& socket_path, const json::Value& request, Trace& trace) {
  Exchange ex;
  std::string frame;
  {
    auto span = trace.Open(kJsonDump);
    frame = request.Dump(0);
  }
  frame.push_back('\n');
  std::string line;
  const int64_t t0 = NowNs();
  {
    auto span = trace.Open(kServeRtt);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return ex;
    }
    timeval timeout{60, 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    bool sent = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
    for (size_t off = 0; sent && off < frame.size();) {
      const ssize_t n = ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      sent = n > 0;
      off += n > 0 ? static_cast<size_t>(n) : 0;
    }
    char buf[65536];
    while (sent && (line.empty() || line.back() != '\n')) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        break;
      }
      line.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);
  }
  ex.rtt_s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (line.empty() || line.back() != '\n') {
    return ex;
  }
  line.pop_back();
  ex.reply_bytes = line.size();
  auto span = trace.Open(kJsonParse);
  StatusOr<json::Value> parsed = json::Parse(line);
  if (parsed.ok()) {
    ex.ok = true;
    ex.reply = std::move(parsed).value();
  }
  return ex;
}

// Non-info, non-host metrics: the values a report's correctness rests on.
std::string CheckedMetrics(const json::Value& metrics) {
  json::Value out = json::Value::Object();
  for (const auto& [name, m] : metrics.members()) {
    if (m.StringOr("kind", "") != "info" && !m.BoolOr("host", false)) {
      out.Set(name, m.NumberOr("value", NAN));
    }
  }
  return out.Dump(0);
}

// One client operation: a run_cell request, or a submit followed by a wait.
struct Op {
  std::string workload;
  std::string cell;  // empty = submit + wait
  json::Value request;
  std::string expect;  // run_cell: payload dump; job: checked-metrics dump
  double inproc_s = 0;
};

// The job ops submit this quick workload: ~50 ms of engine work whose wait
// reply carries ~20 KB of metrics and cell timings.
constexpr const char* kJobWorkload = "server_workload";

// Submit+wait jobs per pass, beside the run_cell requests.
constexpr size_t kJobsPerPass = 4;

// One pass of the request mix: every fig4/fig5 cell and every tenant-sweep
// cell up to 100 tenants once, plus kJobsPerPass jobs, in seeded order. The
// composition, and so the work per pass, is the same for every seed; the
// seed orders it and is the figure cells' synthesis seed.
std::vector<Op> MakeMix(uint64_t seed, const eval::WorkloadOptions& options) {
  std::vector<Op> ops;
  for (const char* w : {"fig4_callret", "fig5_indirect", "server_workload"}) {
    for (const eval::WorkloadCell& cell : suite::FindSuiteWorkload(w)->cells(options)) {
      // Tenant cells above 100 tenants take far longer than a figure cell.
      const size_t t = cell.name.find("/t");
      if (t != std::string::npos && std::stoi(cell.name.substr(t + 2)) > 100) {
        continue;
      }
      Op op;
      op.workload = w;
      op.cell = cell.name;
      op.request = json::Value::Object();
      op.request.Set("cmd", "run_cell");
      op.request.Set("workload", op.workload);
      op.request.Set("cell", op.cell);
      op.request.Set("seed", static_cast<double>(options.experiment.seed));
      ops.push_back(std::move(op));
    }
  }
  for (size_t i = 0; i < kJobsPerPass; ++i) {
    Op op;
    op.workload = kJobWorkload;
    op.request = json::Value::Object();
    op.request.Set("cmd", "submit");
    op.request.Set("workload", op.workload);
    op.request.Set("quick", true);
    ops.push_back(std::move(op));
  }
  std::mt19937_64 rng(seed);
  for (size_t i = ops.size() - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng() % (i + 1)]);
  }
  return ops;
}

// In-process reference for every distinct op: the registered cell's output
// (and its warm run time, after a first run fills the caches the daemon
// keeps warm too), or the quick job's checked metrics.
void ComputeReferences(std::vector<Op>& ops, const eval::WorkloadOptions& options,
                       int workers) {
  eval::EngineOptions engine_options;
  engine_options.jobs = workers;
  eval::CampaignEngine engine(&suite::SuiteRegistry(), engine_options);
  std::map<std::string, std::pair<std::string, double>> done;
  for (Op& op : ops) {
    const std::string key = op.workload + "/" + op.cell;
    auto it = done.find(key);
    if (it == done.end()) {
      std::string expect;
      double seconds = 0;
      if (op.cell.empty()) {
        eval::WorkloadOptions quick;
        quick.quick = true;
        const int64_t t0 = NowNs();
        const eval::JobReport* report = engine.Wait(engine.Submit(op.workload, quick));
        seconds = static_cast<double>(NowNs() - t0) * 1e-9;
        expect = report == nullptr ? "" : CheckedMetrics(report->report.metrics());
      } else {
        eval::WorkloadOptions wo = options;
        wo.experiment.jobs = 1;
        for (const eval::WorkloadCell& cell : suite::FindSuiteWorkload(op.workload)->cells(wo)) {
          if (cell.name == op.cell) {
            expect = cell.run(wo).Dump(0);
            const int64_t t0 = NowNs();
            (void)cell.run(wo);
            seconds = static_cast<double>(NowNs() - t0) * 1e-9;
          }
        }
      }
      it = done.emplace(key, std::make_pair(expect, seconds)).first;
    }
    op.expect = it->second.first;
    op.inproc_s = it->second.second;
  }
}

struct OpResult {
  bool ok = false;
  double latency_s = 0;
  double overhead_s = 0;  // round trips minus the same op's in-process time
  size_t reply_bytes = 0;
};

OpResult RunOp(const std::string& socket_path, const Op& op, Trace& trace) {
  OpResult r;
  const int64_t t0 = NowNs();
  Exchange ex = Roundtrip(socket_path, op.request, trace);
  double rtt = ex.rtt_s;
  if (op.cell.empty() && ex.ok && ex.reply.BoolOr("ok", false)) {
    json::Value wait = json::Value::Object();
    wait.Set("cmd", "wait");
    wait.Set("job", ex.reply.NumberOr("job", 0));
    ex = Roundtrip(socket_path, wait, trace);
    rtt += ex.rtt_s;
  }
  r.latency_s = static_cast<double>(NowNs() - t0) * 1e-9;
  r.overhead_s = rtt - op.inproc_s;
  r.reply_bytes = ex.reply_bytes;
  if (!ex.ok || !ex.reply.BoolOr("ok", false)) {
    return r;
  }
  if (op.cell.empty()) {
    const json::Value* job = ex.reply.Find("job");
    const json::Value* metrics = ex.reply.Find("metrics");
    r.ok = job != nullptr && job->StringOr("state", "") == "done" &&
           job->NumberOr("status", 1) == 0 && metrics != nullptr &&
           CheckedMetrics(*metrics) == op.expect;
  } else {
    const json::Value* payload = ex.reply.Find("payload");
    char crc[17];
    if (payload != nullptr) {
      std::snprintf(crc, sizeof(crc), "%016llx",
                    static_cast<unsigned long long>(eval::ServeFrameDigest(payload->Dump(0))));
    }
    r.ok = payload != nullptr && ex.reply.StringOr("crc", "") == crc &&
           payload->Dump(0) == op.expect;
  }
  return r;
}

bool Ping(const std::string& socket_path, Trace& trace) {
  json::Value ping = json::Value::Object();
  ping.Set("cmd", "ping");
  const Exchange ex = Roundtrip(socket_path, ping, trace);
  return ex.ok && ex.reply.BoolOr("ok", false);
}

// utime + stime of another process, in seconds (proc(5) fields 14 and 15).
double ChildCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; fields >> field; ++i) {
    if (i == 14 || i == 15) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
    if (i == 15) {
      break;
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ChildPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Stops the daemon: a shutdown request, then SIGKILL if it has not exited
// within five seconds. Always reaps it.
void StopDaemon(pid_t pid, const std::string& socket_path) {
  Trace off(false);
  json::Value shutdown = json::Value::Object();
  shutdown.Set("cmd", "shutdown");
  (void)Roundtrip(socket_path, shutdown, off);
  for (int i = 0; i < 500; ++i) {
    if (waitpid(pid, nullptr, WNOHANG) == pid) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
}

// Spawns the daemon and pings it until it answers. Returns the seconds
// from spawn to the first successful ping, or -1 (the daemon is reaped).
// The daemon is killed if msbench dies first, so it never outlives a run.
// vfork keeps the spawn cost independent of msbench's own size.
double SpawnDaemon(const std::string& cli, const std::string& socket_path, int workers,
                   pid_t* pid) {
  const int64_t spawn_ns = NowNs();
  std::vector<std::string> argv_s = {cli, "serve", "--socket", socket_path, "--jobs",
                                     std::to_string(workers), "--quiet"};
  std::vector<char*> argv;
  for (std::string& s : argv_s) {
    argv.push_back(s.data());
  }
  argv.push_back(nullptr);
  const pid_t parent = getpid();
  *pid = vfork();
  if (*pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == parent) {
      execv(cli.c_str(), argv.data());
    }
    _exit(127);
  }
  if (*pid < 0) {
    std::fprintf(stderr, "msbench: cannot spawn %s\n", cli.c_str());
    return -1;
  }
  Trace off(false);
  while (NowNs() - spawn_ns < 30'000'000'000) {
    if (Ping(socket_path, off)) {
      return static_cast<double>(NowNs() - spawn_ns) * 1e-9;
    }
    if (waitpid(*pid, nullptr, WNOHANG) == *pid) {
      std::fprintf(stderr, "msbench: %s serve exited before answering a ping\n", cli.c_str());
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  kill(*pid, SIGKILL);
  waitpid(*pid, nullptr, 0);
  std::fprintf(stderr, "msbench: daemon never answered a ping\n");
  return -1;
}

int ServiceMain(const Args& args) {
  const uint64_t seed = args.U64("--seed", eval::ExperimentOptions{}.seed);
  const int workers = static_cast<int>(args.U64("--workers", 2));
  const std::string cli = args.Str("--cli");
  const std::string socket_path = args.Str("--socket");
  const double seconds = static_cast<double>(args.U64("--seconds", 10));
  const bool trace_on = args.U64("--trace", 0) != 0;
  const size_t inject_fail = args.U64("--inject-fail", 0);
  if (cli.empty() || socket_path.empty()) {
    std::fprintf(stderr, "msbench: service needs --cli and --socket\n");
    return 2;
  }

  eval::WorkloadOptions options;
  options.experiment.seed = seed;
  std::vector<Op> ops = MakeMix(seed, options);
  ComputeReferences(ops, options, workers);
  for (size_t i = 0, injected = 0; i < ops.size() && injected < inject_fail; ++i) {
    if (!ops[i].cell.empty()) {
      // A request the daemon must refuse (unknown cell): counts as failed.
      ops[i].request.Set("cell", "no-such-cell");
      ++injected;
    }
  }

  // Set-up time (daemon spawn -> first successful ping) is sampled over
  // several daemon lifetimes; the last daemon serves the load.
  std::vector<double> setup_s;
  pid_t pid = 0;
  for (int i = 0; i < 7; ++i) {
    if (i > 0) {
      StopDaemon(pid, socket_path);
    }
    setup_s.push_back(SpawnDaemon(cli, socket_path, workers, &pid));
    if (setup_s.back() < 0) {
      return 1;
    }
  }
  Trace setup_trace(false);

  // Idle ping latency, before any load.
  std::vector<double> idle_ping_ms;
  for (int i = 0; i < 30; ++i) {
    const int64_t t0 = NowNs();
    (void)Ping(socket_path, setup_trace);
    idle_ping_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
  }

  // Two closed-loop clients drain one pass of the mix. The first pass warms
  // the daemon (its caches, like a resident server's) and is not measured.
  // A traced run alternates traced and untraced passes, so the difference of
  // their walls is the tracing overhead.
  Trace client_traces[2] = {Trace(false), Trace(false)};
  std::vector<OpResult> results(ops.size());
  const auto run_pass = [&]() {
    std::atomic<size_t> next{0};
    std::thread clients[2];
    for (int c = 0; c < 2; ++c) {
      clients[c] = std::thread([&, c] {
        for (size_t i = next++; i < ops.size(); i = next++) {
          results[i] = RunOp(socket_path, ops[i], client_traces[c]);
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
  };
  run_pass();

  // Open-loop ping prober at kPingHz: ping k is due at start + k/kPingHz and
  // is timed from its due time, so a stall also delays the pings queued
  // behind it. kProbers threads take turns, so one slow ping does not hold
  // back the schedule; lateness is how far a prober started past a due time.
  constexpr double kPingHz = 20;
  constexpr int kProbers = 4;
  std::atomic<bool> probing{true};
  std::vector<double> ping_ms[kProbers], ping_late_ms[kProbers];
  std::atomic<bool> pings_ok{true};
  Trace ping_trace[kProbers] = {Trace(false), Trace(false), Trace(false), Trace(false)};
  std::vector<std::thread> probers;
  const int64_t probe_start = NowNs();
  for (int k = 0; k < kProbers; ++k) {
    probers.emplace_back([&, k] {
      for (int64_t n = k; probing; n += kProbers) {
        const int64_t due =
            probe_start + static_cast<int64_t>(static_cast<double>(n) * 1e9 / kPingHz);
        const int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        if (!probing) {
          break;
        }
        ping_late_ms[k].push_back(static_cast<double>(NowNs() - due) * 1e-6);
        if (!Ping(socket_path, ping_trace[k])) {
          pings_ok = false;
        }
        ping_ms[k].push_back(static_cast<double>(NowNs() - due) * 1e-6);
      }
    });
  }

  std::vector<double> wall_s, cpu_s, op_ms, overhead_ms, reply_bytes, traced_wall_s;
  uint64_t attempted = 0, failed = 0;
  const int64_t start = NowNs();
  for (size_t pass = 0; pass < 2 || static_cast<double>(NowNs() - start) * 1e-9 < seconds;
       ++pass) {
    const bool traced = trace_on && pass % 2 == 1;
    for (Trace& t : client_traces) {
      t.set_on(traced);
    }
    const double cpu0 = ChildCpuSeconds(pid);
    const int64_t t0 = NowNs();
    run_pass();
    (traced ? traced_wall_s : wall_s).push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    cpu_s.push_back(ChildCpuSeconds(pid) - cpu0);
    for (size_t i = 0; i < ops.size(); ++i) {
      ++attempted;
      failed += results[i].ok ? 0 : 1;
      op_ms.push_back(results[i].latency_s * 1e3);
      if (!ops[i].cell.empty()) {
        overhead_ms.push_back(results[i].overhead_s * 1e3);
      }
      reply_bytes.push_back(static_cast<double>(results[i].reply_bytes));
    }
  }
  probing = false;
  for (std::thread& t : probers) {
    t.join();
  }
  std::vector<double> all_ping_ms, all_ping_late_ms;
  for (int k = 0; k < kProbers; ++k) {
    all_ping_ms.insert(all_ping_ms.end(), ping_ms[k].begin(), ping_ms[k].end());
    all_ping_late_ms.insert(all_ping_late_ms.end(), ping_late_ms[k].begin(),
                            ping_late_ms[k].end());
  }
  const double daemon_rss = ChildPeakRssMb(pid);
  StopDaemon(pid, socket_path);

  json::Value out = json::Value::Object();
  out.Set("setup_s", NumberArray(setup_s));
  out.Set("wall_s", NumberArray(wall_s));
  out.Set("cpu_s", NumberArray(cpu_s));
  out.Set("ops_per_pass", static_cast<uint64_t>(ops.size()));
  out.Set("op_ms", NumberArray(op_ms));
  out.Set("attempted", attempted);
  out.Set("failed", failed + (pings_ok ? 0 : 1));
  out.Set("idle_ping_ms", NumberArray(idle_ping_ms));
  out.Set("ping_ms", NumberArray(all_ping_ms));
  out.Set("ping_late_ms", NumberArray(all_ping_late_ms));
  out.Set("peak_rss_mb", daemon_rss);
  if (trace_on) {
    std::vector<const Trace*> traces = {&client_traces[0], &client_traces[1]};
    json::Value layer = json::Value::Object();
    json::Value self_s = LayerTimes(traces);
    const double op_count = static_cast<double>(std::max<uint64_t>(attempted, 1));
    json::Value per_op = json::Value::Object();
    for (const char* name : {"base.json.dump", "base.json.parse"}) {
      per_op.Set(name, self_s.NumberOr(name, 0) / op_count);
    }
    layer.Set("self_s_per_op", std::move(per_op));
    layer.Set("overhead_ms", NumberArray(overhead_ms));
    layer.Set("reply_bytes", NumberArray(reply_bytes));
    std::vector<double> rtt_ms;
    for (const Trace* t : traces) {
      for (const Span& s : t->spans()) {
        if (s.layer == kServeRtt) {
          rtt_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
        }
      }
    }
    layer.Set("rtt_ms", NumberArray(rtt_ms));
    layer.Set("traced_wall_s", NumberArray(traced_wall_s));
    WriteTraceFile(args.Str("--trace-out"), traces);
    out.Set("layer", std::move(layer));
  }
  std::printf("%s\n", out.Dump(0).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "pass" && argc > 2) {
    return PassMain(argv[2], Args(argc, argv, 3));
  }
  if (command == "service") {
    return ServiceMain(Args(argc, argv, 2));
  }
  std::fprintf(stderr,
               "usage: msbench pass figures|tenants --seed N --workers W --t0-ns T "
               "[--trace 1 --trace-out PATH]\n"
               "       msbench service --seed N --workers W --cli PATH --socket PATH --seconds S "
               "[--trace 1 --trace-out PATH] [--inject-fail K]\n");
  return 2;
}
