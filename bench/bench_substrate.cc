// google-benchmark microbenchmarks of the substrates themselves (host-side
// performance of the simulator, not simulated cycles): page walks, TLB,
// AES, physical-memory lookups, EPT translation, executor throughput. A
// plain google-benchmark binary, outside the suite and its gate:
//
//   build/bench/bench_substrate --benchmark_min_time=0.01
#include <benchmark/benchmark.h>

#include <memory>

#include "src/aes/aes128.h"
#include "src/ir/builder.h"
#include "src/machine/mmu.h"
#include "src/sim/executor.h"
#include "src/vmx/ept.h"
#include "src/workloads/synth.h"

namespace memsentry {
namespace {

void BM_PageTableWalk(benchmark::State& state) {
  machine::PhysicalMemory pmem(1 << 16);
  machine::PageTable pt(&pmem);
  (void)pt.MapNew(0x4000, machine::PageFlags::Data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(0x4000));
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_MmuTlbHit(benchmark::State& state) {
  machine::PhysicalMemory pmem(1 << 16);
  machine::CostModel cost;
  machine::PageTable pt(&pmem);
  machine::Mmu mmu(&pmem, &cost);
  mmu.SetPageTable(&pt);
  (void)pt.MapNew(0x4000, machine::PageFlags::Data());
  machine::Pkru pkru;
  (void)mmu.Access(0x4000, machine::AccessType::kRead, pkru);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmu.Access(0x4000, machine::AccessType::kRead, pkru));
  }
}
BENCHMARK(BM_MmuTlbHit);

void BM_AesEncryptBlock(benchmark::State& state) {
  const aes::KeySchedule keys = aes::ExpandKey(aes::Block{1, 2, 3, 4});
  aes::Block block{9, 8, 7};
  for (auto _ : state) {
    block = aes::EncryptBlock(block, keys);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

// The crypt technique expands one schedule per region key and the server
// workload one per handshake.
void BM_AesExpandKey(benchmark::State& state) {
  aes::Block key{1, 2, 3, 4};
  for (auto _ : state) {
    const aes::KeySchedule keys = aes::ExpandKey(key);
    key = keys[aes::kNumRounds];
    benchmark::DoNotOptimize(key);
  }
}
BENCHMARK(BM_AesExpandKey);

// One 64-bit physical read per iteration, striding over 20k materialized
// frames: the access pattern of a 10k-tenant server, where every tenant's
// scratch and secret pages are touched in ASID order and no small set of
// frames stays hot.
void BM_PhysMemScatteredRead64(benchmark::State& state) {
  constexpr uint64_t kFrames = 20'000;
  constexpr uint64_t kStride = 7'919;  // prime: visits every frame once per cycle
  machine::PhysicalMemory pmem(1 << 16);
  for (uint64_t f = 1; f <= kFrames; ++f) {
    pmem.Write64((f << kPageShift) + 8, f);
  }
  uint64_t f = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pmem.Read64((f << kPageShift) + 8));
    f += kStride;
    if (f > kFrames) {
      f -= kFrames;
    }
  }
}
BENCHMARK(BM_PhysMemScatteredRead64);

void BM_EptTranslate(benchmark::State& state) {
  machine::PhysicalMemory pmem(1 << 16);
  vmx::Ept ept(&pmem);
  (void)ept.Map(0x5000, 0x9000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ept.Translate(0x5123, machine::AccessType::kRead));
  }
}
BENCHMARK(BM_EptTranslate);

void BM_ExecutorThroughput(benchmark::State& state) {
  const auto& profile = workloads::SpecCpu2006()[0];
  workloads::SynthOptions synth;
  synth.target_instructions = 100'000;
  const ir::Module module = workloads::SynthesizeSpecProgram(profile, synth);
  // Decode once and share: the executor validates the decode against the
  // live (module, cost model) state each Run, so this measures steady-state
  // interpreter throughput rather than per-iteration decode cost.
  std::shared_ptr<const sim::DecodedModule> decoded;
  for (auto _ : state) {
    sim::Machine machine;
    sim::Process process(&machine);
    (void)workloads::PrepareWorkloadProcess(process, profile);
    sim::Executor executor(&process, &module);
    if (decoded == nullptr) {
      decoded = sim::DecodedModule::Build(module, process);
    }
    executor.SetDecoded(decoded);
    auto result = executor.Run();
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(result.instructions));
  }
}
BENCHMARK(BM_ExecutorThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace memsentry

BENCHMARK_MAIN();
