// Decoded modules: the shared cache's content-addressed keying, single-build
// semantics under concurrent population and reference-counted survival
// across eviction; the Executor's own decode (cheap revalidation, lifetime,
// acceptance of content-identical cache decodes). The concurrency
// tests run the same population through ParallelMap at jobs in {1, 4,
// hardware} and demand identical lowering counts and bit-identical
// execution — scheduling must never change what got built.
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/thread_pool.h"
#include "src/ir/builder.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"
#include "src/sim/process.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry::sim {
namespace {

using ir::Builder;
using ir::Module;
using machine::Gpr;

// A small runnable program touching the working set; `salt` varies the
// immediate stream so distinct salts are distinct cache keys.
Module SaltedModule(uint64_t salt) {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kR9, kWorkingSetBase + 8 * (salt % 64));
  b.MovImm(Gpr::kRbx, 0x1000 + salt);
  b.Store(Gpr::kR9, Gpr::kRbx);
  b.Load(Gpr::kRcx, Gpr::kR9);
  b.AddImm(Gpr::kRcx, 7);
  b.Store(Gpr::kR9, Gpr::kRcx);
  b.Halt();
  return m;
}

class DecodeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(process_.SetupStack().ok());
    ASSERT_TRUE(process_.MapRange(kWorkingSetBase, 4, machine::PageFlags::Data()).ok());
  }

  Machine machine_;
  Process process_{&machine_};
};

TEST_F(DecodeCacheTest, ContentIdenticalModulesShareOneLowering) {
  DecodeCache cache;
  const Module a = SaltedModule(1);
  const Module b = SaltedModule(1);  // equal content, different instance
  bool hit = false;
  auto da = cache.Get(a, process_, &hit);
  EXPECT_FALSE(hit);
  auto db = cache.Get(b, process_, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(da.get(), db.get());  // literally the same lowering
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(DecodeCacheTest, ContentDigestSensitivity) {
  DecodeCache cache;
  const Module a = SaltedModule(1);
  Module b = SaltedModule(1);
  b.functions[0].blocks[0].instrs[1].imm ^= 1;  // one immediate differs
  b.Touch();
  (void)cache.Get(a, process_);
  (void)cache.Get(b, process_);
  EXPECT_EQ(cache.stats().misses, 2u) << "differing content must not share a key";

  // Touch() without editing invalidates the digest memo but not the key:
  // the recomputed digest matches and the entry hits.
  Module c = SaltedModule(1);
  c.Touch();
  c.Touch();
  bool hit = false;
  (void)cache.Get(c, process_, &hit);
  EXPECT_TRUE(hit);
}

TEST_F(DecodeCacheTest, CostModelDigestKeysSeparately) {
  DecodeCache cache;
  const Module m = SaltedModule(3);
  (void)cache.Get(m, process_);
  Machine other_machine;
  other_machine.cost.alu_slot += 1.0;
  Process other(&other_machine);
  bool hit = true;
  auto decoded = cache.Get(m, other, &hit);
  EXPECT_FALSE(hit) << "a different cost model must lower separately";
  EXPECT_EQ(cache.stats().misses, 2u);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->CostMatches(other));
  EXPECT_FALSE(decoded->CostMatches(process_));
}

TEST_F(DecodeCacheTest, EvictionKeepsHeldReferencesAlive) {
  DecodeCache cache(/*capacity=*/2);
  const Module m0 = SaltedModule(10);
  const Module m1 = SaltedModule(11);
  const Module m2 = SaltedModule(12);
  auto held = cache.Get(m0, process_);
  ASSERT_NE(held, nullptr);
  (void)cache.Get(m1, process_);
  (void)cache.Get(m2, process_);  // capacity 2: evicts the LRU entry (m0)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // The evicted lowering survives through the held reference.
  EXPECT_EQ(held->instr_count, m0.InstrCount());
  EXPECT_GT(held->functions.size(), 0u);
  // Re-requesting the evicted key lowers again.
  bool hit = true;
  (void)cache.Get(m0, process_, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 4u);
}

// The determinism contract under the PR 2 thread pool: for any jobs value,
// concurrent population performs exactly one lowering per distinct key, and
// every caller gets the same shared lowering.
TEST_F(DecodeCacheTest, ConcurrentPopulationLowersOncePerKey) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> jobs_values = {1, 4, hw > 0 ? hw : 8};
  constexpr size_t kDistinct = 4;
  constexpr size_t kCallers = 32;
  std::vector<Module> modules;
  for (size_t i = 0; i < kCallers; ++i) {
    modules.push_back(SaltedModule(i % kDistinct));
  }
  for (int jobs : jobs_values) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    DecodeCache cache;
    auto decoded = ParallelMap(jobs, kCallers, [&](size_t i) {
      return cache.Get(modules[i], process_);
    });
    ASSERT_EQ(decoded.size(), kCallers);
    EXPECT_EQ(cache.stats().misses, kDistinct) << "one lowering per key, any schedule";
    EXPECT_EQ(cache.stats().hits, kCallers - kDistinct);
    for (size_t i = 0; i < kCallers; ++i) {
      ASSERT_NE(decoded[i], nullptr);
      // Same key => same lowering object, regardless of which thread built it.
      EXPECT_EQ(decoded[i].get(), decoded[i % kDistinct].get());
    }
  }
}

// Executions through cache-shared lowerings are bit-identical to a private
// decode: same instruction counts, same cycle doubles.
TEST_F(DecodeCacheTest, SharedLoweringExecutesBitIdentically) {
  const Module m = SaltedModule(5);
  RunResult reference;
  {
    Executor executor(&process_, &m);
    reference = executor.Run({});
  }
  const auto jobs_values = {1, 4};
  for (int jobs : jobs_values) {
    auto results = ParallelMap(jobs, 4, [&](size_t i) {
      // Each caller executes on its own machine (tasks must not share
      // mutable state); the module content is shared.
      Machine machine;
      Process process(&machine);
      EXPECT_TRUE(process.SetupStack().ok());
      EXPECT_TRUE(process.MapRange(kWorkingSetBase, 4, machine::PageFlags::Data()).ok());
      Module local = SaltedModule(5);
      Executor executor(&process, &local);
      (void)i;
      return executor.Run({});
    });
    for (const RunResult& r : results) {
      EXPECT_EQ(r.instructions, reference.instructions);
      EXPECT_EQ(r.cycles, reference.cycles);
      EXPECT_EQ(r.halted, reference.halted);
      EXPECT_EQ(r.loads, reference.loads);
      EXPECT_EQ(r.stores, reference.stores);
    }
  }
}

// Executor::EnsureDecoded revalidates its own decode by (instance,
// version): repeated runs keep it, and only a real content change forces a
// new lowering.
TEST_F(DecodeCacheTest, ExecutorRevalidatesWithoutRelowering) {
  Module m = SaltedModule(21);
  Executor executor(&process_, &m);
  (void)executor.Run({});
  const std::shared_ptr<const DecodedModule> first = executor.decoded();
  ASSERT_NE(first, nullptr);
  (void)executor.Run({});  // same module instance + version: no new lowering
  EXPECT_EQ(executor.decoded().get(), first.get());

  m.functions[0].blocks[0].instrs[1].imm ^= 2;
  m.Touch();
  (void)executor.Run({});  // stale: must re-lower
  EXPECT_NE(executor.decoded().get(), first.get());
  EXPECT_EQ(executor.decoded()->module_version, m.version);
}

// An executor's decode is its own: nothing in the simulator keeps it
// resident once the executor is gone.
TEST_F(DecodeCacheTest, DecodeLivesNoLongerThanItsExecutor) {
  const Module m = SaltedModule(22);
  std::weak_ptr<const DecodedModule> decoded;
  {
    Executor executor(&process_, &m);
    (void)executor.Run({});
    decoded = executor.decoded();
    EXPECT_FALSE(decoded.expired());
  }
  EXPECT_TRUE(decoded.expired());
}

// A cache decode handed in through SetDecoded whose `source` is another,
// content-identical module instance runs as is: the executor checks the
// recorded content digest instead of lowering again.
TEST_F(DecodeCacheTest, ExecutorAcceptsContentIdenticalCacheDecode) {
  DecodeCache cache;
  const Module populating = SaltedModule(23);
  const Module m = SaltedModule(23);
  (void)cache.Get(populating, process_);
  bool hit = false;
  const auto shared = cache.Get(m, process_, &hit);
  ASSERT_TRUE(hit);
  ASSERT_NE(shared->source, &m);
  Executor executor(&process_, &m);
  executor.SetDecoded(shared);
  (void)executor.Run({});
  EXPECT_EQ(executor.decoded().get(), shared.get());

  // A private decode of another instance records no digest: rebuilt.
  Executor other(&process_, &m);
  other.SetDecoded(DecodedModule::Build(populating, process_));
  (void)other.Run({});
  EXPECT_EQ(other.decoded()->source, &m);
}

// Decode allocates each µop array at its exact final size: a decode stays
// resident for its whole run, so reserved-but-unused capacity would be held
// that long.
TEST_F(DecodeCacheTest, DecodedArraysCarryNoSlack) {
  workloads::SynthOptions synth;
  synth.target_instructions = 20'000;
  const Module m = workloads::SynthesizeSpecProgram(*workloads::FindProfile("445.gobmk"), synth);
  const auto decoded = DecodedModule::Build(m, process_);
  size_t uops = 0;
  size_t regops = 0;
  for (const DecodedFunction& f : decoded->functions) {
    EXPECT_EQ(f.uops.capacity(), f.uops.size());
    EXPECT_EQ(f.regops.capacity(), f.regops.size());
    uops += f.uops.size();
    regops += f.regops.size();
  }
  EXPECT_GT(regops, uops) << "most instructions should fuse into RegOps";
}

}  // namespace
}  // namespace memsentry::sim
