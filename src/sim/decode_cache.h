// A shared, reference-counted cache of DecodedModules, keyed by module
// *content* (ModuleContentDigest) × cost-model digest × ymm reservation.
// The first caller for a key builds, everyone else blocks on a
// shared_future for that key. Entries are shared_ptrs: eviction (LRU past
// `capacity`) only drops the cache's reference, so executors holding a
// decode keep it alive. Each decode records its content digest, so an
// Executor handed one accepts it for any content-identical module instance.
//
// The simulator no longer consults this cache: every Executor and server
// engine owns its decode (DESIGN.md §9 has the measurements). It remains
// for perfbench's traced rebuild (perfbench/msbench.cc), which reports
// decode hits and misses through it; it goes once that harness reads the
// engine's own spans.
//
// Content keying (not pointer + version keying) is deliberate: a global
// cache outlives the modules it decodes, and the heap reuses addresses —
// pointer identity checks would alias.
#ifndef MEMSENTRY_SRC_SIM_DECODE_CACHE_H_
#define MEMSENTRY_SRC_SIM_DECODE_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/ir/module.h"
#include "src/machine/cost_model.h"
#include "src/sim/decoded.h"

namespace memsentry::sim {

class Process;

struct DecodeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // each miss is exactly one lowering
  uint64_t evictions = 0;
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// FNV-1a digest of the cost model's byte image (the same bytes
// DecodedModule::CostMatches memcmps).
uint64_t CostModelDigest(const machine::CostModel& cost);

class DecodeCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit DecodeCache(size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  // The process-wide instance (perfbench's traced rebuild).
  static DecodeCache& Global();

  // Returns the decoded form of (module, process's cost model), building it
  // on first use. Thread-safe; concurrent callers with the same key get the
  // same shared_ptr and only one of them runs DecodedModule::Build. When
  // `was_hit` is non-null it reports whether this call found a ready (or
  // in-flight) entry.
  std::shared_ptr<const DecodedModule> Get(const ir::Module& module, const Process& process,
                                           bool* was_hit = nullptr);

  DecodeCacheStats stats() const;
  void ResetStats();

  // Drops every cached entry (executors holding shared_ptrs are unaffected).
  void Clear();
  size_t size() const;

  size_t capacity() const { return capacity_; }
  void SetCapacity(size_t capacity);

 private:
  struct Key {
    uint64_t content = 0;
    uint64_t cost = 0;
    uint64_t instr_count = 0;
    bool ymm_reserved = false;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.content * 0x9E3779B97F4A7C15ULL;
      h ^= k.cost + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h ^= k.instr_count + (h << 6) + (h >> 2);
      return static_cast<size_t>(h ^ (k.ymm_reserved ? 0x5bd1e995 : 0));
    }
  };
  struct Entry {
    Key key;
    std::shared_future<std::shared_ptr<const DecodedModule>> decoded;
  };

  void EvictOverCapacityLocked();

  mutable std::mutex mutex_;
  size_t capacity_;
  // Front = most recently used. The map indexes into the list.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  DecodeCacheStats stats_;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_DECODE_CACHE_H_
