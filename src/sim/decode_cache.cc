#include "src/sim/decode_cache.h"

#include <chrono>
#include <cstring>

#include "src/sim/process.h"

namespace memsentry::sim {
namespace {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

}  // namespace

uint64_t CostModelDigest(const machine::CostModel& cost) {
  // Digest the same byte image DecodedModule::CostMatches memcmps, so two
  // processes compare equal iff they digest equal.
  uint8_t bytes[sizeof(machine::CostModel)];
  std::memcpy(bytes, &cost, sizeof(bytes));
  uint64_t h = kFnvOffset;
  for (uint8_t byte : bytes) {
    h = (h ^ byte) * kFnvPrime;
  }
  return h;
}

DecodeCache& DecodeCache::Global() {
  static DecodeCache* cache = new DecodeCache();  // leaked: outlives all executors
  return *cache;
}

std::shared_ptr<const DecodedModule> DecodeCache::Get(const ir::Module& module,
                                                      const Process& process, bool* was_hit) {
  Key key;
  key.content = ModuleContentDigest(module);
  key.cost = CostModelDigest(process.machine().cost);
  key.instr_count = module.InstrCount();
  key.ymm_reserved = process.ymm_reserved();

  std::shared_future<std::shared_ptr<const DecodedModule>> future;
  std::promise<std::shared_ptr<const DecodedModule>> promise;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
      future = it->second->decoded;
    } else {
      ++stats_.misses;
      if (was_hit != nullptr) {
        *was_hit = false;
      }
      future = promise.get_future().share();
      lru_.push_front(Entry{key, future});
      index_[key] = lru_.begin();
      build_here = true;
      EvictOverCapacityLocked();
    }
  }
  if (build_here) {
    // Built outside the lock: a slow decode must not serialize unrelated
    // keys. Racing callers for this key block on the shared_future.
    try {
      promise.set_value(DecodedModule::Build(module, process, key.content));
    } catch (...) {
      promise.set_exception(std::current_exception());  // unblock waiters
      throw;
    }
  }
  return future.get();
}

void DecodeCache::EvictOverCapacityLocked() {
  // Walk from least- to most-recently-used, dropping ready entries until
  // back under capacity. In-flight builds are never evicted: dropping one
  // would let a racing Get start a second lowering for the same key.
  auto it = lru_.end();
  while (lru_.size() > capacity_ && it != lru_.begin()) {
    --it;
    if (it->decoded.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      continue;
    }
    index_.erase(it->key);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

DecodeCacheStats DecodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void DecodeCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = DecodeCacheStats{};
}

void DecodeCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

size_t DecodeCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void DecodeCache::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  EvictOverCapacityLocked();
}

}  // namespace memsentry::sim
