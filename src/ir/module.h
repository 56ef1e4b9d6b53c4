// IR containers: Module -> Function -> BasicBlock -> Instr, plus counting
// helpers used by tests and the benchmark harnesses.
#ifndef MEMSENTRY_SRC_IR_MODULE_H_
#define MEMSENTRY_SRC_IR_MODULE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/instr.h"

namespace memsentry::ir {

struct BasicBlock {
  std::vector<Instr> instrs;
};

struct Function {
  std::string name;
  std::vector<BasicBlock> blocks;

  uint64_t InstrCount() const {
    uint64_t n = 0;
    for (const auto& b : blocks) {
      n += b.instrs.size();
    }
    return n;
  }
};

struct Module {
  std::vector<Function> functions;
  int entry = 0;  // index of the entry function

  // The digest memo below is atomic (not copyable), so spell out the value
  // operations. Copies and moves drop the memo — they are setup-time
  // operations and the memo re-fills on the next content digest.
  Module() = default;
  Module(const Module& o) : functions(o.functions), entry(o.entry), version(o.version) {}
  Module& operator=(const Module& o) {
    functions = o.functions;
    entry = o.entry;
    version = o.version;
    digest_version_.store(~uint64_t{0}, std::memory_order_release);
    return *this;
  }
  Module(Module&& o) noexcept
      : functions(std::move(o.functions)), entry(o.entry), version(o.version) {}
  Module& operator=(Module&& o) noexcept {
    functions = std::move(o.functions);
    entry = o.entry;
    version = o.version;
    digest_version_.store(~uint64_t{0}, std::memory_order_release);
    return *this;
  }
  // Mutation counter for decode invalidation: PassManager bumps it
  // after every pass, and anything else that edits instructions should call
  // Touch() so a stale sim::DecodedModule is detected cheaply.
  uint64_t version = 0;

  void Touch() { ++version; }

  // Content-digest memo for sim::ModuleContentDigest: valid while the module
  // is at `digest_version` (Touch() implicitly invalidates it). Atomics so
  // concurrent digests of one shared module instance stay
  // race-free; the release/acquire pair orders the value under the version.
  uint64_t CachedDigest(uint64_t* out) const {
    const uint64_t at = digest_version_.load(std::memory_order_acquire);
    *out = digest_.load(std::memory_order_relaxed);
    return at;
  }
  void StoreDigest(uint64_t digest) const {
    digest_.store(digest, std::memory_order_relaxed);
    digest_version_.store(version, std::memory_order_release);
  }

  Function& EntryFunction() { return functions[static_cast<size_t>(entry)]; }

  uint64_t InstrCount() const {
    uint64_t n = 0;
    for (const auto& f : functions) {
      n += f.InstrCount();
    }
    return n;
  }

  // Counts instructions matching a predicate across the whole module.
  template <typename Pred>
  uint64_t CountIf(Pred pred) const {
    uint64_t n = 0;
    for (const auto& f : functions) {
      for (const auto& b : f.blocks) {
        for (const auto& i : b.instrs) {
          if (pred(i)) {
            ++n;
          }
        }
      }
    }
    return n;
  }

  int FindFunction(const std::string& name) const {
    for (size_t i = 0; i < functions.size(); ++i) {
      if (functions[i].name == name) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

 private:
  // ~0 marks "never digested" — version 0 modules digest on first ask.
  mutable std::atomic<uint64_t> digest_version_{~uint64_t{0}};
  mutable std::atomic<uint64_t> digest_{0};
};

// A stable reference to one instruction inside a module.
struct InstrRef {
  int function = 0;
  int block = 0;
  int index = 0;

  bool operator==(const InstrRef&) const = default;
};

}  // namespace memsentry::ir

#endif  // MEMSENTRY_SRC_IR_MODULE_H_
