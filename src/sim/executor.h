// The executor: interprets MemSentry IR against a Process, enforcing every
// isolation mechanism architecturally (page permissions, protection keys,
// EPT presence, MPX bounds, enclave membership, encryption state) and
// accruing cycles through the cost model. Architectural faults terminate the
// run and are reported in the result — they are the observable evidence that
// deterministic isolation held.
#ifndef MEMSENTRY_SRC_SIM_EXECUTOR_H_
#define MEMSENTRY_SRC_SIM_EXECUTOR_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/base/arena.h"
#include "src/base/types.h"
#include "src/ir/module.h"
#include "src/machine/fault.h"
#include "src/sim/decoded.h"
#include "src/sim/process.h"

namespace memsentry::sim {

struct RunConfig {
  uint64_t max_instructions = 500'000'000;
  // Dynamic (PIN-style) points-to profiling: record which instructions
  // touched a safe region (paper Section 5.5).
  bool record_safe_accesses = false;
};

// Packs an instruction position for the profiling set.
constexpr uint64_t PackRef(int func, int block, int index) {
  return (static_cast<uint64_t>(func) << 40) | (static_cast<uint64_t>(block) << 20) |
         static_cast<uint64_t>(index);
}

// Where a budget-limited run stopped: the next instruction to execute plus
// the live call depth. Mode-portable by construction — the decoded
// interpreter maps mid-fused-run µop offsets back to their source
// (block, index), so a cursor saved under any MEMSENTRY_FASTPATH mode
// resumes under any other.
struct RunCursor {
  bool valid = false;
  int func = 0;
  int block = 0;
  int index = 0;
  int call_depth = 0;
};

struct RunResult {
  uint64_t instructions = 0;
  Cycles cycles = 0;
  bool halted = false;                   // reached kHalt (or returned from entry)
  bool trapped = false;                  // a defense's kTrap fired
  bool hit_instruction_limit = false;
  std::optional<machine::Fault> fault;   // architectural fault stopped the run

  // Breakdown.
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t calls = 0;
  uint64_t rets = 0;
  uint64_t indirect_calls = 0;
  uint64_t syscalls = 0;
  uint64_t domain_switches = 0;          // wrpkru/vmfunc/crypt/ecall/mprotect events
  uint64_t instrumentation_instrs = 0;
  Cycles instrumentation_cycles = 0;

  // Populated whenever the run exits with hit_instruction_limit; feeds
  // Executor::Resume and the snapshot layer.
  RunCursor cursor;

  // Populated when profiling. An unordered set keeps the hot-path insert
  // O(1); consumers that need a stable order (annotation passes, reports)
  // take the sorted view below instead of iterating the raw set.
  std::unordered_set<uint64_t> safe_access_refs;

  std::vector<uint64_t> SortedSafeAccessRefs() const {
    std::vector<uint64_t> refs(safe_access_refs.begin(), safe_access_refs.end());
    std::sort(refs.begin(), refs.end());
    return refs;
  }

  double Cpi() const {
    return instructions == 0 ? 0.0 : cycles / static_cast<double>(instructions);
  }
};

class Executor {
 public:
  Executor(Process* process, const ir::Module* module)
      : process_(process), module_(module), cost_(&process->machine().cost) {}

  // Interprets the module until halt/trap/fault/instruction limit. Under
  // base::FastPathMode::kOn (the default) this runs the pre-decoded µop
  // stream — bit-identical to the reference interpreter by construction;
  // kOff runs the reference loop; kCheck runs the µop stream with every
  // dispatched µop re-derived from its source instruction (aborting on any
  // divergence).
  RunResult Run(const RunConfig& config = {});

  // Continues a run that previously stopped at its instruction budget.
  // `partial` must carry hit_instruction_limit and a valid cursor, and the
  // process must hold the machine state from that exact moment (typically
  // restored via sim/snapshot). config.max_instructions is the TOTAL budget
  // including instructions already executed; the continuation performs the
  // same sequence of state updates and cycle additions as an uninterrupted
  // run, so run(N+M) == run(N); save; load; resume(M) bit for bit. A
  // `partial` that already finished (or whose cursor no longer names a valid
  // instruction of this module) is returned unchanged — the latter with a
  // #GP fault recorded.
  RunResult Resume(const RunConfig& config, const RunResult& partial);

  // Hands this executor a pre-built decoded form, so harnesses constructing
  // a fresh Executor per run don't re-decode each time. Validated against
  // the live (module, cost model, ymm) state before use; rebuilt if stale.
  void SetDecoded(std::shared_ptr<const DecodedModule> decoded) { decoded_ = std::move(decoded); }
  const std::shared_ptr<const DecodedModule>& decoded() const { return decoded_; }

 private:
  RunResult RunReference(const RunConfig& config, const RunResult* resume);
  RunResult RunDecoded(const RunConfig& config, bool check, const RunResult* resume);

  // Makes decoded_ valid for the live (module, cost model, ymm) state,
  // building this executor's own decode when it holds none or a stale one.
  // The decode lives as long as the executor (and whoever else holds it).
  void EnsureDecoded();

  Process* process_;
  const ir::Module* module_;
  const machine::CostModel* cost_;
  std::shared_ptr<const DecodedModule> decoded_;
  // Transient per-event scratch (AES crypt staging); bump-allocated so the
  // hot loop stops hitting the general heap once the first chunk warms up.
  base::Arena arena_;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_EXECUTOR_H_
