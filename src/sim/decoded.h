// Pre-decoded µop streams for the executor's hot loop. A DecodedModule
// lowers every function into a dense, flat µop array: branch targets are
// pre-resolved to flat indices, register numbers are pre-bound, and the
// static per-instruction cycle costs (including the instrumentation/critical
// flag outcomes) are pre-computed against the active CostModel. Maximal runs
// of straight-line instructions — pure-register ops and, since PR 7,
// kLoad/kStore — fuse into a single superblock µop whose RegOps the
// interpreter replays back-to-back without touching the dispatch loop;
// fused memory ops ride the MMU grant cache and bail out of the run on a
// verdict miss or TLB-version tick.
//
// Bit-identity by construction: fused execution performs the *same sequence
// of floating-point additions* to the cycle accumulator as the reference
// interpreter — per-op, in order, never pre-summed (the cost model's
// non-dyadic values make (a+b)+c != a+(b+c) in general, and the
// instrumentation-cycle delta depends on the live accumulator). Decoding
// changes how the adds are driven, never their operands or order.
#ifndef MEMSENTRY_SRC_SIM_DECODED_H_
#define MEMSENTRY_SRC_SIM_DECODED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/module.h"
#include "src/machine/cost_model.h"

namespace memsentry::sim {

class Process;

// Dispatch handler index, pre-resolved at decode so the interpreter's
// dispatch (computed-goto table or portable switch) is a single indexed
// jump with no opcode re-classification. kHFused covers every fused run;
// kHGuard is the synthetic block-end guard; the rest map 1:1 onto the
// non-fusible opcodes.
enum UopHandler : uint8_t {
  kHFused = 0,
  kHGuard,
  kHLoad,
  kHStore,
  kHJmp,
  kHCondBr,
  kHCall,
  kHIndirectCall,
  kHRet,
  kHHalt,
  kHSyscall,
  kHMprotect,
  kHBndcu,
  kHBndcl,
  kHWrpkru,
  kHRdpkru,
  kHVmFunc,
  kHVmCall,
  kHMFence,
  kHAesCryptRegion,
  kHEnclaveEnter,
  kHEnclaveExit,
  kHTrap,
  kHTrapIf,
  kNumUopHandlers,
};

// One pre-resolved operation inside a fused run. `cost` and (when
// `has_extra`) `extra` are charged as two separate additions, exactly
// as the reference interpreter charges slot + critical-latency (kAndImm) or
// slot + ymm-reserve penalty (kVecOp). Since PR 7, fused runs extend across
// kLoad/kStore (`is_memory`): a fused memory op replays the full MMU access
// (grant probe, pricing, safe-access profiling) inline, and the run bails
// back to the dispatch loop the moment the op's grant verdict misses or the
// TLB version ticks — see Executor::RunDecoded.
struct RegOp {
  ir::Opcode op = ir::Opcode::kNop;
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t alu_kind = 0;  // kAluRR: imm & 3
  bool instrumentation = false;
  bool has_extra = false;
  bool is_memory = false;  // kLoad/kStore: grant-stability bailout applies
  double cost = 0;
  double extra = 0;
  uint64_t imm = 0;
  // Source position (block, index) for kCheck re-derivation.
  int32_t block = 0;
  int32_t index = 0;
};

// One µop. Either a fused run of RegOps (fused == true) or a single
// non-fusible instruction carrying its original opcode. A non-fused µop
// with op == kNop is a synthetic block-end guard replicating the reference
// interpreter's fetch-past-terminator #GP for unverified modules.
struct Uop {
  ir::Opcode op = ir::Opcode::kNop;
  uint8_t handler = kHGuard;  // pre-resolved dispatch index (UopHandler)
  bool fused = false;
  bool instrumentation = false;
  bool critical = false;
  bool has_extra = false;
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t flags = 0;
  uint64_t imm = 0;
  // kJmp/kCondBr: flat µop index of the taken target's block head.
  // kCall: callee function index. kIndirectCall and the rest: the original
  // instruction's target field.
  int32_t target = 0;
  // kCondBr only: flat µop index of the fall-through block head.
  int32_t fallthrough = 0;
  // Source position, for return-address encoding, safe-access profiling
  // refs and kCheck re-derivation.
  int32_t block = 0;
  int32_t index = 0;
  double cost = 0;   // pre-resolved first cycle addition
  double extra = 0;  // pre-resolved second addition (critical latency etc.)
  uint32_t fuse_start = 0;  // fused: first RegOp in DecodedFunction::regops
  uint32_t fuse_count = 0;  // fused: number of RegOps
};

struct DecodedFunction {
  std::vector<Uop> uops;
  std::vector<RegOp> regops;
  // block index -> flat µop index of the block's first µop.
  std::vector<int32_t> block_head;
  // (block, instruction index) -> µop position. Forged-but-valid return
  // addresses may land mid-fused-run, so every instruction position maps to
  // its µop plus the number of RegOps to skip inside it. Stored flat (one
  // array per function, per-block offsets) so decode does one allocation
  // instead of one per block.
  struct InstrSlot {
    int32_t uop = 0;
    uint32_t skip = 0;
  };
  std::vector<InstrSlot> instr_slots;
  std::vector<uint32_t> instr_base;  // block index -> offset into instr_slots

  // `block`/`index` must be bounds-checked against the source module first.
  InstrSlot Slot(int32_t block, int32_t index) const {
    return instr_slots[instr_base[static_cast<size_t>(block)] + static_cast<uint32_t>(index)];
  }
};

// FNV-1a digest of a module's executable content: entry index, function and
// block structure, and every instruction field the interpreter reads.
// Function names are excluded (they never execute). Memoized on the module
// until its next Touch().
uint64_t ModuleContentDigest(const ir::Module& module);

// The decoded form of a whole module, tied to the (module version, cost
// model, ymm reservation) it was built against. Each Executor builds and
// owns the decode of its module; a harness that constructs a fresh Executor
// per run can build one DecodedModule up front and hand it to each.
struct DecodedModule {
  std::vector<DecodedFunction> functions;
  const ir::Module* source = nullptr;
  uint64_t module_version = 0;
  uint64_t instr_count = 0;          // belt-and-suspenders vs missed Touch()
  machine::CostModel cost;           // snapshot; memcmp-validated
  bool ymm_reserved = false;
  // ModuleContentDigest(*source) when the builder recorded it, else 0. A
  // decode that carries it also serves content-identical module instances.
  uint64_t content_digest = 0;

  static std::shared_ptr<const DecodedModule> Build(const ir::Module& module,
                                                    const Process& process,
                                                    uint64_t content_digest = 0);

  // True when this decode is still valid for (module, process): the module's
  // content digest equals the recorded one (any content-identical instance;
  // memoized, so O(1) per unmodified module), or, with no digest recorded,
  // built from this module instance at its current version; same
  // instruction count, identical cost model and ymm reservation.
  bool Matches(const ir::Module& module, const Process& process) const;

  // The cost-model half of Matches: identical cost snapshot and ymm
  // reservation.
  bool CostMatches(const Process& process) const;
};

// kCheck helpers: re-derive a µop/RegOp from its source instruction and the
// live cost model, aborting the process with a diagnostic on any mismatch.
// This is the decode-layer half of the differential oracle (the MMU grant
// check is the other half); tests additionally compare full fast-vs-
// reference RunResults bitwise.
void CheckUop(const ir::Module& module, int func, const Uop& uop,
              const machine::CostModel& cost);
void CheckRegOp(const ir::Module& module, int func, const RegOp& op,
                const machine::CostModel& cost, bool ymm_reserved);

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_DECODED_H_
