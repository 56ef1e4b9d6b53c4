#include "src/sim/decoded.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/sim/process.h"

namespace memsentry::sim {
namespace {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline void Mix(uint64_t* h, uint64_t v) {
  // FNV-1a over the value's 8 bytes, avoiding per-byte loop overhead where
  // a whole word is available.
  for (int i = 0; i < 8; ++i) {
    *h = (*h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
}

// Instructions with statically known cycle contributions whose execution
// never redirects control flow on success; a maximal run of these becomes
// one fused µop (a superblock). kLoad/kStore joined the set in PR 7: their
// slot cost is static, their MMU access replays inline, and the executor
// bails out of the run on a grant miss or TLB-version tick (and on fault,
// with exact per-op bookkeeping).
bool Fusible(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::kNop:
    case ir::Opcode::kMovImm:
    case ir::Opcode::kAddImm:
    case ir::Opcode::kAndImm:
    case ir::Opcode::kAluRR:
    case ir::Opcode::kLea:
    case ir::Opcode::kVecOp:
    case ir::Opcode::kLoad:
    case ir::Opcode::kStore:
      return true;
    default:
      return false;
  }
}

// Dispatch handler index for a singleton (non-fused) µop.
uint8_t HandlerFor(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::kLoad:
      return kHLoad;
    case ir::Opcode::kStore:
      return kHStore;
    case ir::Opcode::kJmp:
      return kHJmp;
    case ir::Opcode::kCondBr:
      return kHCondBr;
    case ir::Opcode::kCall:
      return kHCall;
    case ir::Opcode::kIndirectCall:
      return kHIndirectCall;
    case ir::Opcode::kRet:
      return kHRet;
    case ir::Opcode::kHalt:
      return kHHalt;
    case ir::Opcode::kSyscall:
      return kHSyscall;
    case ir::Opcode::kMprotect:
      return kHMprotect;
    case ir::Opcode::kBndcu:
      return kHBndcu;
    case ir::Opcode::kBndcl:
      return kHBndcl;
    case ir::Opcode::kWrpkru:
      return kHWrpkru;
    case ir::Opcode::kRdpkru:
      return kHRdpkru;
    case ir::Opcode::kVmFunc:
      return kHVmFunc;
    case ir::Opcode::kVmCall:
      return kHVmCall;
    case ir::Opcode::kMFence:
      return kHMFence;
    case ir::Opcode::kAesCryptRegion:
      return kHAesCryptRegion;
    case ir::Opcode::kEnclaveEnter:
      return kHEnclaveEnter;
    case ir::Opcode::kEnclaveExit:
      return kHEnclaveExit;
    case ir::Opcode::kTrap:
      return kHTrap;
    case ir::Opcode::kTrapIf:
      return kHTrapIf;
    default:
      // Fusible opcodes never decode to singleton µops; treat an impossible
      // one as a guard so a decode bug faults instead of executing.
      return kHGuard;
  }
}

struct ResolvedCost {
  double cost = 0;
  double extra = 0;
  bool has_extra = false;
};

// The static cycle additions an instruction performs, in reference order:
// `cost` is always charged first; `extra` is a *second, separate* addition
// charged when `has_extra` (critical-path latency, ymm-reserve penalty,
// instrumentation clobber spills). Opcodes whose cost depends on runtime
// state (kSyscall's dune check, kAesCryptRegion's region size) resolve to
// zero here and are charged dynamically by the interpreter.
ResolvedCost StaticCost(const ir::Instr& instr, const machine::CostModel& cost,
                        bool ymm_reserved) {
  switch (instr.op) {
    case ir::Opcode::kNop:
    case ir::Opcode::kHalt:
      return {cost.nop_slot, 0, false};
    case ir::Opcode::kMovImm:
      return {instr.IsInstrumentation() ? cost.sfi_movabs_slot : cost.mov_imm_slot, 0, false};
    case ir::Opcode::kAddImm:
    case ir::Opcode::kAluRR:
      return {cost.alu_slot, 0, false};
    case ir::Opcode::kAndImm:
      return {cost.sfi_and_slot, cost.sfi_and_dep_latency, instr.IsCritical()};
    case ir::Opcode::kLea:
      return {cost.lea_slot, 0, false};
    case ir::Opcode::kVecOp:
      return {cost.vector_slot, static_cast<double>(instr.imm) * cost.ymm_reserve_vec_penalty,
              ymm_reserved};
    case ir::Opcode::kLoad:
      return {cost.load_slot, 0, false};
    case ir::Opcode::kStore:
      return {cost.store_slot, 0, false};
    case ir::Opcode::kJmp:
    case ir::Opcode::kCondBr:
    case ir::Opcode::kTrapIf:
      return {cost.branch_slot, 0, false};
    case ir::Opcode::kCall:
    case ir::Opcode::kIndirectCall:
      return {cost.call_slot, 0, false};
    case ir::Opcode::kRet:
      return {cost.ret_slot, 0, false};
    case ir::Opcode::kSyscall:
      return {0, 0, false};  // dynamic: hypercall vs native syscall
    case ir::Opcode::kMprotect:
      return {cost.mprotect_call, 0, false};
    case ir::Opcode::kBndcu:
      return {cost.bndcu_slot, cost.bndcu_latency, instr.IsCritical()};
    case ir::Opcode::kBndcl:
      return {cost.bndcu_slot, cost.bndcl_pair_extra_latency, instr.IsCritical()};
    case ir::Opcode::kWrpkru:
      return {cost.wrpkru, cost.mpk_clobber_spills / 2.0, instr.IsInstrumentation()};
    case ir::Opcode::kRdpkru:
      return {cost.rdpkru, 0, false};
    case ir::Opcode::kVmFunc:
      return {cost.vmfunc, 0, false};
    case ir::Opcode::kVmCall:
      return {cost.vmcall, 0, false};
    case ir::Opcode::kMFence:
      return {20.0, 0, false};
    case ir::Opcode::kAesCryptRegion:
      return {0, 0, false};  // dynamic: region size and live-xmm count
    case ir::Opcode::kEnclaveEnter:
    case ir::Opcode::kEnclaveExit:
      return {cost.sgx_ecall_roundtrip / 2.0, 0, false};
    case ir::Opcode::kTrap:
      return {0, 0, false};
  }
  return {0, 0, false};
}

// Whether the reference interpreter stops inside the block; where it would
// fetch past the end instead, decode plants a guard µop.
bool EndsInTerminator(const std::vector<ir::Instr>& instrs) {
  return !instrs.empty() &&
         (instrs.back().IsTerminator() || instrs.back().op == ir::Opcode::kTrap);
}

// Exact µop and RegOp counts for a function, so decode allocates each array
// once at its final size. Most instructions fuse into RegOps; reserving one
// Uop per instruction left that slack resident in every cached decode.
void CountUops(const ir::Function& function, size_t* uops, size_t* regops) {
  *uops = 0;
  *regops = 0;
  for (const ir::BasicBlock& block : function.blocks) {
    bool in_run = false;
    for (const ir::Instr& instr : block.instrs) {
      const bool fusible = Fusible(instr.op);
      *regops += fusible ? 1 : 0;
      *uops += (fusible && in_run) ? 0 : 1;
      in_run = fusible;
    }
    *uops += EndsInTerminator(block.instrs) ? 0 : 1;
  }
}

[[noreturn]] void DecodeDivergence(const char* what, int func, int32_t block, int32_t index) {
  std::fprintf(stderr, "memsentry: decode fast-path divergence: %s (f%d b%d i%d)\n", what, func,
               block, index);
  std::abort();
}

}  // namespace

uint64_t ModuleContentDigest(const ir::Module& module) {
  // The digest is O(instructions); the memo keeps repeated checks of an
  // unmodified module at O(1). Touch() invalidates by bumping `version`.
  uint64_t memo = 0;
  if (module.CachedDigest(&memo) == module.version) {
    return memo;
  }
  // Two independent FNV lanes — every fixed-width field packed into one
  // word on lane 0, the immediate on lane 1 — so the xor-multiply chains
  // run in parallel instead of serializing three multiplies per
  // instruction.
  uint64_t h0 = kFnvOffset;
  uint64_t h1 = kFnvOffset ^ 0x9e3779b97f4a7c15ull;
  Mix(&h0, static_cast<uint64_t>(module.entry));
  Mix(&h0, module.functions.size());
  for (const ir::Function& f : module.functions) {
    Mix(&h0, f.blocks.size());
    for (const ir::BasicBlock& b : f.blocks) {
      Mix(&h1, b.instrs.size());
      for (const ir::Instr& instr : b.instrs) {
        h0 = (h0 ^ ((static_cast<uint64_t>(instr.op) << 56) |
                    (static_cast<uint64_t>(static_cast<uint8_t>(instr.dst)) << 48) |
                    (static_cast<uint64_t>(static_cast<uint8_t>(instr.src)) << 40) |
                    (static_cast<uint64_t>(instr.flags) << 32) |
                    static_cast<uint64_t>(static_cast<uint32_t>(instr.target)))) *
             kFnvPrime;
        h1 = (h1 ^ instr.imm) * kFnvPrime;
      }
    }
  }
  uint64_t h = h0;
  Mix(&h, h1);
  module.StoreDigest(h);
  return h;
}

std::shared_ptr<const DecodedModule> DecodedModule::Build(const ir::Module& module,
                                                          const Process& process,
                                                          uint64_t content_digest) {
  auto dec = std::make_shared<DecodedModule>();
  dec->source = &module;
  dec->module_version = module.version;
  dec->instr_count = module.InstrCount();
  dec->cost = process.machine().cost;
  dec->ymm_reserved = process.ymm_reserved();
  dec->content_digest = content_digest;
  const machine::CostModel& cost = dec->cost;

  dec->functions.reserve(module.functions.size());
  for (const ir::Function& function : module.functions) {
    DecodedFunction df;
    const size_t num_blocks = function.blocks.size();
    const size_t instr_count = function.InstrCount();
    size_t uop_count = 0;
    size_t regop_count = 0;
    CountUops(function, &uop_count, &regop_count);
    df.uops.reserve(uop_count);
    df.regops.reserve(regop_count);
    df.block_head.resize(num_blocks);
    df.instr_base.resize(num_blocks);
    df.instr_slots.resize(instr_count);
    uint32_t slot_base = 0;
    for (size_t b = 0; b < num_blocks; ++b) {
      const auto& instrs = function.blocks[b].instrs;
      df.block_head[b] = static_cast<int32_t>(df.uops.size());
      df.instr_base[b] = slot_base;
      DecodedFunction::InstrSlot* slots = df.instr_slots.data() + slot_base;
      slot_base += static_cast<uint32_t>(instrs.size());
      size_t i = 0;
      while (i < instrs.size()) {
        if (Fusible(instrs[i].op)) {
          const int32_t uop_index = static_cast<int32_t>(df.uops.size());
          Uop u;
          u.fused = true;
          u.handler = kHFused;
          u.block = static_cast<int32_t>(b);
          u.index = static_cast<int32_t>(i);
          u.fuse_start = static_cast<uint32_t>(df.regops.size());
          uint32_t count = 0;
          while (i < instrs.size() && Fusible(instrs[i].op)) {
            const ir::Instr& instr = instrs[i];
            slots[i] = {uop_index, count};
            RegOp op;
            op.op = instr.op;
            op.dst = static_cast<uint8_t>(instr.dst);
            op.src = static_cast<uint8_t>(instr.src);
            op.alu_kind = static_cast<uint8_t>(instr.imm & 3);
            op.instrumentation = instr.IsInstrumentation();
            op.is_memory = instr.op == ir::Opcode::kLoad || instr.op == ir::Opcode::kStore;
            const ResolvedCost rc = StaticCost(instr, cost, dec->ymm_reserved);
            op.cost = rc.cost;
            op.extra = rc.extra;
            op.has_extra = rc.has_extra;
            op.imm = instr.imm;
            op.block = static_cast<int32_t>(b);
            op.index = static_cast<int32_t>(i);
            df.regops.push_back(op);
            ++count;
            ++i;
          }
          u.fuse_count = count;
          df.uops.push_back(u);
        } else {
          const ir::Instr& instr = instrs[i];
          slots[i] = {static_cast<int32_t>(df.uops.size()), 0};
          Uop u;
          u.op = instr.op;
          u.handler = HandlerFor(instr.op);
          u.instrumentation = instr.IsInstrumentation();
          u.critical = instr.IsCritical();
          u.dst = static_cast<uint8_t>(instr.dst);
          u.src = static_cast<uint8_t>(instr.src);
          u.flags = instr.flags;
          u.imm = instr.imm;
          u.target = instr.target;  // flat-index fixup for branches below
          u.block = static_cast<int32_t>(b);
          u.index = static_cast<int32_t>(i);
          const ResolvedCost rc = StaticCost(instr, cost, dec->ymm_reserved);
          u.cost = rc.cost;
          u.extra = rc.extra;
          u.has_extra = rc.has_extra;
          df.uops.push_back(u);
          ++i;
        }
      }
      // Where the reference interpreter would fetch past a block's last
      // instruction (unterminated blocks in unverified modules), plant a
      // guard µop that reproduces its #GP.
      if (!EndsInTerminator(instrs)) {
        Uop guard;  // non-fused kNop == guard by convention
        guard.block = static_cast<int32_t>(b);
        guard.index = static_cast<int32_t>(instrs.size());
        df.uops.push_back(guard);
      }
    }
    // Resolve branch targets to flat µop indices. Out-of-range targets —
    // undefined behaviour in the reference interpreter — decode to -1 and
    // fault #GP if ever taken.
    for (Uop& u : df.uops) {
      if (u.fused) {
        continue;
      }
      if (u.op == ir::Opcode::kJmp || u.op == ir::Opcode::kCondBr) {
        const int32_t target_block = u.target;
        u.target = (target_block >= 0 && target_block < static_cast<int32_t>(num_blocks))
                       ? df.block_head[static_cast<size_t>(target_block)]
                       : -1;
        if (u.op == ir::Opcode::kCondBr) {
          const int32_t fall = u.block + 1;
          u.fallthrough =
              fall < static_cast<int32_t>(num_blocks) ? df.block_head[static_cast<size_t>(fall)] : -1;
        }
      }
    }
    dec->functions.push_back(std::move(df));
  }
  return dec;
}

bool DecodedModule::Matches(const ir::Module& module, const Process& process) const {
  // A recorded digest outlives `source`, whose address the heap may reuse,
  // so it is the stronger check whenever it exists.
  const bool same_content = content_digest != 0
                                ? content_digest == ModuleContentDigest(module)
                                : source == &module && module_version == module.version;
  return same_content && instr_count == module.InstrCount() && CostMatches(process);
}

bool DecodedModule::CostMatches(const Process& process) const {
  return ymm_reserved == process.ymm_reserved() &&
         std::memcmp(&cost, &process.machine().cost, sizeof(cost)) == 0;
}

void CheckUop(const ir::Module& module, int func, const Uop& uop,
              const machine::CostModel& cost) {
  const auto& blocks = module.functions[static_cast<size_t>(func)].blocks;
  if (uop.block < 0 || uop.block >= static_cast<int32_t>(blocks.size())) {
    DecodeDivergence("µop block out of range", func, uop.block, uop.index);
  }
  const auto& instrs = blocks[static_cast<size_t>(uop.block)].instrs;
  if (!uop.fused && uop.op == ir::Opcode::kNop) {
    // Synthetic block-end guard: must sit exactly one past the last
    // instruction of an unterminated block.
    if (uop.index != static_cast<int32_t>(instrs.size())) {
      DecodeDivergence("guard µop not at block end", func, uop.block, uop.index);
    }
    if (uop.handler != kHGuard) {
      DecodeDivergence("guard µop with non-guard handler", func, uop.block, uop.index);
    }
    return;
  }
  if (uop.index < 0 || uop.index >= static_cast<int32_t>(instrs.size())) {
    DecodeDivergence("µop index out of range", func, uop.block, uop.index);
  }
  const ir::Instr& instr = instrs[static_cast<size_t>(uop.index)];
  if (uop.fused) {
    if (!Fusible(instr.op)) {
      DecodeDivergence("fused run starts at a non-fusible instruction", func, uop.block, uop.index);
    }
    if (uop.handler != kHFused) {
      DecodeDivergence("fused µop with non-fused handler", func, uop.block, uop.index);
    }
    return;  // the RegOps inside are checked individually
  }
  if (instr.op != uop.op || static_cast<uint8_t>(instr.dst) != uop.dst ||
      static_cast<uint8_t>(instr.src) != uop.src || instr.imm != uop.imm ||
      instr.flags != uop.flags) {
    DecodeDivergence("µop fields differ from source instruction", func, uop.block, uop.index);
  }
  if (uop.handler != HandlerFor(instr.op)) {
    DecodeDivergence("µop handler differs from opcode's", func, uop.block, uop.index);
  }
  const ResolvedCost rc = StaticCost(instr, cost, /*ymm_reserved=*/false);
  if (rc.cost != uop.cost || rc.has_extra != uop.has_extra ||
      (rc.has_extra && rc.extra != uop.extra)) {
    DecodeDivergence("µop pre-resolved cost differs from cost model", func, uop.block, uop.index);
  }
}

void CheckRegOp(const ir::Module& module, int func, const RegOp& op,
                const machine::CostModel& cost, bool ymm_reserved) {
  const auto& blocks = module.functions[static_cast<size_t>(func)].blocks;
  if (op.block < 0 || op.block >= static_cast<int32_t>(blocks.size())) {
    DecodeDivergence("RegOp block out of range", func, op.block, op.index);
  }
  const auto& instrs = blocks[static_cast<size_t>(op.block)].instrs;
  if (op.index < 0 || op.index >= static_cast<int32_t>(instrs.size())) {
    DecodeDivergence("RegOp index out of range", func, op.block, op.index);
  }
  const ir::Instr& instr = instrs[static_cast<size_t>(op.index)];
  if (instr.op != op.op || static_cast<uint8_t>(instr.dst) != op.dst ||
      static_cast<uint8_t>(instr.src) != op.src || instr.imm != op.imm ||
      static_cast<uint8_t>(instr.imm & 3) != op.alu_kind ||
      instr.IsInstrumentation() != op.instrumentation ||
      (instr.op == ir::Opcode::kLoad || instr.op == ir::Opcode::kStore) != op.is_memory) {
    DecodeDivergence("RegOp fields differ from source instruction", func, op.block, op.index);
  }
  const ResolvedCost rc = StaticCost(instr, cost, ymm_reserved);
  if (rc.cost != op.cost || rc.has_extra != op.has_extra ||
      (rc.has_extra && rc.extra != op.extra)) {
    DecodeDivergence("RegOp pre-resolved cost differs from cost model", func, op.block, op.index);
  }
}

}  // namespace memsentry::sim
