#include "src/sim/executor.h"

#include <cassert>
#include <cstdlib>
#include <span>
#include <vector>

#include "src/base/fastpath.h"
#include "src/mpk/mpk.h"
#include "src/mpx/mpx.h"

// Computed-goto threaded dispatch (the "label as value" extension) is the
// default on GCC/Clang; -DMEMSENTRY_THREADED_DISPATCH=0 (or a compiler
// without the extension) falls back to the portable switch dispatcher.
// Both drive the exact same handler bodies through the OP()/DISPATCH()
// macros below, so the choice affects only branch layout, never results.
#ifndef MEMSENTRY_THREADED_DISPATCH
#define MEMSENTRY_THREADED_DISPATCH 1
#endif
#if MEMSENTRY_THREADED_DISPATCH && (defined(__GNUC__) || defined(__clang__))
#define MEMSENTRY_USE_THREADED_DISPATCH 1
#else
#define MEMSENTRY_USE_THREADED_DISPATCH 0
#endif

// Forces the per-access helper lambdas into their call sites; they sit on
// the hottest path (once per modeled load/store).
#if defined(__GNUC__) || defined(__clang__)
#define MEMSENTRY_HOT_INLINE __attribute__((always_inline))
#else
#define MEMSENTRY_HOT_INLINE
#endif

namespace memsentry::sim {
namespace {

// Return addresses pushed on the simulated stack encode an instruction
// position behind a tag; corrupting one either produces an invalid decode
// (#GP on ret) or — if the attacker forges a valid encoding — a control-flow
// hijack, both observable by tests.
inline constexpr uint64_t kRaTag = 0xCA11ULL << 48;
inline constexpr uint64_t kRaTagMask = 0xFFFFULL << 48;

uint64_t EncodeRa(int func, int block, int index) {
  return kRaTag | (static_cast<uint64_t>(func & 0xfff) << 36) |
         (static_cast<uint64_t>(block & 0x3ffff) << 18) | static_cast<uint64_t>(index & 0x3ffff);
}

bool DecodeRa(uint64_t value, int* func, int* block, int* index) {
  if ((value & kRaTagMask) != kRaTag) {
    return false;
  }
  *func = static_cast<int>((value >> 36) & 0xfff);
  *block = static_cast<int>((value >> 18) & 0x3ffff);
  *index = static_cast<int>(value & 0x3ffff);
  return true;
}

struct Position {
  int func = 0;
  int block = 0;
  int index = 0;
};

// A resume cursor must name a live instruction of this module before either
// interpreter dereferences it — snapshots pass checksum validation, but a
// cursor saved against a different module would index out of bounds.
bool CursorNamesInstruction(const ir::Module& module, const RunCursor& cursor) {
  if (cursor.func < 0 || cursor.func >= static_cast<int>(module.functions.size())) {
    return false;
  }
  const auto& func = module.functions[static_cast<size_t>(cursor.func)];
  if (cursor.block < 0 || cursor.block >= static_cast<int>(func.blocks.size())) {
    return false;
  }
  const auto& block = func.blocks[static_cast<size_t>(cursor.block)];
  return cursor.index >= 0 && cursor.index < static_cast<int>(block.instrs.size()) &&
         cursor.call_depth >= 0;
}

}  // namespace

RunResult Executor::Run(const RunConfig& config) {
  const base::FastPathMode mode = base::GetFastPathMode();
  if (mode == base::FastPathMode::kOff) {
    return RunReference(config, nullptr);
  }
  EnsureDecoded();
  return RunDecoded(config, /*check=*/mode == base::FastPathMode::kCheck, nullptr);
}

void Executor::EnsureDecoded() {
  if (decoded_ == nullptr || !decoded_->Matches(*module_, *process_)) {
    decoded_ = DecodedModule::Build(*module_, *process_);
  }
}

RunResult Executor::Resume(const RunConfig& config, const RunResult& partial) {
  if (!partial.hit_instruction_limit || !partial.cursor.valid) {
    return partial;  // already finished; nothing to continue
  }
  if (!CursorNamesInstruction(*module_, partial.cursor)) {
    RunResult result = partial;
    result.fault =
        machine::Fault{machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute};
    return result;
  }
  const base::FastPathMode mode = base::GetFastPathMode();
  if (mode == base::FastPathMode::kOff) {
    return RunReference(config, &partial);
  }
  EnsureDecoded();
  return RunDecoded(config, /*check=*/mode == base::FastPathMode::kCheck, &partial);
}

RunResult Executor::RunReference(const RunConfig& config, const RunResult* resume) {
  RunResult result;
  auto& regs = process_->regs();
  auto& mmu = process_->mmu();
  auto& functions = module_->functions;

  Position pos{module_->entry, 0, 0};
  int call_depth = 0;
  if (resume != nullptr) {
    result = *resume;
    result.hit_instruction_limit = false;
    pos = Position{resume->cursor.func, resume->cursor.block, resume->cursor.index};
    call_depth = resume->cursor.call_depth;
    result.cursor = RunCursor{};
  }

  auto fault_out = [&](const machine::Fault& fault) {
    result.fault = fault;
    return result;
  };

  // Profiling flag hoisted out of the per-access path: data_access runs for
  // every load/store, and reading a loop-invariant local lets the compiler
  // keep it in a register instead of reloading config each access.
  const bool record_safe_accesses = config.record_safe_accesses;

  // Validates + prices + performs one data access; returns false on fault.
  auto data_access = [&](VirtAddr va, machine::AccessType access, uint64_t* value,
                         machine::Fault* fault) -> bool {
    // SGX rule: enclave pages are untouchable from outside the enclave.
    if (process_->enclave() != nullptr && !process_->enclave()->AccessAllowed(va)) {
      *fault = machine::Fault{machine::FaultType::kEnclaveAccess, va, access};
      return false;
    }
    if (access == machine::AccessType::kRead) {
      auto r = mmu.Read64(va, regs.pkru, &result.cycles);
      if (!r.ok()) {
        *fault = r.fault();
        return false;
      }
      *value = r.value();
    } else {
      auto w = mmu.Write64(va, *value, regs.pkru, &result.cycles);
      if (!w.ok()) {
        *fault = w.fault();
        return false;
      }
    }
    if (record_safe_accesses && process_->InSafeRegion(va)) {
      result.safe_access_refs.insert(PackRef(pos.func, pos.block, pos.index));
    }
    return true;
  };

  while (result.instructions < config.max_instructions) {
    const auto& func = functions[static_cast<size_t>(pos.func)];
    const auto& block = func.blocks[static_cast<size_t>(pos.block)];
    if (pos.index >= static_cast<int>(block.instrs.size())) {
      // Structurally impossible after verification; guard anyway.
      return fault_out({machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    const ir::Instr& instr = block.instrs[static_cast<size_t>(pos.index)];
    ++result.instructions;
    const Cycles cycles_before = result.cycles;
    bool advance = true;

    switch (instr.op) {
      case ir::Opcode::kNop:
        result.cycles += cost_->nop_slot;
        break;
      case ir::Opcode::kMovImm:
        regs[instr.dst] = instr.imm;
        result.cycles += instr.IsInstrumentation() ? cost_->sfi_movabs_slot : cost_->mov_imm_slot;
        break;
      case ir::Opcode::kAddImm:
        regs[instr.dst] += static_cast<int64_t>(instr.imm);
        regs.zero_flag = regs[instr.dst] == 0;
        result.cycles += cost_->alu_slot;
        break;
      case ir::Opcode::kAndImm:
        regs[instr.dst] &= instr.imm;
        result.cycles += cost_->sfi_and_slot;
        if (instr.IsCritical()) {
          result.cycles += cost_->sfi_and_dep_latency;
        }
        break;
      case ir::Opcode::kAluRR: {
        uint64_t& dst = regs[instr.dst];
        const uint64_t src = regs[instr.src];
        switch (instr.imm & 3) {
          case 0:
            dst += src;
            break;
          case 1:
            dst -= src;
            break;
          case 2:
            dst ^= src;
            break;
          case 3:
            dst *= src;
            break;
        }
        regs.zero_flag = dst == 0;
        result.cycles += cost_->alu_slot;
        break;
      }
      case ir::Opcode::kLea:
        regs[instr.dst] = regs[instr.src] + static_cast<int64_t>(instr.imm);
        result.cycles += cost_->lea_slot;
        break;
      case ir::Opcode::kVecOp:
        result.cycles += cost_->vector_slot;
        if (process_->ymm_reserved()) {
          result.cycles += static_cast<double>(instr.imm) * cost_->ymm_reserve_vec_penalty;
        }
        break;
      case ir::Opcode::kLoad: {
        ++result.loads;
        result.cycles += cost_->load_slot;
        uint64_t value = 0;
        machine::Fault fault;
        if (!data_access(regs[instr.src], machine::AccessType::kRead, &value, &fault)) {
          return fault_out(fault);
        }
        regs[instr.dst] = value;
        break;
      }
      case ir::Opcode::kStore: {
        ++result.stores;
        result.cycles += cost_->store_slot;
        uint64_t value = regs[instr.src];
        machine::Fault fault;
        if (!data_access(regs[instr.dst], machine::AccessType::kWrite, &value, &fault)) {
          return fault_out(fault);
        }
        break;
      }
      case ir::Opcode::kJmp:
        result.cycles += cost_->branch_slot;
        mpx::OnLegacyBranch(regs);  // no-op when BNDPRESERVE is set
        pos.block = instr.target;
        pos.index = 0;
        advance = false;
        break;
      case ir::Opcode::kCondBr:
        result.cycles += cost_->branch_slot;
        mpx::OnLegacyBranch(regs);
        if (!regs.zero_flag) {
          pos.block = instr.target;
        } else {
          pos.block = pos.block + 1;
        }
        pos.index = 0;
        advance = false;
        break;
      case ir::Opcode::kCall:
      case ir::Opcode::kIndirectCall: {
        int callee = instr.target;
        if (instr.op == ir::Opcode::kIndirectCall) {
          ++result.indirect_calls;
          callee = static_cast<int>(regs[instr.src]);
          if (callee < 0 || callee >= static_cast<int>(functions.size())) {
            return fault_out({machine::FaultType::kGeneralProtection, regs[instr.src],
                              machine::AccessType::kExecute});
          }
        }
        ++result.calls;
        result.cycles += cost_->call_slot;
        mpx::OnLegacyBranch(regs);
        if (call_depth >= 4096) {
          return fault_out({machine::FaultType::kGeneralProtection, regs[machine::Gpr::kRsp],
                            machine::AccessType::kWrite});
        }
        const uint64_t ra = EncodeRa(pos.func, pos.block, pos.index + 1);
        regs[machine::Gpr::kRsp] -= 8;
        uint64_t value = ra;
        machine::Fault fault;
        if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kWrite, &value, &fault)) {
          return fault_out(fault);
        }
        // The call also exposes the return address in r11, the "link
        // register" convention that shadow-stack instrumentation consumes.
        regs[machine::Gpr::kR11] = ra;
        ++call_depth;
        pos = Position{callee, 0, 0};
        advance = false;
        break;
      }
      case ir::Opcode::kRet: {
        ++result.rets;
        result.cycles += cost_->ret_slot;
        mpx::OnLegacyBranch(regs);
        if (call_depth == 0) {
          // Returning from the entry function ends the program (there is no
          // caller frame to pop).
          result.halted = true;
          return result;
        }
        uint64_t ra = 0;
        machine::Fault fault;
        if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kRead, &ra, &fault)) {
          return fault_out(fault);
        }
        regs[machine::Gpr::kRsp] += 8;
        int f = 0, b = 0, i = 0;
        if (!DecodeRa(ra, &f, &b, &i) || f >= static_cast<int>(functions.size())) {
          return fault_out({machine::FaultType::kGeneralProtection, ra,
                            machine::AccessType::kExecute});
        }
        const auto& rf = functions[static_cast<size_t>(f)];
        if (b >= static_cast<int>(rf.blocks.size()) ||
            i >= static_cast<int>(rf.blocks[static_cast<size_t>(b)].instrs.size())) {
          return fault_out({machine::FaultType::kGeneralProtection, ra,
                            machine::AccessType::kExecute});
        }
        --call_depth;
        pos = Position{f, b, i};
        advance = false;
        break;
      }
      case ir::Opcode::kHalt:
        result.cycles += cost_->nop_slot;
        result.halted = true;
        return result;
      case ir::Opcode::kSyscall: {
        ++result.syscalls;
        if (process_->dune_enabled()) {
          // Dune's libOS converts every syscall into a hypercall.
          result.cycles += cost_->vmcall;
          auto r = process_->dune()->vmx().VmCall(dune::kHcSyscall, instr.imm,
                                                  regs[machine::Gpr::kRdi],
                                                  regs[machine::Gpr::kRsi]);
          if (!r.ok()) {
            return fault_out(r.fault());
          }
          regs[machine::Gpr::kRax] = r.value();
        } else {
          result.cycles += cost_->syscall;
          regs[machine::Gpr::kRax] = process_->DispatchSyscall(
              instr.imm, regs[machine::Gpr::kRdi], regs[machine::Gpr::kRsi]);
        }
        break;
      }
      case ir::Opcode::kMprotect: {
        ++result.domain_switches;
        result.cycles += cost_->mprotect_call;
        const bool open = instr.imm != 0;
        for (auto& region : process_->safe_regions()) {
          machine::PageFlags flags = machine::PageFlags::Data();
          flags.user = open;
          flags.pkey = region.pkey;
          const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
          for (uint64_t p = 0; p < pages; ++p) {
            (void)process_->page_table().Protect(region.base + p * kPageSize, flags);
            process_->mmu().InvalidatePage(region.base + p * kPageSize);
          }
          region.mprotected = !open;
        }
        break;
      }
      case ir::Opcode::kBndcu: {
        result.cycles += cost_->bndcu_slot;
        if (instr.IsCritical()) {
          result.cycles += cost_->bndcu_latency;
        }
        // A legacy-branch reset left this register in INIT state: reload it
        // from the bound table (the BNDPRESERVE=0 cost the paper avoids).
        auto& bnd = regs.bnd[instr.imm];
        if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(instr.imm))) {
          bnd = *process_->bnd_reload(static_cast<int>(instr.imm));
          result.cycles += cost_->bnd_table_load;
        }
        auto fault = mpx::CheckUpper(bnd, regs[instr.src]);
        if (fault.has_value()) {
          return fault_out(*fault);
        }
        break;
      }
      case ir::Opcode::kBndcl: {
        result.cycles += cost_->bndcu_slot;
        if (instr.IsCritical()) {
          result.cycles += cost_->bndcl_pair_extra_latency;
        }
        auto& bnd = regs.bnd[instr.imm];
        if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(instr.imm))) {
          bnd = *process_->bnd_reload(static_cast<int>(instr.imm));
          result.cycles += cost_->bnd_table_load;
        }
        auto fault = mpx::CheckLower(bnd, regs[instr.src]);
        if (fault.has_value()) {
          return fault_out(*fault);
        }
        break;
      }
      case ir::Opcode::kWrpkru: {
        ++result.domain_switches;
        result.cycles += cost_->wrpkru;
        if (instr.IsInstrumentation()) {
          // rax/rcx/rdx clobbers force spills around dense call sites.
          result.cycles += cost_->mpk_clobber_spills / 2.0;
        }
        mpk::WritePkru(regs, static_cast<uint32_t>(instr.imm));
        break;
      }
      case ir::Opcode::kRdpkru:
        result.cycles += cost_->rdpkru;
        regs[instr.dst] = mpk::ReadPkru(regs);
        break;
      case ir::Opcode::kVmFunc: {
        ++result.domain_switches;
        result.cycles += cost_->vmfunc;
        if (!process_->dune_enabled()) {
          return fault_out({machine::FaultType::kGeneralProtection, instr.imm,
                            machine::AccessType::kExecute});
        }
        auto r = process_->dune()->vmx().VmFunc(0, instr.imm);
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        break;
      }
      case ir::Opcode::kVmCall: {
        result.cycles += cost_->vmcall;
        if (!process_->dune_enabled()) {
          return fault_out({machine::FaultType::kGeneralProtection, instr.imm,
                            machine::AccessType::kExecute});
        }
        auto r = process_->dune()->vmx().VmCall(instr.imm, regs[machine::Gpr::kRdi],
                                                regs[machine::Gpr::kRsi], 0);
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        regs[machine::Gpr::kRax] = r.value();
        break;
      }
      case ir::Opcode::kMFence:
        result.cycles += 20.0;
        break;
      case ir::Opcode::kAesCryptRegion: {
        ++result.domain_switches;
        SafeRegion* region = process_->FindSafeRegion(regs[instr.src]);
        if (region == nullptr || !region->crypt) {
          return fault_out({machine::FaultType::kGeneralProtection, regs[instr.src],
                            machine::AccessType::kRead});
        }
        const uint64_t size = instr.imm == 0 ? region->size : instr.imm;
        const uint64_t blocks = (size + aes::kBlockSize - 1) / aes::kBlockSize;
        result.cycles += cost_->ymm_to_xmm_all_keys +
                         static_cast<double>(blocks) * (cost_->aes_encdec_block / 2.0) +
                         static_cast<double>(instr.target) * cost_->xmm_spill;
        // CTR keystream XOR: the same operation encrypts and decrypts. The
        // staging buffer comes from the executor's arena — one bump after
        // the first chunk warms up, instead of a heap round-trip per event.
        arena_.Reset();
        uint8_t* bytes = arena_.AllocateArray<uint8_t>(size);
        if (!process_->PeekBytes(region->base, bytes, size).ok()) {
          return fault_out({machine::FaultType::kPageNotPresent, region->base,
                            machine::AccessType::kRead});
        }
        aes::CryptRegion(std::span<uint8_t>(bytes, size), region->enc_keys, region->nonce);
        (void)process_->PokeBytes(region->base, bytes, size);
        region->encrypted_now = !region->encrypted_now;
        break;
      }
      case ir::Opcode::kEnclaveEnter: {
        ++result.domain_switches;
        result.cycles += cost_->sgx_ecall_roundtrip / 2.0;
        if (process_->enclave() == nullptr) {
          return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
        }
        auto r = process_->enclave()->Enter(static_cast<uint32_t>(instr.imm));
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        break;
      }
      case ir::Opcode::kEnclaveExit: {
        result.cycles += cost_->sgx_ecall_roundtrip / 2.0;
        if (process_->enclave() == nullptr) {
          return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
        }
        auto r = process_->enclave()->Exit();
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        break;
      }
      case ir::Opcode::kTrap:
        result.trapped = true;
        return result;
      case ir::Opcode::kTrapIf:
        result.cycles += cost_->branch_slot;
        if (!regs.zero_flag) {
          result.trapped = true;
          return result;
        }
        break;
    }

    if (instr.IsInstrumentation()) {
      ++result.instrumentation_instrs;
      result.instrumentation_cycles += result.cycles - cycles_before;
    }
    if (advance) {
      ++pos.index;
      // Fall off the end of a block only after kCall-style non-terminators;
      // the verifier guarantees blocks end in terminators, so this index is
      // always valid.
    }
  }

  result.hit_instruction_limit = true;
  result.cursor = RunCursor{true, pos.func, pos.block, pos.index, call_depth};
  return result;
}

// The µop-stream interpreter. Mirrors RunReference case by case: every cycle
// addition happens with the same operands in the same order (pre-resolved
// static costs are charged as the same cost-then-extra pair of adds), every
// counter bumps at the same architectural points, and every fault carries
// the same payload — so all modeled results are bit-identical. Only dispatch
// changes: flat µop indices replace (block, index) walking, fused runs of
// straight-line ops — pure-register ops plus grant-stable loads/stores —
// execute back-to-back without re-entering the dispatch loop, and every µop
// carries a pre-resolved handler index that drives either the computed-goto
// table or the portable switch.
//
// The OP()/DISPATCH() macros select the dispatch flavour at compile time:
//   threaded: OP(X) is a label, DISPATCH() is `goto *kDispatch[handler]`
//   portable: OP(X) is a switch case, DISPATCH() loops back to the switch
// Every handler body ends in a `return` or a DISPATCH(), so the bodies are
// flavour-independent and execute identically under both dispatchers.
#if MEMSENTRY_USE_THREADED_DISPATCH
#define OP(name) h_##name:
#define DISPATCH()                                        \
  do {                                                    \
    if (result.instructions >= config.max_instructions) { \
      goto limit_exit;                                    \
    }                                                     \
    u = &df->uops[static_cast<size_t>(ui)];               \
    goto* kDispatch[u->handler];                          \
  } while (0)
#else
#define OP(name) case kH##name:
#define DISPATCH() goto dispatch
#endif

// Prologue/epilogue shared by every non-guard handler, replicating the
// reference loop's per-instruction frame: count the instruction, snapshot
// the cycle accumulator for instrumentation attribution, execute, then
// attribute. Handlers that redirect control set `ui` themselves and end
// with END_UOP_JMP(); straight-line handlers end with END_UOP_ADV().
#define BEGIN_UOP()                       \
  if (check) {                            \
    CheckUop(*module_, func, *u, cost);   \
  }                                       \
  ++result.instructions;                  \
  const Cycles cycles_before = result.cycles; \
  (void)cycles_before

#define END_UOP_COMMON()                                            \
  if (u->instrumentation) {                                         \
    ++result.instrumentation_instrs;                                \
    result.instrumentation_cycles += result.cycles - cycles_before; \
  }

#define END_UOP_ADV() \
  END_UOP_COMMON();   \
  ++ui;               \
  DISPATCH()

#define END_UOP_JMP() \
  END_UOP_COMMON();   \
  DISPATCH()

RunResult Executor::RunDecoded(const RunConfig& config, bool check, const RunResult* resume) {
  RunResult result;
  auto& regs = process_->regs();
  auto& mmu = process_->mmu();
  const auto& functions = module_->functions;
  const DecodedModule& dec = *decoded_;
  const machine::CostModel& cost = *cost_;

  int func = module_->entry;
  const DecodedFunction* df = &dec.functions[static_cast<size_t>(func)];
  int32_t ui = 0;       // flat µop index within *df
  uint32_t skip = 0;    // RegOps to skip when resuming mid-fused-run (after ret)
  int call_depth = 0;
  if (resume != nullptr) {
    result = *resume;
    result.hit_instruction_limit = false;
    result.cursor = RunCursor{};
    func = resume->cursor.func;
    df = &dec.functions[static_cast<size_t>(func)];
    // Cursors are source positions; Slot maps them onto the µop stream,
    // landing mid-fused-run when the budget cut one short.
    const DecodedFunction::InstrSlot slot = df->Slot(resume->cursor.block, resume->cursor.index);
    ui = slot.uop;
    skip = slot.skip;
    call_depth = resume->cursor.call_depth;
  }

  auto fault_out = [&](const machine::Fault& fault) {
    result.fault = fault;
    return result;
  };

  const bool record_safe_accesses = config.record_safe_accesses;
  // Hoisted out of the loop: the mode can't change mid-run, and the MMU's
  // explicit-mode overloads skip the per-access atomic load.
  const base::FastPathMode mode =
      check ? base::FastPathMode::kCheck : base::FastPathMode::kOn;

  // Identical to RunReference's data_access, with the instruction position
  // passed in (the µop carries its source block/index for PackRef).
  // always_inline: GCC's size heuristic otherwise leaves this as an
  // out-of-line call on every modeled load/store.
  auto data_access = [&](VirtAddr va, machine::AccessType access, uint64_t* value,
                         machine::Fault* fault, int32_t block,
                         int32_t index) MEMSENTRY_HOT_INLINE -> bool {
    if (process_->enclave() != nullptr && !process_->enclave()->AccessAllowed(va)) {
      *fault = machine::Fault{machine::FaultType::kEnclaveAccess, va, access};
      return false;
    }
    if (access == machine::AccessType::kRead) {
      auto r = mmu.Read64(va, regs.pkru, &result.cycles, mode);
      if (!r.ok()) {
        *fault = r.fault();
        return false;
      }
      *value = r.value();
    } else {
      auto w = mmu.Write64(va, *value, regs.pkru, &result.cycles, mode);
      if (!w.ok()) {
        *fault = w.fault();
        return false;
      }
    }
    if (record_safe_accesses && process_->InSafeRegion(va)) {
      result.safe_access_refs.insert(PackRef(func, block, index));
    }
    return true;
  };

  const Uop* u = nullptr;
#if MEMSENTRY_USE_THREADED_DISPATCH
  // Label-address dispatch table, indexed by UopHandler (same order as the
  // enum). Static: label addresses are link-time constants under the GCC
  // extension, and the table is shared by every invocation.
  static const void* const kDispatch[kNumUopHandlers] = {
      &&h_Fused,        &&h_Guard,       &&h_Load,   &&h_Store,
      &&h_Jmp,          &&h_CondBr,      &&h_Call,   &&h_IndirectCall,
      &&h_Ret,          &&h_Halt,        &&h_Syscall, &&h_Mprotect,
      &&h_Bndcu,        &&h_Bndcl,       &&h_Wrpkru, &&h_Rdpkru,
      &&h_VmFunc,       &&h_VmCall,      &&h_MFence, &&h_AesCryptRegion,
      &&h_EnclaveEnter, &&h_EnclaveExit, &&h_Trap,   &&h_TrapIf,
  };
#endif

  DISPATCH();

#if !MEMSENTRY_USE_THREADED_DISPATCH
dispatch:
  if (result.instructions >= config.max_instructions) {
    goto limit_exit;
  }
  u = &df->uops[static_cast<size_t>(ui)];
  switch (static_cast<UopHandler>(u->handler)) {
#endif

  OP(Fused) {
    // Replay the pre-resolved straight-line run. `skip` is nonzero only
    // when a ret/resume landed mid-run; the budget clamp makes the
    // instruction limit hit at exactly the same op as the reference loop.
    if (check) {
      CheckUop(*module_, func, *u, cost);
    }
    const uint64_t want = u->fuse_count - skip;
    const uint64_t budget = config.max_instructions - result.instructions;
    const uint64_t run = want < budget ? want : budget;
    const RegOp* ops = df->regops.data() + u->fuse_start + skip;
    const uint32_t entered_skip = skip;
    skip = 0;
    // Grant-stability admission: fused memory ops ride the MMU grant cache.
    // Each op is admitted under the (VPN, access, PKRU, TLB-version, ASID)
    // verdict its probe validates; the moment a verdict misses or the TLB
    // version ticks, the run bails back to the dispatch loop — the op that
    // broke stability has already completed through the full slow path with
    // reference bookkeeping, and dispatch re-admits the remainder as a
    // fresh run against the updated translation state.
    const uint64_t tlb_version_at_entry = mmu.tlb().version();
    const uint64_t grant_misses_at_entry = mmu.grant_stats().misses;
    bool bailed = false;
    uint64_t n = 0;
    for (; n < run; ++n) {
      const RegOp& r = ops[n];
      if (check) {
        CheckRegOp(*module_, func, r, cost, dec.ymm_reserved);
      }
      const Cycles cycles_before = result.cycles;
      // Static cost first (slot, then extra): the same additions the
      // reference interpreter performs, in the same order. Memory ops then
      // append their MMU pricing inside data_access, also reference-order.
      result.cycles += r.cost;
      if (r.has_extra) {
        result.cycles += r.extra;
      }
      switch (r.op) {
        case ir::Opcode::kNop:
        case ir::Opcode::kVecOp:
          break;
        case ir::Opcode::kMovImm:
          regs[static_cast<machine::Gpr>(r.dst)] = r.imm;
          break;
        case ir::Opcode::kAddImm: {
          uint64_t& dst = regs[static_cast<machine::Gpr>(r.dst)];
          dst += static_cast<int64_t>(r.imm);
          regs.zero_flag = dst == 0;
          break;
        }
        case ir::Opcode::kAndImm:
          regs[static_cast<machine::Gpr>(r.dst)] &= r.imm;
          break;
        case ir::Opcode::kAluRR: {
          uint64_t& dst = regs[static_cast<machine::Gpr>(r.dst)];
          const uint64_t src = regs[static_cast<machine::Gpr>(r.src)];
          switch (r.alu_kind) {
            case 0:
              dst += src;
              break;
            case 1:
              dst -= src;
              break;
            case 2:
              dst ^= src;
              break;
            case 3:
              dst *= src;
              break;
          }
          regs.zero_flag = dst == 0;
          break;
        }
        case ir::Opcode::kLea:
          regs[static_cast<machine::Gpr>(r.dst)] =
              regs[static_cast<machine::Gpr>(r.src)] + static_cast<int64_t>(r.imm);
          break;
        case ir::Opcode::kLoad: {
          ++result.loads;
          uint64_t value = 0;
          machine::Fault fault;
          if (!data_access(regs[static_cast<machine::Gpr>(r.src)], machine::AccessType::kRead,
                           &value, &fault, r.block, r.index)) {
            result.instructions += n + 1;  // the faulting op counts, as in the reference
            return fault_out(fault);
          }
          regs[static_cast<machine::Gpr>(r.dst)] = value;
          break;
        }
        case ir::Opcode::kStore: {
          ++result.stores;
          uint64_t value = regs[static_cast<machine::Gpr>(r.src)];
          machine::Fault fault;
          if (!data_access(regs[static_cast<machine::Gpr>(r.dst)], machine::AccessType::kWrite,
                           &value, &fault, r.block, r.index)) {
            result.instructions += n + 1;
            return fault_out(fault);
          }
          break;
        }
        default:
          assert(false && "non-fusible op inside a fused run");
          std::abort();
      }
      if (r.instrumentation) {
        ++result.instrumentation_instrs;
        result.instrumentation_cycles += result.cycles - cycles_before;
      }
      if (r.is_memory && n + 1 < run &&
          (mmu.grant_stats().misses != grant_misses_at_entry ||
           mmu.tlb().version() != tlb_version_at_entry)) {
        ++n;  // this op completed (via the slow path); count it and bail
        bailed = true;
        break;
      }
    }
    result.instructions += n;
    if (bailed) {
      // Re-enter this µop at the next unexecuted op without advancing `ui`;
      // the re-admission probe sees the refilled grant / new TLB version.
      skip = entered_skip + static_cast<uint32_t>(n);
      DISPATCH();
    }
    if (run < want) {
      // Instruction budget exhausted mid-run: leave `skip` naming the next
      // unexecuted RegOp so the exit cursor below reads its source
      // position — the same (block, index) the reference loop stops at.
      skip = entered_skip + static_cast<uint32_t>(run);
      goto limit_exit;
    }
    ++ui;
    DISPATCH();
  }

  OP(Guard) {
    // Synthetic block-end guard: the reference loop faults here when it
    // fetches past an unterminated block, before counting an instruction.
    if (check) {
      CheckUop(*module_, func, *u, cost);
    }
    return fault_out({machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
  }

  OP(Load) {
    // Loads/stores normally fuse; these singleton handlers stay for decode
    // robustness and the portable dispatcher's exhaustiveness.
    BEGIN_UOP();
    ++result.loads;
    result.cycles += u->cost;
    uint64_t value = 0;
    machine::Fault fault;
    if (!data_access(regs[static_cast<machine::Gpr>(u->src)], machine::AccessType::kRead,
                     &value, &fault, u->block, u->index)) {
      return fault_out(fault);
    }
    regs[static_cast<machine::Gpr>(u->dst)] = value;
    END_UOP_ADV();
  }

  OP(Store) {
    BEGIN_UOP();
    ++result.stores;
    result.cycles += u->cost;
    uint64_t value = regs[static_cast<machine::Gpr>(u->src)];
    machine::Fault fault;
    if (!data_access(regs[static_cast<machine::Gpr>(u->dst)], machine::AccessType::kWrite,
                     &value, &fault, u->block, u->index)) {
      return fault_out(fault);
    }
    END_UOP_ADV();
  }

  OP(Jmp) {
    BEGIN_UOP();
    result.cycles += u->cost;
    mpx::OnLegacyBranch(regs);  // no-op when BNDPRESERVE is set
    if (u->target < 0) {
      // Out-of-range block target (undefined behaviour in the reference
      // interpreter; decode resolves it to a #GP instead of crashing).
      return fault_out(
          {machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    ui = u->target;
    END_UOP_JMP();
  }

  OP(CondBr) {
    BEGIN_UOP();
    result.cycles += u->cost;
    mpx::OnLegacyBranch(regs);
    const int32_t next = !regs.zero_flag ? u->target : u->fallthrough;
    if (next < 0) {
      return fault_out(
          {machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    ui = next;
    END_UOP_JMP();
  }

  OP(Call)
  OP(IndirectCall) {
    BEGIN_UOP();
    int callee = u->target;
    if (u->op == ir::Opcode::kIndirectCall) {
      ++result.indirect_calls;
      callee = static_cast<int>(regs[static_cast<machine::Gpr>(u->src)]);
      if (callee < 0 || callee >= static_cast<int>(functions.size())) {
        return fault_out({machine::FaultType::kGeneralProtection,
                          regs[static_cast<machine::Gpr>(u->src)],
                          machine::AccessType::kExecute});
      }
    }
    ++result.calls;
    result.cycles += u->cost;
    mpx::OnLegacyBranch(regs);
    if (call_depth >= 4096) {
      return fault_out({machine::FaultType::kGeneralProtection, regs[machine::Gpr::kRsp],
                        machine::AccessType::kWrite});
    }
    const uint64_t ra = EncodeRa(func, u->block, u->index + 1);
    regs[machine::Gpr::kRsp] -= 8;
    uint64_t value = ra;
    machine::Fault fault;
    if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kWrite, &value, &fault,
                     u->block, u->index)) {
      return fault_out(fault);
    }
    // The call also exposes the return address in r11, the "link register"
    // convention that shadow-stack instrumentation consumes.
    regs[machine::Gpr::kR11] = ra;
    ++call_depth;
    if (callee >= static_cast<int>(dec.functions.size()) ||
        dec.functions[static_cast<size_t>(callee)].uops.empty()) {
      // Direct call to a bad function index (undefined behaviour in the
      // reference; #GP here instead of crashing).
      return fault_out(
          {machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    func = callee;
    df = &dec.functions[static_cast<size_t>(callee)];
    ui = 0;  // block_head[0] is always the function's first µop
    END_UOP_JMP();
  }

  OP(Ret) {
    BEGIN_UOP();
    ++result.rets;
    result.cycles += u->cost;
    mpx::OnLegacyBranch(regs);
    if (call_depth == 0) {
      // Returning from the entry function ends the program (there is no
      // caller frame to pop).
      result.halted = true;
      return result;
    }
    uint64_t ra = 0;
    machine::Fault fault;
    if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kRead, &ra, &fault,
                     u->block, u->index)) {
      return fault_out(fault);
    }
    regs[machine::Gpr::kRsp] += 8;
    int f = 0, b = 0, i = 0;
    if (!DecodeRa(ra, &f, &b, &i) || f >= static_cast<int>(functions.size())) {
      return fault_out({machine::FaultType::kGeneralProtection, ra,
                        machine::AccessType::kExecute});
    }
    const auto& rf = functions[static_cast<size_t>(f)];
    if (b >= static_cast<int>(rf.blocks.size()) ||
        i >= static_cast<int>(rf.blocks[static_cast<size_t>(b)].instrs.size())) {
      return fault_out({machine::FaultType::kGeneralProtection, ra,
                        machine::AccessType::kExecute});
    }
    --call_depth;
    func = f;
    df = &dec.functions[static_cast<size_t>(f)];
    const DecodedFunction::InstrSlot slot = df->Slot(b, i);
    ui = slot.uop;
    skip = slot.skip;  // forged-but-valid RAs may land mid-fused-run
    END_UOP_JMP();
  }

  OP(Halt) {
    BEGIN_UOP();
    result.cycles += u->cost;
    result.halted = true;
    return result;
  }

  OP(Syscall) {
    BEGIN_UOP();
    ++result.syscalls;
    if (process_->dune_enabled()) {
      // Dune's libOS converts every syscall into a hypercall.
      result.cycles += cost.vmcall;
      auto r = process_->dune()->vmx().VmCall(dune::kHcSyscall, u->imm,
                                              regs[machine::Gpr::kRdi],
                                              regs[machine::Gpr::kRsi]);
      if (!r.ok()) {
        return fault_out(r.fault());
      }
      regs[machine::Gpr::kRax] = r.value();
    } else {
      result.cycles += cost.syscall;
      regs[machine::Gpr::kRax] = process_->DispatchSyscall(
          u->imm, regs[machine::Gpr::kRdi], regs[machine::Gpr::kRsi]);
    }
    END_UOP_ADV();
  }

  OP(Mprotect) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += u->cost;
    const bool open = u->imm != 0;
    for (auto& region : process_->safe_regions()) {
      machine::PageFlags flags = machine::PageFlags::Data();
      flags.user = open;
      flags.pkey = region.pkey;
      const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
      for (uint64_t p = 0; p < pages; ++p) {
        (void)process_->page_table().Protect(region.base + p * kPageSize, flags);
        process_->mmu().InvalidatePage(region.base + p * kPageSize);
      }
      region.mprotected = !open;
    }
    END_UOP_ADV();
  }

  OP(Bndcu) {
    BEGIN_UOP();
    result.cycles += u->cost;
    if (u->has_extra) {
      result.cycles += u->extra;
    }
    // A legacy-branch reset left this register in INIT state: reload it
    // from the bound table (the BNDPRESERVE=0 cost the paper avoids).
    auto& bnd = regs.bnd[u->imm];
    if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(u->imm))) {
      bnd = *process_->bnd_reload(static_cast<int>(u->imm));
      result.cycles += cost.bnd_table_load;
    }
    auto fault = mpx::CheckUpper(bnd, regs[static_cast<machine::Gpr>(u->src)]);
    if (fault.has_value()) {
      return fault_out(*fault);
    }
    END_UOP_ADV();
  }

  OP(Bndcl) {
    BEGIN_UOP();
    result.cycles += u->cost;
    if (u->has_extra) {
      result.cycles += u->extra;
    }
    auto& bnd = regs.bnd[u->imm];
    if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(u->imm))) {
      bnd = *process_->bnd_reload(static_cast<int>(u->imm));
      result.cycles += cost.bnd_table_load;
    }
    auto fault = mpx::CheckLower(bnd, regs[static_cast<machine::Gpr>(u->src)]);
    if (fault.has_value()) {
      return fault_out(*fault);
    }
    END_UOP_ADV();
  }

  OP(Wrpkru) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += u->cost;
    if (u->has_extra) {
      // rax/rcx/rdx clobbers force spills around dense call sites.
      result.cycles += u->extra;
    }
    mpk::WritePkru(regs, static_cast<uint32_t>(u->imm));
    END_UOP_ADV();
  }

  OP(Rdpkru) {
    BEGIN_UOP();
    result.cycles += u->cost;
    regs[static_cast<machine::Gpr>(u->dst)] = mpk::ReadPkru(regs);
    END_UOP_ADV();
  }

  OP(VmFunc) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += u->cost;
    if (!process_->dune_enabled()) {
      return fault_out({machine::FaultType::kGeneralProtection, u->imm,
                        machine::AccessType::kExecute});
    }
    auto r = process_->dune()->vmx().VmFunc(0, u->imm);
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    END_UOP_ADV();
  }

  OP(VmCall) {
    BEGIN_UOP();
    result.cycles += u->cost;
    if (!process_->dune_enabled()) {
      return fault_out({machine::FaultType::kGeneralProtection, u->imm,
                        machine::AccessType::kExecute});
    }
    auto r = process_->dune()->vmx().VmCall(u->imm, regs[machine::Gpr::kRdi],
                                            regs[machine::Gpr::kRsi], 0);
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    regs[machine::Gpr::kRax] = r.value();
    END_UOP_ADV();
  }

  OP(MFence) {
    BEGIN_UOP();
    result.cycles += u->cost;
    END_UOP_ADV();
  }

  OP(AesCryptRegion) {
    BEGIN_UOP();
    ++result.domain_switches;
    SafeRegion* region = process_->FindSafeRegion(regs[static_cast<machine::Gpr>(u->src)]);
    if (region == nullptr || !region->crypt) {
      return fault_out({machine::FaultType::kGeneralProtection,
                        regs[static_cast<machine::Gpr>(u->src)],
                        machine::AccessType::kRead});
    }
    const uint64_t size = u->imm == 0 ? region->size : u->imm;
    const uint64_t blocks = (size + aes::kBlockSize - 1) / aes::kBlockSize;
    result.cycles += cost.ymm_to_xmm_all_keys +
                     static_cast<double>(blocks) * (cost.aes_encdec_block / 2.0) +
                     static_cast<double>(u->target) * cost.xmm_spill;
    // CTR keystream staging from the executor's arena: a pointer bump per
    // crypt event instead of a heap allocation (crypt cells fire this on
    // every domain switch).
    arena_.Reset();
    uint8_t* bytes = arena_.AllocateArray<uint8_t>(size);
    if (!process_->PeekBytes(region->base, bytes, size).ok()) {
      return fault_out({machine::FaultType::kPageNotPresent, region->base,
                        machine::AccessType::kRead});
    }
    aes::CryptRegion(std::span<uint8_t>(bytes, size), region->enc_keys, region->nonce);
    (void)process_->PokeBytes(region->base, bytes, size);
    region->encrypted_now = !region->encrypted_now;
    END_UOP_ADV();
  }

  OP(EnclaveEnter) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += u->cost;
    if (process_->enclave() == nullptr) {
      return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
    }
    auto r = process_->enclave()->Enter(static_cast<uint32_t>(u->imm));
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    END_UOP_ADV();
  }

  OP(EnclaveExit) {
    BEGIN_UOP();
    result.cycles += u->cost;
    if (process_->enclave() == nullptr) {
      return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
    }
    auto r = process_->enclave()->Exit();
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    END_UOP_ADV();
  }

  OP(Trap) {
    BEGIN_UOP();
    result.trapped = true;
    return result;
  }

  OP(TrapIf) {
    BEGIN_UOP();
    result.cycles += u->cost;
    if (!regs.zero_flag) {
      result.trapped = true;
      return result;
    }
    END_UOP_ADV();
  }

#if !MEMSENTRY_USE_THREADED_DISPATCH
    default:
      assert(false && "µop with out-of-range handler index");
      std::abort();
  }
  std::abort();  // unreachable: every case returns or DISPATCH()es
#endif

limit_exit:
  result.hit_instruction_limit = true;
  {
    // Map the µop position back to its source instruction. A fused µop's
    // next unexecuted RegOp carries its own (block, index); a singleton µop
    // is its source instruction.
    const Uop& stop = df->uops[static_cast<size_t>(ui)];
    int32_t block = stop.block;
    int32_t index = stop.index;
    if (stop.fused) {
      const RegOp& r = df->regops[stop.fuse_start + skip];
      block = r.block;
      index = r.index;
    }
    result.cursor = RunCursor{true, func, block, index, call_depth};
  }
  return result;
}

#undef OP
#undef DISPATCH
#undef BEGIN_UOP
#undef END_UOP_COMMON
#undef END_UOP_ADV
#undef END_UOP_JMP

}  // namespace memsentry::sim
