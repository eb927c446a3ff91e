// The ISA's one instruction semantics, and the reference interpreter
// built on it.
//
// execute() is what an instruction does architecturally: the
// interpreter, the SC enumerator (sva/sc_enumerator) and the execution
// checker's replay (sva/model_checker) all step programs through it,
// each with its own memory port, so the three oracles cannot disagree
// about an opcode. The interpreter is the golden model in tests: the
// out-of-order core, under any consistency model and with any
// combination of the paper's techniques enabled, must commit exactly
// the state it computes for single-processor programs.
#pragma once

#include <array>
#include <cstdint>

#include "common/flat_memory.hpp"
#include "isa/program.hpp"

namespace mcsim {

using RegFile = std::array<Word, kNumArchRegs>;

/// reg[base] + (reg[index] << scale_log2) + disp.
inline Addr effective_address(const MemOperand& m, const RegFile& regs) {
  return static_cast<Addr>(regs[m.base]) + (static_cast<Addr>(regs[m.index]) << m.scale_log2) +
         static_cast<Addr>(m.disp);
}

/// Apply `inst` (at `pc`) to `regs`, sending its memory access through
/// `mem`, and return the next pc. A halt returns `pc`: the processor
/// stays on it. Prefetches and fences do nothing architecturally. The
/// port provides
///   Word load(const Instruction&, Addr ea);
///   void store(const Instruction&, Addr ea, Word value);
///   Word rmw(const Instruction&, Addr ea, Word rs1, Word rs2);  // the old value
template <class Port>
std::size_t execute(const Instruction& inst, std::size_t pc, RegFile& regs, Port& mem) {
  std::size_t next_pc = pc + 1;
  switch (inst.op) {
    case Opcode::kHalt:
      return pc;
    case Opcode::kNop:
    case Opcode::kFence:
    case Opcode::kPrefetch:
    case Opcode::kPrefetchEx:
      break;
    case Opcode::kLoad:
      regs[inst.rd] = mem.load(inst, effective_address(inst.mem, regs));
      break;
    case Opcode::kStore:
      mem.store(inst, effective_address(inst.mem, regs), regs[inst.rs2]);
      break;
    case Opcode::kRmw:
      regs[inst.rd] =
          mem.rmw(inst, effective_address(inst.mem, regs), regs[inst.rs1], regs[inst.rs2]);
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kJmp:
      if (eval_branch(inst.op, regs[inst.rs1], regs[inst.rs2]))
        next_pc = static_cast<std::size_t>(inst.imm);
      break;
    default: {  // ALU
      const Word b = inst.has_imm_operand() ? static_cast<Word>(inst.imm) : regs[inst.rs2];
      regs[inst.rd] = eval_alu(inst, regs[inst.rs1], b);
      break;
    }
  }
  regs[0] = 0;  // r0 is hardwired to zero
  return next_pc;
}

struct InterpResult {
  RegFile regs{};
  std::uint64_t instructions_executed = 0;
  bool halted = false;  ///< false means the step limit was hit first
};

/// Execute `prog` to completion (or `max_steps`). Loads/stores go to
/// `mem`; data initializers in the program are applied first.
InterpResult interpret(const Program& prog, FlatMemory& mem,
                       std::uint64_t max_steps = 1'000'000);

/// Single-step interpreter state, for tests that interleave processors
/// by hand to enumerate sequentially consistent executions.
class InterpThread {
 public:
  InterpThread(const Program& prog, FlatMemory& mem) : prog_(&prog), mem_(&mem) {}

  bool done() const { return halted_ || pc_ >= prog_->size(); }
  std::size_t pc() const { return pc_; }
  Word reg(RegId r) const { return regs_[r]; }

  /// Execute exactly one instruction; no-op when done.
  void step();

 private:
  const Program* prog_;
  FlatMemory* mem_;
  RegFile regs_{};
  std::size_t pc_ = 0;
  bool halted_ = false;
};

}  // namespace mcsim
