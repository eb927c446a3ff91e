// The mcsim ISA: a small RISC-like instruction set rich enough to
// express the paper's workloads (spin locks, flag synchronization,
// dependent loads like `read E[D]`, critical sections) and the two
// techniques' software-visible hooks (acquire/release flavors, RMWs,
// software prefetch, fences).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace mcsim {

enum class Opcode : std::uint8_t {
  kNop,
  kHalt,  ///< terminate this processor's program

  // ALU register-register
  kAdd, kSub, kAnd, kOr, kXor, kSlt, kSltu, kMul, kShl, kShr,
  // ALU register-immediate
  kAddi, kAndi, kOri, kXori, kSlti,

  // Memory (word-sized; addressing mode base + index*scale + disp)
  kLoad,   ///< rd <- mem[ea]; sync flavor kNone or kAcquire
  kStore,  ///< mem[ea] <- rs2; sync flavor kNone or kRelease
  kRmw,    ///< atomic read-modify-write, see RmwOp; flavor may be kAcquire

  // Software non-binding prefetch (related-work extension, §6)
  kPrefetch,    ///< hint: fetch line at ea in shared state
  kPrefetchEx,  ///< hint: fetch line at ea in exclusive state

  kFence,  ///< full fence: all previous accesses perform before any later one

  // Control flow; imm holds the absolute target instruction index
  kBeq, kBne, kBlt, kBge,
  kJmp,
};

/// Atomic read-modify-write operations (paper Appendix A).
enum class RmwOp : std::uint8_t {
  kTestAndSet,   ///< rd <- old; mem <- 1
  kFetchAdd,     ///< rd <- old; mem <- old + rs2
  kSwap,         ///< rd <- old; mem <- rs2
  kCompareSwap,  ///< rd <- old; if (old == rs1) mem <- rs2
};

/// Static branch-prediction hint. The paper's examples assume "the
/// branch predictor takes the path that assumes the lock
/// synchronization succeeds"; a hint models that cleanly while the BTB
/// handles unhinted branches dynamically.
enum class BranchHint : std::uint8_t { kNone, kTaken, kNotTaken };

/// Effective address = reg[base] + (reg[index] << scale_log2) + disp.
/// `read E[D]` from the paper is Load rd, [r0 + rD<<2 + E_base].
struct MemOperand {
  RegId base = 0;
  RegId index = 0;        ///< r0 (always zero) disables indexing
  std::uint8_t scale_log2 = 0;
  std::int64_t disp = 0;

  bool operator==(const MemOperand&) const = default;
};

struct Instruction {
  Opcode op = Opcode::kNop;
  RegId rd = 0;
  RegId rs1 = 0;
  RegId rs2 = 0;
  std::int64_t imm = 0;  ///< ALU immediate or branch target index
  MemOperand mem;
  SyncKind sync = SyncKind::kNone;
  RmwOp rmw = RmwOp::kTestAndSet;
  BranchHint hint = BranchHint::kNone;

  bool operator==(const Instruction&) const = default;
  bool is_mem() const {
    return op == Opcode::kLoad || op == Opcode::kStore || op == Opcode::kRmw ||
           op == Opcode::kPrefetch || op == Opcode::kPrefetchEx;
  }
  bool is_load() const { return op == Opcode::kLoad; }
  bool is_store() const { return op == Opcode::kStore; }
  bool is_rmw() const { return op == Opcode::kRmw; }
  bool is_branch() const {
    return op == Opcode::kBeq || op == Opcode::kBne || op == Opcode::kBlt ||
           op == Opcode::kBge || op == Opcode::kJmp;
  }
  bool is_cond_branch() const { return is_branch() && op != Opcode::kJmp; }
  bool is_fence() const { return op == Opcode::kFence; }
  bool is_sw_prefetch() const {
    return op == Opcode::kPrefetch || op == Opcode::kPrefetchEx;
  }
  bool is_alu() const {
    switch (op) {
      case Opcode::kAdd: case Opcode::kSub: case Opcode::kAnd: case Opcode::kOr:
      case Opcode::kXor: case Opcode::kSlt: case Opcode::kSltu: case Opcode::kMul:
      case Opcode::kShl: case Opcode::kShr: case Opcode::kAddi: case Opcode::kAndi:
      case Opcode::kOri: case Opcode::kXori: case Opcode::kSlti:
        return true;
      default:
        return false;
    }
  }
  bool has_imm_operand() const {
    switch (op) {
      case Opcode::kAddi: case Opcode::kAndi: case Opcode::kOri:
      case Opcode::kXori: case Opcode::kSlti:
        return true;
      default:
        return false;
    }
  }
  /// Does this instruction write register rd?
  bool writes_rd() const {
    return is_alu() || op == Opcode::kLoad || op == Opcode::kRmw;
  }
  bool is_acquire() const { return sync == SyncKind::kAcquire; }
  bool is_release() const { return sync == SyncKind::kRelease; }
};

const char* to_string(Opcode op);
const char* to_string(RmwOp op);

/// One line of assembler source (isa/assembler), e.g.
/// "ld.acq r3, [r1+r2<<2+0x10]"; a branch target is the label `L<n>` of
/// instruction n. The assembler reads it back as the same instruction,
/// except a `tas` with no flavour, which it reads as `tas.acq`.
std::string disassemble(const Instruction& inst);

/// Evaluate a pure ALU operation (shared by the core's execute stage
/// and the reference interpreter so the two can never diverge).
Word eval_alu(const Instruction& inst, Word a, Word b);

/// Evaluate a conditional branch predicate.
bool eval_branch(Opcode op, Word a, Word b);

/// Apply an RMW's write function to the old memory value.
Word apply_rmw(RmwOp op, Word old, Word cmp, Word src);

}  // namespace mcsim
