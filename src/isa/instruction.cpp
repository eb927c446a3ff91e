#include "isa/instruction.hpp"

#include <sstream>

namespace mcsim {

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kAdd: return "add";
    case Opcode::kSub: return "sub";
    case Opcode::kAnd: return "and";
    case Opcode::kOr: return "or";
    case Opcode::kXor: return "xor";
    case Opcode::kSlt: return "slt";
    case Opcode::kSltu: return "sltu";
    case Opcode::kMul: return "mul";
    case Opcode::kShl: return "shl";
    case Opcode::kShr: return "shr";
    case Opcode::kAddi: return "addi";
    case Opcode::kAndi: return "andi";
    case Opcode::kOri: return "ori";
    case Opcode::kXori: return "xori";
    case Opcode::kSlti: return "slti";
    case Opcode::kLoad: return "ld";
    case Opcode::kStore: return "st";
    case Opcode::kRmw: return "rmw";
    case Opcode::kPrefetch: return "pf";
    case Opcode::kPrefetchEx: return "pfx";
    case Opcode::kFence: return "fence";
    case Opcode::kBeq: return "beq";
    case Opcode::kBne: return "bne";
    case Opcode::kBlt: return "blt";
    case Opcode::kBge: return "bge";
    case Opcode::kJmp: return "jmp";
  }
  return "?";
}

const char* to_string(RmwOp op) {
  switch (op) {
    case RmwOp::kTestAndSet: return "tas";
    case RmwOp::kFetchAdd: return "fadd";
    case RmwOp::kSwap: return "swap";
    case RmwOp::kCompareSwap: return "cas";
  }
  return "?";
}

namespace {

struct Reg {
  RegId id;
};
std::ostream& operator<<(std::ostream& os, Reg r) { return os << 'r' << unsigned(r.id); }

/// `[base+index<<scale+disp]`, leaving out what is zero. An index or a
/// scale is written after a base (`r0` if none), where the assembler
/// reads it as the index.
std::ostream& operator<<(std::ostream& os, const MemOperand& m) {
  const bool indexed = m.index != 0 || m.scale_log2 != 0;
  const bool regs = m.base != 0 || indexed;
  os << '[';
  if (regs) os << Reg{m.base};
  if (indexed) {
    os << '+' << Reg{m.index};
    if (m.scale_log2 != 0) os << "<<" << unsigned(m.scale_log2);
  }
  if (m.disp == 0 && regs) return os << ']';
  if (regs) os << '+';
  if (m.disp < 0)
    os << m.disp;
  else
    os << "0x" << std::hex << m.disp << std::dec;
  return os << ']';
}

const char* sync_suffix(SyncKind s) {
  switch (s) {
    case SyncKind::kNone: return "";
    case SyncKind::kAcquire: return ".acq";
    case SyncKind::kRelease: return ".rel";
  }
  return "";
}

}  // namespace

std::string disassemble(const Instruction& inst) {
  std::ostringstream os;
  os << (inst.is_rmw() ? to_string(inst.rmw) : to_string(inst.op));
  if (inst.is_load() || inst.is_store() || inst.is_rmw()) os << sync_suffix(inst.sync);
  if (inst.hint == BranchHint::kTaken) os << ".t";
  if (inst.hint == BranchHint::kNotTaken) os << ".nt";
  switch (inst.op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kFence:
      break;
    case Opcode::kLoad:
      os << ' ' << Reg{inst.rd} << ", " << inst.mem;
      break;
    case Opcode::kStore:
      os << ' ' << Reg{inst.rs2} << ", " << inst.mem;
      break;
    case Opcode::kRmw:
      os << ' ' << Reg{inst.rd} << ", " << inst.mem;
      if (inst.rmw == RmwOp::kCompareSwap) os << ", " << Reg{inst.rs1};
      if (inst.rmw != RmwOp::kTestAndSet) os << ", " << Reg{inst.rs2};
      break;
    case Opcode::kPrefetch:
    case Opcode::kPrefetchEx:
      os << ' ' << inst.mem;
      break;
    case Opcode::kJmp:
      os << " L" << inst.imm;
      break;
    default:
      if (inst.is_cond_branch()) {
        os << ' ' << Reg{inst.rs1} << ", " << Reg{inst.rs2} << ", L" << inst.imm;
        break;
      }
      os << ' ' << Reg{inst.rd} << ", " << Reg{inst.rs1} << ", ";  // ALU
      if (inst.has_imm_operand())
        os << inst.imm;
      else
        os << Reg{inst.rs2};
      break;
  }
  return os.str();
}

Word eval_alu(const Instruction& inst, Word a, Word b) {
  switch (inst.op) {
    case Opcode::kAdd: case Opcode::kAddi: return a + b;
    case Opcode::kSub: return a - b;
    case Opcode::kAnd: case Opcode::kAndi: return a & b;
    case Opcode::kOr: case Opcode::kOri: return a | b;
    case Opcode::kXor: case Opcode::kXori: return a ^ b;
    case Opcode::kSlt: case Opcode::kSlti:
      return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1 : 0;
    case Opcode::kSltu: return a < b ? 1 : 0;
    case Opcode::kMul: return a * b;
    case Opcode::kShl: return b >= 32 ? 0 : a << (b & 31);
    case Opcode::kShr: return b >= 32 ? 0 : a >> (b & 31);
    default: return 0;
  }
}

bool eval_branch(Opcode op, Word a, Word b) {
  switch (op) {
    case Opcode::kBeq: return a == b;
    case Opcode::kBne: return a != b;
    case Opcode::kBlt: return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
    case Opcode::kBge: return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
    case Opcode::kJmp: return true;
    default: return false;
  }
}

Word apply_rmw(RmwOp op, Word old, Word cmp, Word src) {
  switch (op) {
    case RmwOp::kTestAndSet: return 1;
    case RmwOp::kFetchAdd: return old + src;
    case RmwOp::kSwap: return src;
    case RmwOp::kCompareSwap: return old == cmp ? src : old;
  }
  return old;
}

}  // namespace mcsim
