#include "isa/interp.hpp"

namespace mcsim {

namespace {

struct FlatPort {
  FlatMemory& mem;
  Word load(const Instruction&, Addr ea) { return mem.read(ea); }
  void store(const Instruction&, Addr ea, Word v) { mem.write(ea, v); }
  Word rmw(const Instruction& inst, Addr ea, Word rs1, Word rs2) {
    const Word old = mem.read(ea);
    mem.write(ea, apply_rmw(inst.rmw, old, rs1, rs2));
    return old;
  }
};

}  // namespace

void InterpThread::step() {
  if (done()) return;
  const Instruction& inst = prog_->at(pc_);
  FlatPort port{*mem_};
  halted_ = inst.op == Opcode::kHalt;
  pc_ = execute(inst, pc_, regs_, port);
}

InterpResult interpret(const Program& prog, FlatMemory& mem, std::uint64_t max_steps) {
  for (const DataInit& d : prog.data()) mem.write(d.addr, d.value);
  InterpThread t(prog, mem);
  InterpResult r;
  while (!t.done() && r.instructions_executed < max_steps) {
    t.step();
    ++r.instructions_executed;
  }
  r.halted = t.done();
  for (RegId i = 0; i < kNumArchRegs; ++i) r.regs[i] = t.reg(i);
  return r;
}

}  // namespace mcsim
