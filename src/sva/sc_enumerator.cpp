#include "sva/sc_enumerator.hpp"

#include <map>
#include <stdexcept>
#include <string>

#include "isa/interp.hpp"

namespace mcsim {
namespace sva {

namespace {

struct ThreadState {
  std::size_t pc = 0;
  bool halted = false;
  RegFile regs{};
};

struct MachineState {
  std::vector<ThreadState> threads;
  std::map<Addr, Word> memory;  ///< overlay over zero-initialized memory

  std::string encode() const {
    std::string s;
    for (const ThreadState& t : threads) {
      s.append(reinterpret_cast<const char*>(&t.pc), sizeof t.pc);
      s.push_back(t.halted ? 1 : 0);
      s.append(reinterpret_cast<const char*>(t.regs.data()),
               t.regs.size() * sizeof(Word));
    }
    for (const auto& [a, v] : memory) {
      s.append(reinterpret_cast<const char*>(&a), sizeof a);
      s.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
    return s;
  }

  Word read(Addr a) const {
    auto it = memory.find(a & ~static_cast<Addr>(kWordBytes - 1));
    return it == memory.end() ? 0 : it->second;
  }
  void write(Addr a, Word v) { memory[a & ~static_cast<Addr>(kWordBytes - 1)] = v; }

  // The memory port execute() steps a thread through.
  Word load(const Instruction&, Addr a) const { return read(a); }
  void store(const Instruction&, Addr a, Word v) { write(a, v); }
  Word rmw(const Instruction& inst, Addr a, Word rs1, Word rs2) {
    const Word old = read(a);
    write(a, apply_rmw(inst.rmw, old, rs1, rs2));
    return old;
  }
};

/// Execute one instruction of thread `p` (SC: one atomic global step).
void step(MachineState& st, const Program& prog, std::size_t p) {
  ThreadState& t = st.threads[p];
  const Instruction& inst = prog.at(t.pc);
  t.halted = inst.op == Opcode::kHalt;
  t.pc = execute(inst, t.pc, t.regs, st);
}

}  // namespace

EnumerationResult enumerate_sc_outcomes(const std::vector<Program>& programs,
                                        std::uint64_t /*mem_bytes*/,
                                        const std::vector<Addr>& watch,
                                        std::uint64_t max_states) {
  for (const Program& p : programs) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      const Instruction& inst = p.at(i);
      if (inst.is_branch() && static_cast<std::size_t>(inst.imm) <= i)
        throw std::invalid_argument(
            "enumerate_sc_outcomes requires loop-free programs");
    }
  }

  MachineState init;
  init.threads.resize(programs.size());
  for (const Program& p : programs) {
    for (const DataInit& d : p.data()) init.write(d.addr, d.value);
  }

  EnumerationResult result;
  std::set<std::string> visited;
  std::vector<MachineState> stack{init};
  visited.insert(init.encode());

  while (!stack.empty()) {
    if (result.states_explored++ >= max_states) {
      result.complete = false;
      break;
    }
    MachineState st = std::move(stack.back());
    stack.pop_back();

    bool any_runnable = false;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      ThreadState& t = st.threads[p];
      if (t.halted || t.pc >= programs[p].size()) continue;
      any_runnable = true;
      MachineState next = st;
      step(next, programs[p], p);
      if (visited.insert(next.encode()).second) stack.push_back(std::move(next));
    }
    if (!any_runnable) {
      ScOutcome out;
      for (const ThreadState& t : st.threads) out.regs.push_back(t.regs);
      for (Addr a : watch) out.memory.push_back(st.read(a));
      result.outcomes.insert(std::move(out));
    }
  }
  return result;
}

}  // namespace sva
}  // namespace mcsim
