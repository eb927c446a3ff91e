#include "sva/reproducer.hpp"

#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "isa/assembler.hpp"
#include "sim/options.hpp"

namespace mcsim {
namespace sva {

namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string reg(RegId r) {
  // Appended rather than built with operator+, which GCC 12 at -O3
  // flags with a false-positive -Wrestrict.
  std::string s("r");
  s += std::to_string(r);
  return s;
}

std::string asm_mem(const MemOperand& m) {
  std::string s = "[";
  bool first = true;
  if (m.base != 0) {
    s += reg(m.base);
    first = false;
  }
  if (m.index != 0) {
    if (!first) s += "+";
    s += reg(m.index);
    if (m.scale_log2 != 0) s += "<<" + std::to_string(m.scale_log2);
    first = false;
  }
  if (m.disp != 0 || first) {
    if (!first) s += "+";
    s += m.disp < 0 ? std::to_string(m.disp) : hex(static_cast<std::uint64_t>(m.disp));
  }
  return s + "]";
}

const char* alu_mnemonic(Opcode op) {
  switch (op) {
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
    default: return nullptr;
  }
}

std::string asm_inst(const Instruction& i) {
  std::ostringstream os;
  switch (i.op) {
    case Opcode::kNop: return "nop";
    case Opcode::kHalt: return "halt";
    case Opcode::kFence: return "fence";
    case Opcode::kLoad:
      os << (i.sync == SyncKind::kAcquire ? "ld.acq " : "ld ") << reg(i.rd) << ", "
         << asm_mem(i.mem);
      return os.str();
    case Opcode::kStore:
      os << (i.sync == SyncKind::kRelease ? "st.rel " : "st ") << reg(i.rs2) << ", "
         << asm_mem(i.mem);
      return os.str();
    case Opcode::kRmw:
      switch (i.rmw) {
        case RmwOp::kTestAndSet:
          os << "tas " << reg(i.rd) << ", " << asm_mem(i.mem);
          break;
        case RmwOp::kFetchAdd:
          os << "fadd " << reg(i.rd) << ", " << asm_mem(i.mem) << ", " << reg(i.rs2);
          break;
        case RmwOp::kSwap:
          os << "swap " << reg(i.rd) << ", " << asm_mem(i.mem) << ", " << reg(i.rs2);
          break;
        case RmwOp::kCompareSwap:
          os << "cas " << reg(i.rd) << ", " << asm_mem(i.mem) << ", " << reg(i.rs1)
             << ", " << reg(i.rs2);
          break;
      }
      return os.str();
    case Opcode::kPrefetch: return "pf " + asm_mem(i.mem);
    case Opcode::kPrefetchEx: return "pfx " + asm_mem(i.mem);
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge: {
      const char* mn = i.op == Opcode::kBeq   ? "beq"
                       : i.op == Opcode::kBne ? "bne"
                       : i.op == Opcode::kBlt ? "blt"
                                              : "bge";
      os << mn;
      if (i.hint == BranchHint::kTaken) os << ".t";
      if (i.hint == BranchHint::kNotTaken) os << ".nt";
      os << ' ' << reg(i.rs1) << ", " << reg(i.rs2) << ", L" << i.imm;
      return os.str();
    }
    case Opcode::kJmp:
      os << "jmp L" << i.imm;
      return os.str();
    default:
      if (const char* mn = alu_mnemonic(i.op)) {
        os << mn << ' ' << reg(i.rd) << ", " << reg(i.rs1) << ", ";
        if (i.has_imm_operand())
          os << i.imm;
        else
          os << reg(i.rs2);
        return os.str();
      }
      throw std::runtime_error("reproducer: instruction not expressible in assembler: " +
                               disassemble(i));
  }
  return os.str();
}

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = '|';
  }
  return s;
}

}  // namespace

std::string program_to_asm(const Program& prog) {
  std::ostringstream os;
  for (const DataInit& d : prog.data())
    os << ".data " << hex(d.addr) << ' ' << d.value << '\n';
  std::set<std::int64_t> targets;
  for (const Instruction& i : prog.instructions()) {
    if (i.is_branch()) targets.insert(i.imm);
  }
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    if (targets.count(static_cast<std::int64_t>(pc))) os << 'L' << pc << ":\n";
    os << "  " << asm_inst(prog.at(pc)) << '\n';
  }
  // A branch may target one past the last instruction.
  if (targets.count(static_cast<std::int64_t>(prog.size())))
    os << 'L' << prog.size() << ":\n  nop\n";
  return os.str();
}

std::string to_reproducer_text(const Reproducer& r) {
  std::ostringstream os;
  os << ";; mcsim-reproducer v1\n";
  os << ";; seed " << r.litmus.seed << '\n';
  os << ";; model " << to_string(r.model) << '\n';
  os << ";; prefetch " << to_string(r.prefetch) << '\n';
  os << ";; spec " << (r.speculative_loads ? "on" : "off") << '\n';
  if (const std::string flags = mem_flags(r.mem); !flags.empty())
    os << ";; mem " << flags << '\n';
  if (!r.note.empty()) os << ";; note " << one_line(r.note) << '\n';
  for (Addr a : r.litmus.addrs) os << ";; addr " << hex(a) << '\n';
  for (const auto& [p, a] : r.litmus.preload_shared)
    os << ";; preload " << p << ' ' << hex(a) << '\n';
  for (std::size_t t = 0; t < r.litmus.programs.size(); ++t) {
    os << ";; thread " << t << '\n';
    os << program_to_asm(r.litmus.programs[t]);
  }
  return os.str();
}

Reproducer parse_reproducer(const std::string& text) {
  Reproducer r;
  std::vector<std::string> sections;  // assembler text per thread
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error("reproducer line " + std::to_string(line_no) + ": " + what);
  };
  // The next word of `meta`, read as an integer from 0 to `max`.
  auto number = [&](std::istringstream& meta, const char* what, std::uint64_t max) {
    std::string tok, err;
    std::uint64_t v = 0;
    meta >> tok;
    if (!parse_uint(tok, what, 0, max, v, err)) fail(err);
    return v;
  };
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind(";;", 0) != 0) {
      if (!sections.empty()) sections.back() += line + "\n";
      continue;
    }
    std::istringstream meta(line.substr(2));
    std::string key;
    meta >> key;
    if (key == "seed") {
      r.litmus.seed = number(meta, "seed", kAny);
    } else if (key == "model") {
      std::string m;
      meta >> m;
      if (m == "SC") r.model = ConsistencyModel::kSC;
      else if (m == "PC") r.model = ConsistencyModel::kPC;
      else if (m == "WC") r.model = ConsistencyModel::kWC;
      else if (m == "RC") r.model = ConsistencyModel::kRC;
      else fail("unknown model " + m);
    } else if (key == "prefetch") {
      std::string m;
      meta >> m;
      if (m == "off") r.prefetch = PrefetchMode::kOff;
      else if (m == "non-binding") r.prefetch = PrefetchMode::kNonBinding;
      else if (m == "binding") r.prefetch = PrefetchMode::kBinding;
      else fail("unknown prefetch mode " + m);
    } else if (key == "spec") {
      std::string m;
      meta >> m;
      r.speculative_loads = m == "on";
    } else if (key == "mem") {
      std::string flag, err;
      while (meta >> flag) {
        if (!parse_mem_flag(flag, r.mem, err)) fail("unknown mem flag " + flag);
        if (!err.empty()) fail(err);
      }
    } else if (key == "note") {
      std::getline(meta, r.note);
      if (!r.note.empty() && r.note.front() == ' ') r.note.erase(0, 1);
    } else if (key == "addr") {
      r.litmus.addrs.push_back(number(meta, "addr", kAny));
    } else if (key == "preload") {
      const auto p = static_cast<ProcId>(
          number(meta, "preload processor", std::numeric_limits<ProcId>::max()));
      r.litmus.preload_shared.push_back({p, number(meta, "preload address", kAny)});
    } else if (key == "thread") {
      if (number(meta, "thread", kAny) != sections.size()) fail("thread sections out of order");
      sections.emplace_back();
    }
    // Unknown ";;" keys (including the version banner) are ignored so
    // the format can grow without breaking old readers.
  }
  if (sections.empty()) throw std::runtime_error("reproducer: no thread sections");
  for (const auto& pre : r.litmus.preload_shared) {
    if (pre.first >= sections.size())
      throw std::runtime_error("reproducer: preload processor " + std::to_string(pre.first) +
                               " is not below the thread count " +
                               std::to_string(sections.size()));
  }
  for (std::size_t t = 0; t < sections.size(); ++t) {
    try {
      r.litmus.programs.push_back(assemble(sections[t]));
    } catch (const std::exception& e) {
      throw std::runtime_error("reproducer thread " + std::to_string(t) + ": " + e.what());
    }
  }
  return r;
}

bool write_reproducer(const std::string& path, const Reproducer& r) {
  std::ofstream out(path);
  if (!out) return false;
  out << to_reproducer_text(r);
  return static_cast<bool>(out);
}

Reproducer load_reproducer(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("reproducer: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_reproducer(buf.str());
}

}  // namespace sva
}  // namespace mcsim
