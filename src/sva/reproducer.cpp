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
    // The assembler reads a flavourless tas as tas.acq.
    if (i.is_rmw() && i.rmw == RmwOp::kTestAndSet && i.sync == SyncKind::kNone)
      throw std::runtime_error("reproducer: instruction not expressible in assembler: " +
                               disassemble(i));
    if (i.is_branch()) targets.insert(i.imm);
  }
  for (std::size_t pc = 0; pc < prog.size(); ++pc) {
    if (targets.count(static_cast<std::int64_t>(pc))) os << 'L' << pc << ":\n";
    os << "  " << disassemble(prog.at(pc)) << '\n';
  }
  // A branch may target one past the last instruction.
  if (targets.count(static_cast<std::int64_t>(prog.size()))) os << 'L' << prog.size() << ":\n";
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
