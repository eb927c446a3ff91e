#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <map>
#include <vector>

#include "isa/builder.hpp"

namespace mcsim {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Split an operand list on commas (brackets protect their contents).
std::vector<std::string> split_operands(const std::string& s, std::size_t line) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (char c : s) {
    if (c == '[') ++depth;
    if (c == ']') {
      --depth;
      if (depth < 0) throw AsmError(line, "unbalanced ']'");
    }
    if (c == ',' && depth == 0) {
      out.push_back(strip(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (depth != 0) throw AsmError(line, "unbalanced '['");
  std::string last = strip(cur);
  if (!last.empty()) out.push_back(last);
  return out;
}

class Assembler {
 public:
  explicit Assembler(const std::string& source) : source_(source) {}

  Program run() {
    std::size_t pos = 0, line_no = 0;
    while (pos <= source_.size()) {
      std::size_t nl = source_.find('\n', pos);
      std::string raw = source_.substr(pos, nl == std::string::npos ? nl : nl - pos);
      pos = nl == std::string::npos ? source_.size() + 1 : nl + 1;
      ++line_no;
      parse_line(raw, line_no);
    }
    try {
      return builder_.build();
    } catch (const std::runtime_error& e) {
      throw AsmError(line_no, e.what());  // e.g. undefined branch label
    }
  }

 private:
  void parse_line(std::string text, std::size_t line) {
    // Strip comments.
    for (char marker : {';', '#'}) {
      std::size_t c = text.find(marker);
      if (c != std::string::npos) text = text.substr(0, c);
    }
    text = strip(text);
    if (text.empty()) return;

    // Labels (possibly followed by an instruction on the same line).
    std::size_t colon = text.find(':');
    if (colon != std::string::npos && text.find('[') > colon) {
      std::string name = strip(text.substr(0, colon));
      if (name.empty() || !is_identifier(name)) throw AsmError(line, "bad label name");
      try {
        builder_.label(name);
      } catch (const std::runtime_error& e) {
        throw AsmError(line, e.what());
      }
      parse_line(text.substr(colon + 1), line);
      return;
    }

    // Mnemonic and operands.
    std::size_t sp = text.find_first_of(" \t");
    std::string mn = lower(sp == std::string::npos ? text : text.substr(0, sp));
    std::string rest = sp == std::string::npos ? "" : strip(text.substr(sp));
    std::vector<std::string> ops = split_operands(rest, line);

    if (mn == ".sym") {
      auto parts = split_space(rest, line, 2);
      symbols_[parts[0]] = static_cast<Addr>(parse_number(parts[1], line));
      builder_.symbol(parts[0], static_cast<Addr>(parse_number(parts[1], line)));
      return;
    }
    if (mn == ".data") {
      auto parts = split_space(rest, line, 2);
      builder_.data(static_cast<Addr>(parse_number(parts[0], line)),
                    static_cast<Word>(parse_number(parts[1], line)));
      return;
    }

    emit(mn, ops, line);
  }

  static bool is_identifier(const std::string& s) {
    if (s.empty() || std::isdigit(static_cast<unsigned char>(s[0]))) return false;
    for (char c : s) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
    }
    return true;
  }

  std::vector<std::string> split_space(const std::string& s, std::size_t line,
                                       std::size_t expect) {
    std::vector<std::string> out;
    std::string cur;
    for (char c : s + " ") {
      if (c == ' ' || c == '\t') {
        if (!cur.empty()) out.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (out.size() != expect) throw AsmError(line, "expected " + std::to_string(expect) + " fields");
    return out;
  }

  std::int64_t parse_number(const std::string& s, std::size_t line) {
    if (s.empty()) throw AsmError(line, "empty number");
    auto it = symbols_.find(s);
    if (it != symbols_.end()) return static_cast<std::int64_t>(it->second);
    try {
      std::size_t used = 0;
      long long v = std::stoll(s, &used, 0);  // handles 0x..., decimal, negative
      if (used != s.size()) throw AsmError(line, "bad number: " + s);
      return v;
    } catch (const AsmError&) {
      throw;
    } catch (const std::exception&) {
      throw AsmError(line, "bad number or unknown symbol: " + s);
    }
  }

  RegId parse_reg(const std::string& s, std::size_t line) {
    if (s.size() < 2 || (s[0] != 'r' && s[0] != 'R'))
      throw AsmError(line, "expected register, got: " + s);
    std::int64_t n = parse_number(s.substr(1), line);
    if (n < 0 || n >= static_cast<std::int64_t>(kNumArchRegs))
      throw AsmError(line, "register out of range: " + s);
    return static_cast<RegId>(n);
  }

  static bool looks_like_reg(const std::string& s) {
    return s.size() >= 2 && (s[0] == 'r' || s[0] == 'R') &&
           std::isdigit(static_cast<unsigned char>(s[1]));
  }

  /// Parse "[...]" into a MemOperand: terms separated by '+', each a
  /// register (first = base, second = index, optionally "<< k") or a
  /// displacement number/symbol.
  MemOperand parse_mem(const std::string& s, std::size_t line) {
    if (s.size() < 2 || s.front() != '[' || s.back() != ']')
      throw AsmError(line, "expected memory operand [..], got: " + s);
    std::string inner = strip(s.substr(1, s.size() - 2));
    MemOperand m;
    bool have_base = false, have_index = false;
    std::size_t pos = 0;
    while (pos < inner.size()) {
      std::size_t plus = inner.find('+', pos);
      std::string term = strip(inner.substr(pos, plus == std::string::npos
                                                     ? std::string::npos
                                                     : plus - pos));
      pos = plus == std::string::npos ? inner.size() : plus + 1;
      if (term.empty()) throw AsmError(line, "empty term in memory operand");
      std::size_t shift = term.find("<<");
      if (shift != std::string::npos) {
        std::string rpart = strip(term.substr(0, shift));
        std::int64_t k = parse_number(strip(term.substr(shift + 2)), line);
        if (k < 0 || k > 31) throw AsmError(line, "bad shift in memory operand");
        if (have_index) throw AsmError(line, "two index registers");
        m.index = parse_reg(rpart, line);
        m.scale_log2 = static_cast<std::uint8_t>(k);
        have_index = true;
      } else if (looks_like_reg(term)) {
        if (!have_base) {
          m.base = parse_reg(term, line);
          have_base = true;
        } else if (!have_index) {
          m.index = parse_reg(term, line);
          have_index = true;
        } else {
          throw AsmError(line, "too many registers in memory operand");
        }
      } else {
        m.disp += parse_number(term, line);
      }
    }
    return m;
  }

  void need(const std::vector<std::string>& ops, std::size_t n, std::size_t line,
            const std::string& mn) {
    if (ops.size() != n)
      throw AsmError(line, mn + " expects " + std::to_string(n) + " operands, got " +
                               std::to_string(ops.size()));
  }

  void emit(const std::string& mn_full, const std::vector<std::string>& ops,
            std::size_t line) {
    // Split an optional suffix: ld.acq, st.rel, tas.rel, beq.t, bne.nt.
    const std::size_t dot = mn_full.find('.');
    const std::string mn = mn_full.substr(0, dot);
    const std::string suffix = dot == std::string::npos ? "" : mn_full.substr(dot + 1);
    // An RMW's flavour: .acq, .rel, or `plain` without a suffix.
    auto rmw_sync = [&](SyncKind plain) {
      return suffix == "acq"   ? SyncKind::kAcquire
             : suffix == "rel" ? SyncKind::kRelease
                               : plain;
    };
    // Reject a suffix not in `suffixes`, then a wrong operand count.
    auto operands = [&](std::size_t n, std::initializer_list<const char*> suffixes) {
      if (!suffix.empty() &&
          std::none_of(suffixes.begin(), suffixes.end(),
                       [&](const char* s) { return suffix == s; }))
        throw AsmError(line, mn + " takes no suffix ." + suffix);
      need(ops, n, line, mn);
    };
    auto reg = [&](std::size_t i) { return parse_reg(ops[i], line); };
    auto mem = [&](std::size_t i) { return parse_mem(ops[i], line); };

    if (mn == "nop" || mn == "halt" || mn == "fence") {
      operands(0, {});
      if (mn == "nop") builder_.nop();
      if (mn == "halt") builder_.halt();
      if (mn == "fence") builder_.fence();
      return;
    }
    if (mn == "li") {
      operands(2, {});
      builder_.addi(reg(0), 0, parse_number(ops[1], line));
      return;
    }
    if (mn == "mov") {
      operands(2, {});
      builder_.mov(reg(0), reg(1));
      return;
    }

    static const std::map<std::string, Opcode> kAlu = {
        {"add", Opcode::kAdd},   {"sub", Opcode::kSub},   {"and", Opcode::kAnd},
        {"or", Opcode::kOr},     {"xor", Opcode::kXor},   {"slt", Opcode::kSlt},
        {"sltu", Opcode::kSltu}, {"mul", Opcode::kMul},   {"shl", Opcode::kShl},
        {"shr", Opcode::kShr},   {"addi", Opcode::kAddi}, {"andi", Opcode::kAndi},
        {"ori", Opcode::kOri},   {"xori", Opcode::kXori}, {"slti", Opcode::kSlti}};
    if (auto it = kAlu.find(mn); it != kAlu.end()) {
      operands(3, {});
      Instruction raw;
      raw.op = it->second;
      raw.rd = reg(0);
      raw.rs1 = reg(1);
      if (raw.has_imm_operand())
        raw.imm = parse_number(ops[2], line);
      else
        raw.rs2 = reg(2);
      builder_.raw(raw);
      return;
    }

    if (mn == "ld") {
      operands(2, {"acq"});
      if (suffix.empty())
        builder_.load(reg(0), mem(1));
      else
        builder_.load_acq(reg(0), mem(1));
      return;
    }
    if (mn == "st") {
      operands(2, {"rel"});
      if (suffix.empty())
        builder_.store(reg(0), mem(1));
      else
        builder_.store_rel(reg(0), mem(1));
      return;
    }
    if (mn == "tas") {  // plain tas is acquire, the lock idiom
      operands(2, {"acq", "rel"});
      builder_.tas(reg(0), mem(1), rmw_sync(SyncKind::kAcquire));
      return;
    }
    if (mn == "fadd") {
      operands(3, {"acq", "rel"});
      builder_.fetch_add(reg(0), mem(1), reg(2), rmw_sync(SyncKind::kNone));
      return;
    }
    if (mn == "swap") {
      operands(3, {"acq", "rel"});
      builder_.swap(reg(0), mem(1), reg(2), rmw_sync(SyncKind::kNone));
      return;
    }
    if (mn == "cas") {
      operands(4, {"acq", "rel"});
      builder_.cas(reg(0), mem(1), reg(2), reg(3), rmw_sync(SyncKind::kNone));
      return;
    }
    if (mn == "pf" || mn == "pfx") {
      operands(1, {});
      if (mn == "pf")
        builder_.prefetch(mem(0));
      else
        builder_.prefetch_ex(mem(0));
      return;
    }

    if (mn == "beq" || mn == "bne" || mn == "blt" || mn == "bge") {
      operands(3, {"t", "nt"});
      RegId a = reg(0);
      RegId b = reg(1);
      const std::string& target = ops[2];
      if (!is_identifier(target)) throw AsmError(line, "branch target must be a label");
      const BranchHint h = suffix == "t"    ? BranchHint::kTaken
                           : suffix == "nt" ? BranchHint::kNotTaken
                                            : BranchHint::kNone;
      if (mn == "beq") builder_.beq(a, b, target, h);
      if (mn == "bne") builder_.bne(a, b, target, h);
      if (mn == "blt") builder_.blt(a, b, target, h);
      if (mn == "bge") builder_.bge(a, b, target, h);
      return;
    }
    if (mn == "jmp") {
      operands(1, {});
      if (!is_identifier(ops[0])) throw AsmError(line, "jmp target must be a label");
      builder_.jmp(ops[0]);
      return;
    }

    throw AsmError(line, "unknown mnemonic: " + mn_full);
  }

  std::string source_;
  ProgramBuilder builder_;
  std::map<std::string, Addr> symbols_;
};

}  // namespace

Program assemble(const std::string& source) {
  Assembler a(source);
  return a.run();
}

}  // namespace mcsim
