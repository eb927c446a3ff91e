#include "trace/trace_format.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/config.hpp"
#include "common/parse_uint.hpp"

namespace mcsim {

namespace {

constexpr char kMagic[4] = {'M', 'C', 'T', 'R'};
constexpr std::uint32_t kBinaryVersion = 1;
constexpr const char* kTextHeader = "mcsim-trace v1";

const char* kMnemonics[kNumTraceOpKinds] = {
    "ld", "ld.acq", "st", "st.rel", "rmw", "rmw.acq", "lock", "unlock", "wait",
    "fence",
};

constexpr std::string_view kErrorPrefix = "trace: ";

[[noreturn]] void fail(const std::string& what) {
  throw TraceError(std::string(kErrorPrefix) + what);
}

// ---- little-endian primitives -----------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Bounds-checked cursor over the binary buffer: any read past the end
/// is a truncated file.
struct BinReader {
  const std::string& buf;
  std::size_t pos = 0;

  void need(std::size_t n, const char* what) {
    if (pos + n > buf.size())
      fail(std::string("truncated binary trace (reading ") + what + " at offset " +
           std::to_string(pos) + ")");
  }
  std::uint8_t u8(const char* what) {
    need(1, what);
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[pos++])) << (8 * i);
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[pos++])) << (8 * i);
    return v;
  }
  std::string str(const char* what) {
    std::uint32_t n = u32(what);
    need(n, what);
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

/// Reads `tok` as an integer in [min, max] or fails naming the line.
template <typename T = std::uint64_t>
T number_or_fail(const std::string& tok, std::size_t line, const char* what,
                 std::uint64_t min = 0, std::uint64_t max = std::numeric_limits<T>::max()) {
  std::uint64_t v = 0;
  std::string err;
  if (!parse_uint(tok, what, min, max, v, err))
    fail("line " + std::to_string(line) + ": " + err);
  return static_cast<T>(v);
}

std::string hex(Addr a) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(a));
  return buf;
}

}  // namespace

const char* to_string(TraceOpKind k) {
  auto i = static_cast<std::uint8_t>(k);
  return i < kNumTraceOpKinds ? kMnemonics[i] : "?";
}

void TraceFile::validate() const {
  if (ops.empty()) fail("no processors");
  if (ops.size() > 4096) fail("implausible processor count " + std::to_string(ops.size()));
  if (total_ops() == 0) fail("zero-op trace (no processor has any operation)");
  // Without a `mem` line the trace runs on the default memory, which no
  // flag changes.
  const std::uint64_t bound = mem_bytes != 0 ? mem_bytes : MemConfig{}.mem_bytes;
  for (std::uint32_t p = 0; p < num_procs(); ++p) {
    for (std::size_t i = 0; i < ops[p].size(); ++i) {
      const TraceOp& op = ops[p][i];
      if (static_cast<std::uint8_t>(op.kind) >= kNumTraceOpKinds)
        fail("proc " + std::to_string(p) + " op " + std::to_string(i) +
             ": unknown op kind " +
             std::to_string(static_cast<unsigned>(op.kind)));
      if (!op.has_addr()) continue;
      if (op.addr % kWordBytes != 0)
        fail("proc " + std::to_string(p) + " op " + std::to_string(i) +
             ": unaligned address " + hex(op.addr));
      if (bound < kWordBytes || op.addr > bound - kWordBytes)
        fail("proc " + std::to_string(p) + " op " + std::to_string(i) + ": address " +
             hex(op.addr) + " outside mem_bytes " + std::to_string(bound));
    }
  }
}

std::string write_trace_text(const TraceFile& t) {
  std::ostringstream out;
  out << kTextHeader << "\n";
  out << "procs " << t.num_procs() << "\n";
  if (!t.kind.empty()) out << "kind " << t.kind << "\n";
  for (const auto& [k, v] : t.params) out << "param " << k << " " << v << "\n";
  if (t.mem_bytes != 0) out << "mem " << hex(t.mem_bytes) << "\n";
  for (const auto& [a, v] : t.init) out << "init " << hex(a) << " " << v << "\n";
  for (const auto& [a, v] : t.expect) out << "expect " << hex(a) << " " << v << "\n";
  for (std::uint32_t p = 0; p < t.num_procs(); ++p) {
    for (const TraceOp& op : t.ops[p]) {
      out << p << " " << to_string(op.kind);
      if (op.has_addr()) out << " " << hex(op.addr);
      if (op.has_value()) out << " " << op.value;
      if (op.delay != 0) out << " +" << op.delay;
      out << "\n";
    }
  }
  return out.str();
}

std::string write_trace_binary(const TraceFile& t) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kBinaryVersion);
  put_u32(out, t.num_procs());
  put_u64(out, t.mem_bytes);
  put_str(out, t.kind);
  put_u32(out, static_cast<std::uint32_t>(t.params.size()));
  for (const auto& [k, v] : t.params) {
    put_str(out, k);
    put_str(out, v);
  }
  put_u32(out, static_cast<std::uint32_t>(t.init.size()));
  for (const auto& [a, v] : t.init) {
    put_u64(out, a);
    put_u32(out, v);
  }
  put_u32(out, static_cast<std::uint32_t>(t.expect.size()));
  for (const auto& [a, v] : t.expect) {
    put_u64(out, a);
    put_u32(out, v);
  }
  for (const auto& stream : t.ops) {
    put_u64(out, stream.size());
    for (const TraceOp& op : stream) {
      out.push_back(static_cast<char>(op.kind));
      put_u32(out, op.value);
      put_u32(out, op.delay);
      put_u64(out, op.addr);
    }
  }
  return out;
}

namespace {

TraceFile parse_trace_binary(const std::string& bytes) {
  BinReader r{bytes};
  r.pos = sizeof kMagic;  // caller checked the magic
  const std::uint32_t version = r.u32("version");
  if (version != kBinaryVersion)
    fail("unsupported binary trace version " + std::to_string(version));
  TraceFile t;
  const std::uint32_t nprocs = r.u32("processor count");
  if (nprocs == 0) fail("no processors");
  if (nprocs > 4096) fail("implausible processor count " + std::to_string(nprocs));
  t.mem_bytes = r.u64("mem_bytes");
  t.kind = r.str("kind");
  const std::uint32_t nparams = r.u32("param count");
  for (std::uint32_t i = 0; i < nparams; ++i) {
    std::string k = r.str("param key");
    t.params[k] = r.str("param value");
  }
  const std::uint32_t ninit = r.u32("init count");
  for (std::uint32_t i = 0; i < ninit; ++i) {
    Addr a = r.u64("init addr");
    Word v = r.u32("init value");
    t.init.emplace_back(a, v);
  }
  const std::uint32_t nexpect = r.u32("expect count");
  for (std::uint32_t i = 0; i < nexpect; ++i) {
    Addr a = r.u64("expect addr");
    Word v = r.u32("expect value");
    t.expect.emplace_back(a, v);
  }
  t.ops.resize(nprocs);
  for (std::uint32_t p = 0; p < nprocs; ++p) {
    const std::uint64_t n = r.u64("op count");
    if (n > (bytes.size() - r.pos) / 17 + 1)
      fail("truncated binary trace (proc " + std::to_string(p) + " claims " +
           std::to_string(n) + " ops past end of file)");
    t.ops[p].reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      TraceOp op;
      const std::uint8_t kind = r.u8("op kind");
      if (kind >= kNumTraceOpKinds)
        fail("proc " + std::to_string(p) + " op " + std::to_string(i) +
             ": unknown op kind " + std::to_string(kind));
      op.kind = static_cast<TraceOpKind>(kind);
      op.value = r.u32("op value");
      op.delay = r.u32("op delay");
      op.addr = r.u64("op addr");
      t.ops[p].push_back(op);
    }
  }
  if (r.pos != bytes.size())
    fail("trailing garbage after binary trace (offset " + std::to_string(r.pos) + ")");
  t.validate();
  return t;
}

TraceFile parse_trace_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  bool header_seen = false;
  bool procs_seen = false;
  TraceFile t;

  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments and surrounding whitespace.
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string w; ls >> w;) tok.push_back(w);
    if (tok.empty()) continue;

    if (!header_seen) {
      if (tok.size() != 2 || tok[0] + " " + tok[1] != kTextHeader)
        fail("line " + std::to_string(lineno) + ": expected '" +
             std::string(kTextHeader) + "' header");
      header_seen = true;
      continue;
    }
    if (tok[0] == "procs") {
      if (tok.size() != 2) fail("line " + std::to_string(lineno) + ": procs <N>");
      t.ops.resize(number_or_fail(tok[1], lineno, "processor count", 1, 4096));
      procs_seen = true;
      continue;
    }
    if (tok[0] == "kind") {
      if (tok.size() != 2) fail("line " + std::to_string(lineno) + ": kind <name>");
      t.kind = tok[1];
      continue;
    }
    if (tok[0] == "param") {
      if (tok.size() != 3) fail("line " + std::to_string(lineno) + ": param <key> <value>");
      t.params[tok[1]] = tok[2];
      continue;
    }
    if (tok[0] == "mem") {
      if (tok.size() != 2) fail("line " + std::to_string(lineno) + ": mem <bytes>");
      t.mem_bytes = number_or_fail(tok[1], lineno, "mem_bytes");
      continue;
    }
    if (tok[0] == "init" || tok[0] == "expect") {
      if (tok.size() != 3)
        fail("line " + std::to_string(lineno) + ": " + tok[0] + " <addr> <value>");
      Addr a = number_or_fail<Addr>(tok[1], lineno, "address");
      Word v = number_or_fail<Word>(tok[2], lineno, "value");
      (tok[0] == "init" ? t.init : t.expect).emplace_back(a, v);
      continue;
    }

    // Op line: <proc> <mnemonic> [<addr>] [<value>] [+<delay>]
    std::uint64_t proc = 0;
    std::string err;
    if (!parse_uint(tok[0], "processor id", 0, std::numeric_limits<std::uint64_t>::max(),
                    proc, err))
      fail("line " + std::to_string(lineno) + ": unknown directive '" + tok[0] + "'");
    if (!procs_seen) fail("line " + std::to_string(lineno) + ": op before 'procs' line");
    if (proc >= t.ops.size())
      fail("line " + std::to_string(lineno) + ": processor id " + tok[0] +
           " out of range (procs " + std::to_string(t.ops.size()) + ")");
    if (tok.size() < 2) fail("line " + std::to_string(lineno) + ": missing op kind");
    TraceOp op;
    bool known = false;
    for (std::uint8_t k = 0; k < kNumTraceOpKinds; ++k) {
      if (tok[1] == kMnemonics[k]) {
        op.kind = static_cast<TraceOpKind>(k);
        known = true;
        break;
      }
    }
    if (!known)
      fail("line " + std::to_string(lineno) + ": unknown op kind '" + tok[1] + "'");
    std::size_t next = 2;
    if (op.has_addr()) {
      if (next >= tok.size()) fail("line " + std::to_string(lineno) + ": missing address");
      op.addr = number_or_fail<Addr>(tok[next++], lineno, "address");
    }
    if (op.has_value()) {
      if (next >= tok.size()) fail("line " + std::to_string(lineno) + ": missing value");
      op.value = number_or_fail<Word>(tok[next++], lineno, "value");
    }
    if (next < tok.size() && tok[next][0] == '+') {
      op.delay = number_or_fail<std::uint32_t>(tok[next].substr(1), lineno, "delay");
      ++next;
    }
    if (next != tok.size())
      fail("line " + std::to_string(lineno) + ": trailing tokens after op");
    t.ops[proc].push_back(op);
  }
  if (!header_seen) fail("empty trace file (missing header)");
  if (!procs_seen) fail("missing 'procs' line");
  t.validate();
  return t;
}

}  // namespace

TraceFile parse_trace(const std::string& bytes) {
  if (bytes.size() >= sizeof kMagic &&
      bytes.compare(0, sizeof kMagic, kMagic, sizeof kMagic) == 0)
    return parse_trace_binary(bytes);
  return parse_trace_text(bytes);
}

TraceFile read_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) fail("cannot open '" + path + "'");
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) fail("I/O error reading '" + path + "'");
  try {
    return parse_trace(bytes);
  } catch (const TraceError& e) {
    // Name the file after the prefix the message already carries.
    std::string_view what = e.what();
    if (what.starts_with(kErrorPrefix)) what.remove_prefix(kErrorPrefix.size());
    fail("'" + path + "': " + std::string(what));
  }
}

bool save_trace(const TraceFile& t, const std::string& path, bool binary) {
  const std::string bytes = binary ? write_trace_binary(t) : write_trace_text(t);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

std::vector<std::string> list_trace_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) fail("'" + dir + "' is not a directory");
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    if (ext == ".mct" || ext == ".mctb") out.push_back(e.path().string());
  }
  if (ec) fail("cannot read directory '" + dir + "'");
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mcsim
