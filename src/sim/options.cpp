#include "sim/options.hpp"

#include <type_traits>

namespace mcsim {

namespace {

constexpr Topology kTopologies[] = {Topology::kCrossbar, Topology::kRing, Topology::kMesh2D};
constexpr DirScheme kDirSchemes[] = {DirScheme::kFullMap, DirScheme::kLimitedPtr,
                                     DirScheme::kCoarseVector};
constexpr CoherenceKind kProtocols[] = {CoherenceKind::kInvalidation, CoherenceKind::kUpdate};

const char* protocol_flag(CoherenceKind k) {
  return k == CoherenceKind::kUpdate ? "upd" : "inv";
}

/// Sets `out` to the value of `values` that `name` renders as `v`, or
/// sets `err` to "unknown <what>: v (a|b|c)".
template <typename E, std::size_t N>
void parse_name(const std::string& v, const E (&values)[N],
                const char* (*name)(std::type_identity_t<E>), const char* what, E& out,
                std::string& err) {
  std::string choices;
  for (E e : values) {
    if (v == name(e)) {
      out = e;
      return;
    }
    choices += choices.empty() ? "" : "|";
    choices += name(e);
  }
  err = std::string("unknown ") + what + ": " + v + " (" + choices + ")";
}

}  // namespace

bool flag_value(const std::string& arg, std::string_view name, std::string& value) {
  if (arg.size() <= name.size() || arg.compare(0, name.size(), name) != 0 ||
      arg[name.size()] != '=') {
    return false;
  }
  value = arg.substr(name.size() + 1);
  return true;
}

bool parse_uint_flag(const std::string& arg, std::string_view name, std::uint64_t max,
                     std::uint64_t& out, std::string& err) {
  std::string text;
  if (!flag_value(arg, name, text)) return false;
  parse_uint(text, name, 0, max, out, err);
  return true;
}

bool parse_mem_flag(const std::string& arg, MemConfig& mem, std::string& err) {
  std::string v;
  if (flag_value(arg, "--topology", v)) {
    parse_name(v, kTopologies, to_string, "topology", mem.topology, err);
  } else if (flag_value(arg, "--protocol", v)) {
    parse_name(v, kProtocols, protocol_flag, "protocol", mem.coherence, err);
  } else if (flag_value(arg, "--dir-scheme", v)) {
    parse_name(v, kDirSchemes, to_string, "dir scheme", mem.dir_scheme, err);
  } else {
    return parse_uint_flag(arg, "--link-bw", mem.link_bw, err) ||
           parse_uint_flag(arg, "--link-queue", mem.link_queue, err) ||
           parse_uint_flag(arg, "--dir-ptrs", mem.dir_pointers, err) ||
           parse_uint_flag(arg, "--dir-cluster", mem.dir_cluster, err) ||
           parse_uint_flag(arg, "--dir-banks", mem.dir_banks, err);
  }
  return true;
}

const char* mem_flags_usage() {
  return "[--topology=crossbar|ring|mesh2d] [--link-bw=N] [--link-queue=N] "
         "[--protocol=inv|upd] [--dir-scheme=fullmap|limptr|coarse] [--dir-ptrs=N] "
         "[--dir-cluster=N] [--dir-banks=N]";
}

std::string mem_flags(const MemConfig& mem) {
  const MemConfig d;
  std::string out;
  auto add = [&](const char* flag, const std::string& value) {
    if (!out.empty()) out += ' ';
    out += flag;
    out += value;
  };
  if (mem.topology != d.topology) add("--topology=", to_string(mem.topology));
  if (mem.link_bw != d.link_bw) add("--link-bw=", std::to_string(mem.link_bw));
  if (mem.link_queue != d.link_queue) add("--link-queue=", std::to_string(mem.link_queue));
  if (mem.coherence != d.coherence) add("--protocol=", protocol_flag(mem.coherence));
  if (mem.dir_scheme != d.dir_scheme) add("--dir-scheme=", to_string(mem.dir_scheme));
  if (mem.dir_pointers != d.dir_pointers)
    add("--dir-ptrs=", std::to_string(mem.dir_pointers));
  if (mem.dir_cluster != d.dir_cluster)
    add("--dir-cluster=", std::to_string(mem.dir_cluster));
  if (mem.dir_banks != d.dir_banks) add("--dir-banks=", std::to_string(mem.dir_banks));
  return out;
}

OptionsResult parse_options(int argc, const char* const* argv) {
  OptionsResult r;
  std::uint32_t procs = 1;
  ConsistencyModel model = ConsistencyModel::kSC;
  bool ideal = false;
  std::uint32_t miss = 100;
  r.config = SystemConfig::realistic(1, model);

  auto fail = [&](const std::string& msg) {
    r.error = msg;
    return r;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v, err;
    if (arg == "--help" || arg == "-h") {
      r.show_help = true;
    } else if (flag_value(arg, "--model", v)) {
      if (v == "SC" || v == "sc") model = ConsistencyModel::kSC;
      else if (v == "PC" || v == "pc") model = ConsistencyModel::kPC;
      else if (v == "WC" || v == "wc") model = ConsistencyModel::kWC;
      else if (v == "RC" || v == "rc") model = ConsistencyModel::kRC;
      else return fail("unknown model: " + v);
    } else if (arg == "--spec") {
      r.config.core.speculative_loads = true;
    } else if (arg == "--no-spec") {
      r.config.core.speculative_loads = false;
    } else if (arg == "--prefetch") {
      r.config.core.prefetch = PrefetchMode::kNonBinding;
    } else if (flag_value(arg, "--prefetch", v)) {
      if (v == "off") r.config.core.prefetch = PrefetchMode::kOff;
      else if (v == "nonbinding") r.config.core.prefetch = PrefetchMode::kNonBinding;
      else if (v == "binding") r.config.core.prefetch = PrefetchMode::kBinding;
      else return fail("unknown prefetch mode: " + v);
    } else if (parse_uint_flag(arg, "--miss", miss, err)) {
      if (err.empty() && miss < 4) return fail("bad --miss: must be >= 4");
    } else if (arg == "--fastforward") {
      r.config.fastforward = true;
    } else if (arg == "--no-fastforward") {
      r.config.fastforward = false;
    } else if (arg == "--profile") {
      r.config.profile = true;
    } else if (parse_uint_flag(arg, "--profile-top-lines", r.config.profile_top_lines,
                               err)) {
      r.config.profile = true;  // asking for the table implies profiling
    } else if (arg == "--ideal") {
      ideal = true;
    } else if (arg == "--realistic") {
      ideal = false;
    } else if (parse_uint_flag(arg, "--procs", procs, err) ||
               parse_uint_flag(arg, "--rob", r.config.core.rob_entries, err) ||
               parse_uint_flag(arg, "--mshrs", r.config.cache.mshrs, err) ||
               parse_uint_flag(arg, "--max-cycles", r.config.max_cycles, err) ||
               parse_mem_flag(arg, r.config.mem, err)) {
      // Value stored, or `err` names the bad one.
    } else if (flag_value(arg, "--trace-out", r.trace_out)) {
      if (r.trace_out.empty()) return fail("bad --trace-out: empty path");
    } else if (flag_value(arg, "--trace-dir", r.trace_dir)) {
      if (r.trace_dir.empty()) return fail("bad --trace-dir: empty path");
    } else if (flag_value(arg, "--trace", v)) {
      if (v.empty()) return fail("bad --trace: empty path");
      r.trace_in.push_back(std::move(v));
    } else if (arg.rfind("--", 0) == 0) {
      return fail("unknown flag: " + arg);
    } else {
      r.positional.push_back(arg);
    }
    if (!err.empty()) return fail(err);
  }

  r.config.num_procs = procs;
  r.config.model = model;
  r.config.core.ideal_frontend = ideal;
  r.config.with_clean_miss_latency(miss);
  std::string err = r.config.validate();
  if (!err.empty()) return fail("invalid configuration: " + err);
  return r;
}

std::string options_help() {
  return
      "  --model=SC|PC|WC|RC      consistency model (default SC)\n"
      "  --procs=N                processor count (default 1)\n"
      "  --spec / --no-spec       speculative loads (paper <section> 4)\n"
      "  --prefetch[=off|nonbinding|binding]  hardware prefetch (paper <section> 3)\n"
      "  --miss=N                 clean-miss latency in cycles (default 100)\n"
      "  --protocol=inv|upd       coherence protocol (default inv)\n"
      "  --topology=crossbar|ring|mesh2d  interconnect (default crossbar:\n"
      "                           fixed latency; ring/mesh2d route hop-by-hop\n"
      "                           with link contention and back-pressure)\n"
      "  --link-bw=N              ring/mesh: messages per link per cycle\n"
      "                           (default 1, 0 = unlimited)\n"
      "  --link-queue=N           ring/mesh: per-link FIFO depth (default 8)\n"
      "  --dir-scheme=fullmap|limptr|coarse  directory sharer encoding\n"
      "                           (default fullmap: exact bit per processor;\n"
      "                           limptr: Dir_i_B pointers, broadcast on\n"
      "                           overflow; coarse: one bit per cluster)\n"
      "  --dir-ptrs=N             limptr: pointers per entry (default 4)\n"
      "  --dir-cluster=N          coarse: processors per bit (default 4)\n"
      "  --dir-banks=N            directory banks; lines hash across banks,\n"
      "                           each bank is its own home node on\n"
      "                           ring/mesh (default 1)\n"
      "  --ideal / --realistic    front-end model (default realistic)\n"
      "  --no-fastforward         tick every cycle instead of skipping\n"
      "                           quiescent spans (debugging; results are\n"
      "                           cycle-identical either way)\n"
      "  --rob=N --mshrs=N        capacity knobs\n"
      "  --profile                technique-efficacy profiler: per-prefetch\n"
      "                           outcome attribution, rollback causes, and\n"
      "                           the per-line sharing ledger\n"
      "  --profile-top-lines=N    rows in the contended-lines table\n"
      "                           (default 8; implies --profile)\n"
      "  --max-cycles=N           deadlock watchdog\n"
      "  --trace-out=PATH         write a Chrome trace-event timeline (open in\n"
      "                           Perfetto / chrome://tracing; 1 cycle = 1 us)\n"
      "  --trace=FILE             run a memory-op trace workload (text .mct or\n"
      "                           binary .mctb; repeatable, one cell per file)\n"
      "  --trace-dir=DIR          run every *.mct / *.mctb trace under DIR\n"
      "environment:\n"
      "  MCSIM_JOBS=N             worker threads for experiment sweeps\n";
}

}  // namespace mcsim
