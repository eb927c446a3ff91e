// Command-line configuration for examples and benches: turn
// `--model=RC --spec --prefetch --procs=4 --miss=200` into a
// SystemConfig, leaving positional arguments to the caller.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/parse_uint.hpp"

namespace mcsim {

struct OptionsResult {
  SystemConfig config;
  std::vector<std::string> positional;  ///< non-flag arguments, in order
  std::string trace_out;                ///< --trace-out=PATH (empty = no trace)
  /// Trace-frontend inputs: --trace=FILE may repeat (one cell per file);
  /// --trace-dir=DIR runs every *.mct / *.mctb under DIR.
  std::vector<std::string> trace_in;
  std::string trace_dir;
  bool show_help = false;               ///< --help/-h was given
  std::string error;                    ///< non-empty on a bad flag
  bool ok() const { return error.empty(); }
};

/// Flags (all optional; later flags win):
///   --model=SC|PC|WC|RC        consistency model        (default SC)
///   --procs=N                  processor count          (default 1)
///   --spec / --no-spec         speculative loads (§4)
///   --prefetch[=off|nonbinding|binding]   §3 technique; bare = nonbinding
///   --miss=N                   clean-miss latency in cycles (default 100)
///   --protocol=inv|upd         coherence protocol
///   --topology=crossbar|ring|mesh2d   interconnect     (default crossbar)
///   --link-bw=N --link-queue=N        ring/mesh link contention knobs
///   --ideal / --realistic      front-end model          (default realistic)
///   --fastforward / --no-fastforward  skip quiescent cycles (default on;
///                              cycle-identical either way)
///   --rob=N --mshrs=N          common capacity knobs
///   --max-cycles=N             deadlock watchdog
///   --trace-out=PATH           write a Chrome trace-event timeline
///   --trace=FILE               run a memory-op trace (repeatable)
///   --trace-dir=DIR            run every *.mct/*.mctb trace under DIR
///   --help
OptionsResult parse_options(int argc, const char* const* argv);

/// When `arg` is `name=VALUE`, stores VALUE and returns true.
bool flag_value(const std::string& arg, std::string_view name, std::string& value);

/// For numeric flags: when `arg` is `name=VALUE`, reads VALUE with
/// parse_uint (from 0 to `max`) and returns true.
bool parse_uint_flag(const std::string& arg, std::string_view name, std::uint64_t max,
                     std::uint64_t& out, std::string& err);

/// The same, bounded by the range of `out`'s type.
template <typename T>
bool parse_uint_flag(const std::string& arg, std::string_view name, T& out,
                     std::string& err) {
  std::uint64_t v = out;
  if (!parse_uint_flag(arg, name, std::numeric_limits<T>::max(), v, err)) return false;
  out = static_cast<T>(v);
  return true;
}

/// The memory-system flags, the only code that turns flag text into a
/// MemConfig: --topology= --link-bw= --link-queue= --protocol=
/// --dir-scheme= --dir-ptrs= --dir-cluster= --dir-banks=. Returns true
/// when `arg` is one of them (value applied to `mem`); a malformed
/// value sets `err`. parse_options and every bench read them here.
bool parse_mem_flag(const std::string& arg, MemConfig& mem, std::string& err);

/// The memory-system flags as one usage-line fragment.
const char* mem_flags_usage();

/// The inverse of parse_mem_flag: the flags, space-separated, that turn
/// MemConfig{} into `mem` ("" for the default machine). Fields no flag
/// sets (latencies, deliver_bw, mem_bytes) are not rendered.
std::string mem_flags(const MemConfig& mem);

/// One-paragraph usage text listing the flags above.
std::string options_help();

}  // namespace mcsim
