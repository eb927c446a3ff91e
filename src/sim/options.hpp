// Command-line configuration for examples and benches: turn
// `--model=RC --spec --prefetch --procs=4 --miss=200` into a
// SystemConfig, leaving positional arguments to the caller.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"

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

/// Directory-organisation flags (--dir-scheme= / --dir-ptrs= /
/// --dir-cluster= / --dir-banks=), shared by parse_options and the
/// benches that build their own configs: returns true when `arg` is one
/// of them (value applied to `mem`); a malformed value sets `err`.
bool parse_dir_flag(const std::string& arg, MemConfig& mem, std::string& err);

/// One-paragraph usage text listing the flags above.
std::string options_help();

}  // namespace mcsim
