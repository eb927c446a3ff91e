// Per-processor memory-operation trace format — the trace-driven
// frontend's on-disk contract (the HybridSim / Cache-Simulator pattern:
// simulate recorded or generated memory-op streams instead of
// hand-written ISA programs).
//
// A trace is one operation stream per processor. Each operation names a
// kind (plain/acquire/release loads and stores, RMWs, lock/unlock,
// flag waits, fences), a word address, an optional value operand and an
// optional compute delay (cycles of local work before the op issues).
// Synchronization is expressed with blocking ops (`wait`, `lock`) so a
// fixed stream can still express producer/consumer handoff, mutual
// exclusion and barriers — the TraceCore driver lowers them onto the
// ISA's spin idioms, and the existing LSU/consistency policy path
// enforces the model exactly as for hand-written programs.
//
// Two encodings, losslessly interchangeable (pinned by
// tests/trace/workload_gen_test.cpp):
//
//   text    line-oriented, diffable, checked into test corpora:
//             mcsim-trace v1
//             procs 2
//             kind producer_consumer
//             param ops 96
//             mem 0x200000
//             init 0x30000 5
//             expect 0x30040 1
//             0 st 0x30000 5
//             0 st.rel 0x30040 1 +3      # +N = compute delay
//             1 wait 0x30040 1
//             1 ld 0x30000
//   binary  "MCTR" magic + fixed little-endian records, ~17 bytes/op,
//           for the 10^6-op campaigns.
//
// read_trace() auto-detects the encoding and throws TraceError (a
// std::runtime_error) on malformed input: truncated files, unknown op
// kinds, out-of-range processor ids and zero-op traces are all
// rejected with a message naming the offending record.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace mcsim {

/// Malformed trace (parse or validation failure). run_cell() catches it
/// like any other exception, so a bad trace fails its CELL (status
/// kError), never the sweep.
class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

enum class TraceOpKind : std::uint8_t {
  kLoad,          ///< ld: plain word load
  kLoadAcquire,   ///< ld.acq: acquire-annotated load
  kStore,         ///< st: plain word store of `value`
  kStoreRelease,  ///< st.rel: release-annotated store of `value`
  kRmw,           ///< rmw: atomic fetch&add of `value`
  kRmwAcquire,    ///< rmw.acq: acquire-annotated fetch&add
  kLock,          ///< lock: blocking test&set-acquire spin
  kUnlock,        ///< unlock: release-store of 0
  kWait,          ///< wait: block until mem[addr] == `value` (acquire spin)
  kFence,         ///< fence: full barrier annotation (no address)
};

/// Number of valid TraceOpKind values (binary decoding bound).
inline constexpr std::uint8_t kNumTraceOpKinds = 10;

const char* to_string(TraceOpKind k);

struct TraceOp {
  TraceOpKind kind = TraceOpKind::kLoad;
  Addr addr = 0;            ///< word address (ignored by kFence)
  Word value = 0;           ///< store value / RMW addend / wait target
  std::uint32_t delay = 0;  ///< compute cycles spent before this op issues

  bool has_value() const {
    return kind == TraceOpKind::kStore || kind == TraceOpKind::kStoreRelease ||
           kind == TraceOpKind::kRmw || kind == TraceOpKind::kRmwAcquire ||
           kind == TraceOpKind::kWait;
  }
  bool has_addr() const { return kind != TraceOpKind::kFence; }
  friend bool operator==(const TraceOp& a, const TraceOp& b) {
    return a.kind == b.kind && a.addr == b.addr && a.value == b.value &&
           a.delay == b.delay;
  }
};

/// One whole multiprocessor workload: per-processor op streams plus the
/// initial-memory image, the expected final state (run_cell validates
/// it, so a trace bench never reports timings from a miscomputing run)
/// and free-form metadata (generator kind/params/seed) that flows into
/// the bench JSON per cell.
struct TraceFile {
  std::string kind;  ///< workload family name ("" for external traces)
  std::map<std::string, std::string> params;  ///< generator knobs, incl. seed
  std::uint64_t mem_bytes = 0;                ///< minimum simulated memory (0 = default)
  std::vector<std::pair<Addr, Word>> init;    ///< memory image before the run
  std::vector<std::pair<Addr, Word>> expect;  ///< required final memory state
  std::vector<std::vector<TraceOp>> ops;      ///< ops[p] = processor p's stream

  std::uint32_t num_procs() const { return static_cast<std::uint32_t>(ops.size()); }
  std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const auto& v : ops) n += v.size();
    return n;
  }
  friend bool operator==(const TraceFile& a, const TraceFile& b) {
    return a.kind == b.kind && a.params == b.params && a.mem_bytes == b.mem_bytes &&
           a.init == b.init && a.expect == b.expect && a.ops == b.ops;
  }

  /// Structural validation shared by both decoders and the generators:
  /// at least one processor, at least one op in total, every address
  /// word-aligned and inside mem_bytes (MemConfig{}.mem_bytes when
  /// unset: the memory such a trace runs on). Throws TraceError.
  void validate() const;
};

// ---- encoding / decoding ----------------------------------------------

/// Render as the line-oriented text encoding (ends with '\n').
std::string write_trace_text(const TraceFile& t);

/// Render as the compact binary encoding ("MCTR" magic).
std::string write_trace_binary(const TraceFile& t);

/// Parse either encoding from an in-memory buffer (auto-detected by the
/// binary magic). Throws TraceError on malformed input.
TraceFile parse_trace(const std::string& bytes);

/// Load and parse a trace file. Throws TraceError (also for I/O
/// failures: missing file, unreadable path).
TraceFile read_trace(const std::string& path);

/// Serialize (binary when `binary`, else text) and write to `path`.
/// Returns false on I/O failure.
bool save_trace(const TraceFile& t, const std::string& path, bool binary);

/// Every *.mct / *.mctb file directly under `dir`, sorted by name (so
/// --trace-dir sweeps enumerate cells in a deterministic order).
/// Throws TraceError if `dir` is not a readable directory.
std::vector<std::string> list_trace_files(const std::string& dir);

}  // namespace mcsim
