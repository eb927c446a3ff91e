// One pass of a benchmark workload: every cell of the workload run
// once, serially, with its outputs checked. Host time is measured only
// around calls into the simulator's public API (nothing inside the
// library is instrumented), so the split across modules is an outside
// view: setup, Machine::run, and — in traced passes — a replay of
// Machine::step()'s stage order through the components' public tick
// calls on a second, identical machine.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/stall.hpp"

namespace perfbench {

enum class WorkloadId { kSpinBarrier8, kContendedP256, kLitmusFuzz };

/// Parses a workload name; false when unknown.
bool workload_from_name(const std::string& name, WorkloadId& out);

/// How strongly `w`'s host time follows the host's pace: a unit's
/// reference seconds are its host seconds times pace^elasticity.
/// Measured on the development host; see README.md, "Host speed".
double pace_elasticity(WorkloadId w);

/// Host seconds per layer, accumulated over one pass.
struct HostTimes {
  double wall = 0;           ///< the whole pass
  double trace_generate = 0; ///< generate_trace
  double trace_lower = 0;    ///< trace_to_workload
  double litmus_gen = 0;     ///< generate_litmus
  double construct = 0;      ///< Machine constructor + preloads
  double run = 0;            ///< Machine::run
  double sc_enum = 0;        ///< enumerate_sc_outcomes
  double check = 0;          ///< check_execution + SC-outcome membership
  double shrink = 0;         ///< shrink_failure
  double cross_check = 0;    ///< verify_litmus_cell agreement checks
  // Traced passes only: the stage-loop replay.
  double stage_loop = 0;
  double deliver = 0;    ///< Network::deliver
  double dir_tick = 0;   ///< DirectoryGroup::tick
  double cache_tick = 0; ///< CoherentCache::tick
  double core_tick = 0;  ///< Core::tick
  std::uint64_t deliver_calls = 0;
  std::uint64_t dir_tick_calls = 0;
  std::uint64_t cache_tick_calls = 0;
  std::uint64_t core_tick_calls = 0;

  /// Trace generation and lowering, litmus generation, Machine
  /// construction and preloads: the work done before any cycle runs.
  double setup() const { return trace_generate + trace_lower + litmus_gen + construct; }
  /// SC enumeration, cross-checks and shrinking: the litmus_fuzz work
  /// an untraced run does in its first pass only.
  double once() const { return sc_enum + cross_check + shrink; }
};

/// Host seconds of one unit of a pass: a trace's generation and
/// lowering, one trace cell, or one litmus program's simulation or
/// checking phase. Every pass of a workload has the same units in the
/// same order, so a unit's times can be compared across passes.
struct UnitTimes {
  double wall = 0;   ///< the unit, less HostTimes::once()
  double setup = 0;  ///< its share of HostTimes::setup()
  double run = 0;    ///< its share of HostTimes::run
  double pace = 0;   ///< reference seconds per host second around the unit
};

/// Modelled results of one pass. Deterministic in (workload, seed):
/// every field must repeat exactly from pass to pass.
struct Modelled {
  std::uint64_t cells = 0;
  std::uint64_t failed = 0;  ///< deadlock, validation, error, checker, SC escape
  std::uint64_t cycles = 0;  ///< RunResult.cycles, summed over cells
  std::uint64_t ticks = 0;   ///< RunResult.ticks, summed over cells
  std::uint64_t retired = 0;
  std::uint64_t squashes = 0;
  std::uint64_t reissues = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t prefetch_useful = 0;
  std::uint64_t msgs = 0;
  std::uint64_t trace_ops = 0;
  std::uint64_t sc_both_cycles = 0;
  std::uint64_t rc_both_cycles = 0;
  std::uint64_t sva_cells = 0;
  std::uint64_t arcs_checked = 0;
  mcsim::StallBreakdown stall{};  ///< summed over cores and cells
  mcsim::LogHistogram load_latency;
  mcsim::LogHistogram store_latency;
  mcsim::LogHistogram msg_latency;
  /// Per-cell (cycles, ticks, retired) in cell order: the fingerprint
  /// compared between passes.
  std::vector<std::array<std::uint64_t, 3>> per_cell;
  // Profiled (traced) passes only.
  std::uint64_t rb_invalidate = 0;
  std::uint64_t rb_update = 0;
  std::uint64_t rb_replacement = 0;
  std::uint64_t rb_flush = 0;
  mcsim::LogHistogram inv_fanout;

  /// Everything a profiled and an unprofiled pass must agree on.
  bool same_counts(const Modelled& o) const;
};

struct PassResult {
  HostTimes host;
  Modelled model;
  /// Benchmark errors: broken accounting identities, cross-check
  /// mismatches. Empty when every output check held. Failed cells are
  /// NOT errors; they are counted in model.failed and listed here:
  std::vector<std::string> errors;
  std::vector<std::string> failures;  ///< "<cell>: <reason>" per failed cell
  std::vector<UnitTimes> units;
  /// Process peak RSS once the pass's cells have been simulated (for
  /// litmus_fuzz, before its checkers run).
  double sim_peak_rss_mb = 0;
};

/// A litmus program's SC outcomes, as sorted 64-bit fingerprints;
/// nullopt when it has no oracle (the enumeration threw or stopped at
/// its state limit).
using ScOracle = std::optional<std::vector<std::uint64_t>>;

/// Run every cell of `w` once. A traced pass runs each cell profiled
/// and replays it through the timed stage loop on a fresh machine.
/// litmus_fuzz fills an empty `memo` with each program's SC outcomes
/// and, given a filled one, repeats the pass from it without
/// enumerating, cross-checking or shrinking; see litmus_pass().
PassResult run_pass(WorkloadId w, std::uint64_t seed, bool traced,
                    std::vector<ScOracle>* memo = nullptr);

}  // namespace perfbench
