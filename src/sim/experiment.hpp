// ExperimentRunner: fan a declarative grid of independent simulation
// cells (workload × SystemConfig) out across a worker-thread pool.
//
// Every Machine is fully self-contained and deterministic (no shared
// mutable state between simulations), so a sweep is embarrassingly
// parallel: results are bit-identical whatever the worker count, and
// they are collected in submission order. This is how the paper's §5
// "extensive simulation experiments" scale on a multi-core host —
// harness-level parallelism over deterministic single-threaded cells.
//
//   ExperimentGrid grid("models");
//   grid.add(workload, config, "+both");
//   ExperimentRunner runner;                  // workers: MCSIM_JOBS or all cores
//   std::vector<CellResult> results = runner.run(grid);
//   write_json("BENCH_models.json", grid, results, runner.last_sweep());
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/access_record.hpp"
#include "common/config.hpp"
#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/profile.hpp"
#include "common/stall.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"

namespace mcsim {

/// Per-cell headline numbers every bench table reads (aggregated over
/// processors; per-processor vectors kept for deployment studies).
struct RunStats {
  Cycle cycles = 0;
  Cycle ticks = 0;  ///< machine cycles stepped; each stall breakdown sums to this
  std::uint64_t squashes = 0;
  std::uint64_t reissues = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t prefetch_useful = 0;
  std::vector<Cycle> drain_cycles;        ///< per-processor completion time
  std::vector<std::uint64_t> retired;     ///< instructions per processor
  std::vector<StallBreakdown> stall;      ///< per-processor cycles by cause
  // Latency distributions, merged across processors (net_latency is
  // machine-wide already). Empty (count()==0) when never sampled.
  LogHistogram load_latency;   ///< observed address-ready -> performed
  LogHistogram store_latency;
  LogHistogram store_release_latency;
  LogHistogram prefetch_to_use;
  LogHistogram net_latency;
  // Interconnect contention (ring/mesh topologies; empty on the
  // crossbar, which has no links): links traversed per message and
  // cycles spent queued beyond the contention-free latency.
  LogHistogram net_hops;
  LogHistogram net_queuing;
  /// Technique-efficacy profiler output (cfg.profile only; enabled is
  /// false — and every field empty — when the cell ran unprofiled).
  ProfileStats profile;
};

/// One simulation to run: a workload plus the machine to run it on.
/// `technique` and `tags` are free-form labels that flow into the JSON
/// report (model/workload names are derived from config/workload).
/// A non-empty `trace_out` enables the Chrome trace-event sink for the
/// run and writes the timeline to that path.
struct ExperimentCell {
  Workload workload;
  SystemConfig config;
  std::string technique;
  std::string trace_out;
  std::map<std::string, std::string> tags;
  /// Capture per-processor architectural access logs and final register
  /// files into the CellResult (the sva verification harness consumes
  /// them; costs memory proportional to accesses — off for benches).
  bool record_accesses = false;
  /// Memory words whose final values the CellResult reports (in order).
  std::vector<Addr> watch;
  /// Per-cell child RNG seed, derived from the sweep's master seed and
  /// the cell index (derive_child_seed) so a sweep's programs are
  /// identical whatever the worker count. 0 = not seeded; flows into
  /// the JSON report for replay.
  std::uint64_t seed = 0;
};

enum class CellStatus : std::uint8_t {
  kOk,
  kDeadlock,          ///< hit max_cycles before completion
  kValidationFailed,  ///< final memory state disagreed with workload.expected
  kError,             ///< configuration rejected / exception during the run
};

const char* to_string(CellStatus s);

struct CellResult {
  CellStatus status = CellStatus::kError;
  std::string error;     ///< human-readable detail for non-kOk cells
  RunStats stats;
  double wall_ms = 0.0;  ///< host wall-clock spent simulating this cell
  double sims_per_sec = 0.0;  ///< guest cycles (to drain) per host second
  /// Same wall clock at nanosecond resolution: fast-forwarded cells
  /// can finish in well under a millisecond, where wall_ms rounds the
  /// perf trajectory in BENCH_*.json away.
  std::uint64_t wall_ns = 0;
  /// Ticks (machine cycles actually simulated, the scheduler's real
  /// workload) per host second — the speedup metric for fast-forward.
  double sim_cycles_per_sec = 0.0;
  bool ok() const { return status == CellStatus::kOk; }
  /// "(workload, model, technique)" — for failure reports.
  std::string cell_label;
  /// Processors the cell actually ran with (trace cells resolve this at
  /// run time; 0 on cells that errored before the workload existed).
  std::uint32_t num_procs = 0;
  /// v6: trace provenance (kind/params/seed/op count) for the per-cell
  /// "trace" JSON object; empty for ordinary program workloads.
  std::map<std::string, std::string> trace_meta;
  std::string trace_path;           ///< where the timeline was written ("" = off)
  std::uint64_t trace_events = 0;   ///< timeline events recorded for this cell
  Json post_mortem;                 ///< machine snapshot; non-null only on deadlock
  // Architectural observation of the run, populated only when the cell
  // asked for it (record_accesses / watch): what the sva checkers and
  // the differential fuzzer compare across models and techniques.
  std::vector<std::vector<AccessRecord>> access_logs;  ///< per processor
  std::vector<Word> watch_values;                      ///< cell.watch order
  std::vector<std::array<Word, kNumArchRegs>> final_regs;  ///< per processor
};

/// A named list of cells; the name becomes the JSON report's "bench".
class ExperimentGrid {
 public:
  explicit ExperimentGrid(std::string name) : name_(std::move(name)) {}

  /// Returns the submission index of the new cell.
  std::size_t add(Workload workload, SystemConfig config, std::string technique = "",
                  std::map<std::string, std::string> tags = {});

  const std::string& name() const { return name_; }
  const std::vector<ExperimentCell>& cells() const { return cells_; }
  /// Mutable access for post-add tweaks (e.g. per-cell trace_out paths).
  ExperimentCell& cell(std::size_t i) { return cells_.at(i); }
  std::size_t size() const { return cells_.size(); }

 private:
  std::string name_;
  std::vector<ExperimentCell> cells_;
};

/// Aggregate timing of one runner.run() sweep, plus campaign-level
/// latency distributions merged across every ok cell (LogHistogram
/// merge is exact — identical to sampling the union, pinned by
/// stats_test) so a sweep's headline percentiles need no re-run.
struct SweepInfo {
  unsigned workers = 0;
  double wall_ms = 0.0;          ///< whole-sweep host wall clock
  std::uint64_t guest_cycles = 0;///< sum of per-cell simulated cycles
  LogHistogram agg_load_latency;
  LogHistogram agg_store_latency;
  LogHistogram agg_net_latency;
};

/// Run one cell synchronously (no validation skipping, no exit()):
/// deadlock, wrong final state and malformed trace files fail the
/// CELL, not the sweep.
CellResult run_cell(const ExperimentCell& cell);

class ExperimentRunner {
 public:
  /// `workers` = 0 resolves to the MCSIM_JOBS environment variable if
  /// set, else the host's hardware concurrency.
  explicit ExperimentRunner(unsigned workers = 0);

  /// Run every cell; results are indexed exactly like grid.cells()
  /// regardless of worker count or completion order.
  std::vector<CellResult> run(const ExperimentGrid& grid);

  unsigned workers() const { return workers_; }
  const SweepInfo& last_sweep() const { return last_sweep_; }

 private:
  unsigned workers_;
  SweepInfo last_sweep_;
};

/// Build the machine-readable report (schema: docs/INTERNALS.md
/// "Experiment runner & JSON schema").
Json results_to_json(const ExperimentGrid& grid, const std::vector<CellResult>& results,
                     const SweepInfo& sweep);

/// results_to_json + write to `path`. Returns false on I/O failure.
bool write_json(const std::string& path, const ExperimentGrid& grid,
                const std::vector<CellResult>& results, const SweepInfo& sweep);

/// Structural validation of a bench report against the mcsim-bench-v8
/// schema: required root/cell keys, percentile ordering, per-processor
/// cycle accounting, the per-cell trace object, and the profiler
/// conservation sums. Returns an
/// empty string when valid, else a description of the first violation.
/// Used by bench_smoke_test and the CI bench-smoke step.
std::string validate_bench_json(const Json& report);

}  // namespace mcsim
