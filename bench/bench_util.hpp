// Shared helpers for the benchmark drivers, built on the sim-layer
// ExperimentRunner types: run a workload under a configuration and
// validate its expected final state (a bench must never report timings
// from a miscomputing run). Validation failure marks the CELL failed —
// callers check `ok()` and report the failing (workload, model,
// technique) triple instead of the old std::exit(1) mid-sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace bench {

using mcsim::CellResult;
using mcsim::RunStats;

/// Run one (workload, config) cell synchronously. Never exits: a
/// deadlocked or miscomputing run comes back with a non-ok status and
/// a message naming the failing cell.
inline CellResult run_workload(const Workload& w, SystemConfig cfg,
                               std::string technique = "") {
  ExperimentCell cell;
  cell.workload = w;
  cell.config = std::move(cfg);
  cell.technique = std::move(technique);
  return run_cell(cell);
}

/// Print every failed cell of a sweep to stderr; returns the number of
/// failures (bench main()s turn that into the exit code).
inline int report_failures(const std::vector<CellResult>& results) {
  int failures = 0;
  for (const CellResult& r : results) {
    if (!r.ok()) {
      ++failures;
      std::fprintf(stderr, "FAILED cell %s: %s\n", r.cell_label.c_str(),
                   r.error.c_str());
    }
  }
  return failures;
}

inline SystemConfig tech_config(ConsistencyModel model, bool prefetch, bool spec,
                                bool realistic_frontend = true) {
  SystemConfig cfg = realistic_frontend
                         ? SystemConfig::realistic(1, model)
                         : SystemConfig::paper_default(1, model);
  cfg.core.prefetch = prefetch ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  cfg.core.speculative_loads = spec;
  return cfg;
}

/// Wrap a raw per-processor program list as a Workload (for benches
/// that build Programs directly rather than using sim/workloads.hpp).
inline Workload make_adhoc_workload(std::string name, std::vector<Program> programs) {
  Workload w;
  w.name = std::move(name);
  w.programs = std::move(programs);
  return w;
}

/// Point every cell of a grid at a trace file: PATH for a single-cell
/// grid, PATH.cell<i> per cell otherwise (one timeline per Machine).
inline void apply_trace_out(ExperimentGrid& grid, const std::string& path) {
  if (path.empty()) return;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid.cell(i).trace_out =
        grid.size() == 1 ? path : path + ".cell" + std::to_string(i);
  }
}

}  // namespace bench
}  // namespace mcsim
