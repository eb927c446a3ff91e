#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace {

ExperimentGrid small_grid() {
  ExperimentGrid grid("determinism");
  for (ConsistencyModel model :
       {ConsistencyModel::kSC, ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    for (bool both : {false, true}) {
      SystemConfig cfg = SystemConfig::paper_default(2, model);
      cfg.core.prefetch = both ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
      cfg.core.speculative_loads = both;
      grid.add(make_producer_consumer(2, 6), cfg, both ? "+both" : "baseline");
      grid.add(make_critical_sections(2, 3, 2), cfg, both ? "+both" : "baseline");
    }
  }
  return grid;
}

void expect_identical(const CellResult& a, const CellResult& b, std::size_t i) {
  EXPECT_EQ(a.status, b.status) << "cell " << i;
  EXPECT_EQ(a.stats.cycles, b.stats.cycles) << "cell " << i;
  EXPECT_EQ(a.stats.squashes, b.stats.squashes) << "cell " << i;
  EXPECT_EQ(a.stats.reissues, b.stats.reissues) << "cell " << i;
  EXPECT_EQ(a.stats.prefetches, b.stats.prefetches) << "cell " << i;
  EXPECT_EQ(a.stats.prefetch_useful, b.stats.prefetch_useful) << "cell " << i;
  EXPECT_EQ(a.stats.load_latency.mean(), b.stats.load_latency.mean()) << "cell " << i;
  EXPECT_EQ(a.stats.store_latency.mean(), b.stats.store_latency.mean()) << "cell " << i;
  EXPECT_EQ(a.stats.drain_cycles, b.stats.drain_cycles) << "cell " << i;
  EXPECT_EQ(a.stats.retired, b.stats.retired) << "cell " << i;
}

TEST(ExperimentRunner, ParallelSweepIsBitIdenticalToSerial) {
  ExperimentGrid grid = small_grid();
  std::vector<CellResult> serial = ExperimentRunner(1).run(grid);
  std::vector<CellResult> parallel = ExperimentRunner(4).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(serial[i].ok()) << serial[i].cell_label << ": " << serial[i].error;
    expect_identical(serial[i], parallel[i], i);
  }
}

TEST(ExperimentRunner, ObservationAndChildSeedsAreWorkerCountInvariant) {
  // Satellite of the differential fuzzer: cells that record access logs,
  // watch memory words, and carry derive_child_seed() seeds must produce
  // bit-identical observations from a 1-worker and a 4-worker sweep —
  // the fuzz campaign's per-cell programs depend only on (master, index).
  const std::uint64_t master = 0xfeedbeefULL;
  auto build = [&] {
    ExperimentGrid grid = small_grid();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ExperimentCell& c = grid.cell(i);
      c.record_accesses = true;
      c.watch = {c.workload.expected.empty() ? Addr{0}
                                             : c.workload.expected[0].first};
      c.seed = derive_child_seed(master, i);
    }
    return grid;
  };
  ExperimentGrid grid = build();
  // Child seeds depend only on (master, index), never on scheduling.
  for (std::size_t i = 0; i < grid.size(); ++i)
    EXPECT_EQ(grid.cells()[i].seed, derive_child_seed(master, i)) << i;
  std::vector<CellResult> serial = ExperimentRunner(1).run(grid);
  std::vector<CellResult> parallel = ExperimentRunner(4).run(build());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].cell_label << ": " << serial[i].error;
    expect_identical(serial[i], parallel[i], i);
    EXPECT_EQ(serial[i].watch_values, parallel[i].watch_values) << "cell " << i;
    EXPECT_EQ(serial[i].final_regs, parallel[i].final_regs) << "cell " << i;
    ASSERT_EQ(serial[i].access_logs.size(), parallel[i].access_logs.size());
    EXPECT_FALSE(serial[i].access_logs.empty()) << "cell " << i;
    for (std::size_t p = 0; p < serial[i].access_logs.size(); ++p) {
      const auto& sa = serial[i].access_logs[p];
      const auto& pa = parallel[i].access_logs[p];
      ASSERT_EQ(sa.size(), pa.size()) << "cell " << i << " proc " << p;
      for (std::size_t k = 0; k < sa.size(); ++k) {
        EXPECT_EQ(sa[k].addr, pa[k].addr);
        EXPECT_EQ(sa[k].value, pa[k].value);
        EXPECT_EQ(sa[k].performed_at, pa[k].performed_at);
      }
    }
  }
  // The seed a cell ran with flows into the JSON report for replay.
  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  Json report = results_to_json(grid, results, runner.last_sweep());
  ASSERT_GE(report["cells"].size(), 1u);
  EXPECT_TRUE(report["cells"][0].contains("seed"));
  EXPECT_EQ(report["cells"][0]["seed"].as_uint(), derive_child_seed(master, 0));
}

TEST(ExperimentRunner, ResultsArriveInSubmissionOrder) {
  // Mix long and short cells so completion order differs from
  // submission order under any parallel schedule.
  ExperimentGrid grid("order");
  std::size_t big = grid.add(make_producer_consumer(4, 24),
                             SystemConfig::paper_default(4, ConsistencyModel::kSC));
  std::size_t tiny = grid.add(make_producer_consumer(2, 1),
                              SystemConfig::paper_default(2, ConsistencyModel::kRC));
  ASSERT_EQ(big, 0u);
  ASSERT_EQ(tiny, 1u);
  std::vector<CellResult> results = ExperimentRunner(2).run(grid);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_GT(results[0].stats.cycles, results[1].stats.cycles);
  EXPECT_EQ(results[0].stats.cycles, run_cell(grid.cells()[0]).stats.cycles);
  EXPECT_EQ(results[1].stats.cycles, run_cell(grid.cells()[1]).stats.cycles);
}

TEST(ExperimentRunner, ValidationFailureIsReportedPerCell) {
  Workload w = make_producer_consumer(2, 4);
  w.name = "rigged";
  ASSERT_FALSE(w.expected.empty());
  w.expected[0].second += 1;  // corrupt one expectation: the run must flag it
  ExperimentGrid grid("failures");
  grid.add(w, SystemConfig::paper_default(2, ConsistencyModel::kSC), "+rigged");
  grid.add(make_producer_consumer(2, 4),
           SystemConfig::paper_default(2, ConsistencyModel::kSC));
  std::vector<CellResult> results = ExperimentRunner(2).run(grid);
  EXPECT_EQ(results[0].status, CellStatus::kValidationFailed);
  // The failing cell names its (workload, model, technique) coordinates.
  EXPECT_NE(results[0].cell_label.find("rigged"), std::string::npos);
  EXPECT_NE(results[0].cell_label.find("SC"), std::string::npos);
  EXPECT_NE(results[0].cell_label.find("+rigged"), std::string::npos);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[1].ok()) << results[1].error;
}

TEST(ExperimentRunner, DeadlockFailsTheCellNotTheSweep) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.max_cycles = 10;  // far too few to finish: reported as deadlock
  ExperimentGrid grid("deadlock");
  grid.add(make_producer_consumer(2, 6), cfg);
  std::vector<CellResult> results = ExperimentRunner(1).run(grid);
  EXPECT_EQ(results[0].status, CellStatus::kDeadlock);
  EXPECT_FALSE(results[0].error.empty());
}

TEST(ExperimentRunner, WorkerCountResolvesFromEnvironment) {
  EXPECT_GE(ExperimentRunner(3).workers(), 3u);
  EXPECT_GE(ExperimentRunner(0).workers(), 1u);  // hardware fallback
}

TEST(ExperimentJson, ReportRoundTripsWithRequiredKeys) {
  ExperimentGrid grid("json");
  grid.add(make_producer_consumer(2, 2),
           SystemConfig::paper_default(2, ConsistencyModel::kWC), "+both",
           {{"sweep", "demo"}});
  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  Json report = results_to_json(grid, results, runner.last_sweep());

  std::string err;
  Json parsed = Json::parse(report.dump(2), &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(parsed["schema"].as_string(), "mcsim-bench-v8");
  EXPECT_EQ(parsed["bench"].as_string(), "json");
  EXPECT_GE(parsed["workers"].as_int(), 1);
  ASSERT_EQ(parsed["cells"].size(), 1u);
  const Json& cell = parsed["cells"][0];
  for (const char* key : {"workload", "model", "technique", "num_procs", "status",
                          "cycles", "squashes", "reissues", "prefetches",
                          "prefetch_useful", "wall_ms", "sims_per_sec",
                          "topology", "net_hops", "net_queuing"}) {
    EXPECT_TRUE(cell.contains(key)) << key;
  }
  EXPECT_EQ(cell["status"].as_string(), "ok");
  EXPECT_EQ(cell["model"].as_string(), "WC");
  EXPECT_EQ(cell["tags"]["sweep"].as_string(), "demo");
  EXPECT_EQ(cell["cycles"].as_int(),
            static_cast<std::int64_t>(results[0].stats.cycles));
}

}  // namespace
}  // namespace mcsim
