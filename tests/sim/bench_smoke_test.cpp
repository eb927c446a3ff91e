// CI smoke: drive a one-cell sweep end to end through the
// ExperimentRunner — run, emit the JSON report to disk, parse it back,
// and validate the keys every downstream consumer of
// BENCH_*.json relies on. Guards the bench executables' shared plumbing
// without paying for a full model-comparison sweep in CI.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace {

TEST(BenchSmoke, OneCellSweepEmitsValidJson) {
  ExperimentGrid grid("smoke");
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  cfg.profile = true;  // v5: the report must carry the profiler block
  grid.add(make_producer_consumer(2, 4), cfg, "+both", {{"suite", "smoke"}});

  ExperimentRunner runner;
  std::vector<CellResult> results = runner.run(grid);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].cell_label << ": " << results[0].error;
  EXPECT_GT(results[0].stats.cycles, 0u);

  const std::string path = "BENCH_smoke_test.json";
  ASSERT_TRUE(write_json(path, grid, results, runner.last_sweep()));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(path.c_str());

  std::string err;
  Json report = Json::parse(buf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;

  // The schema validator (shared with the CI bench-smoke step) accepts
  // the freshly written report — root keys, percentile ordering, cycle
  // accounting, and the profiler conservation sums all in one call.
  EXPECT_EQ(validate_bench_json(report), "");

  for (const char* key :
       {"schema", "bench", "workers", "wall_ms", "guest_cycles", "sims_per_sec",
        "aggregate", "cells"}) {
    EXPECT_TRUE(report.contains(key)) << "missing root key: " << key;
  }
  EXPECT_EQ(report["schema"].as_string(), "mcsim-bench-v8");
  EXPECT_EQ(report["bench"].as_string(), "smoke");
  EXPECT_GE(report["workers"].as_int(), 1);
  ASSERT_EQ(report["cells"].size(), 1u);

  const Json& cell = report["cells"][0];
  for (const char* key :
       {"workload", "model", "technique", "num_procs", "tags", "status", "cycles",
        "ticks", "squashes", "reissues", "prefetches", "prefetch_useful",
        "load_latency_mean", "store_latency_mean", "drain_cycles", "retired",
        "busy_cycles", "stall_cycles", "load_latency", "store_latency",
        "store_release_latency", "prefetch_to_use", "net_latency", "topology",
        "net_hops", "net_queuing", "wall_ms", "sims_per_sec"}) {
    EXPECT_TRUE(cell.contains(key)) << "missing cell key: " << key;
  }
  // v3: crossbar cells report the topology and empty hop/queuing
  // distributions (no links to traverse).
  EXPECT_EQ(cell["topology"].as_string(), "crossbar");
  EXPECT_EQ(cell["net_hops"]["count"].as_uint(), 0u);
  EXPECT_EQ(cell["status"].as_string(), "ok");
  EXPECT_EQ(cell["model"].as_string(), "SC");
  EXPECT_EQ(cell["technique"].as_string(), "+both");
  EXPECT_EQ(cell["num_procs"].as_int(), 2);
  EXPECT_EQ(cell["tags"]["suite"].as_string(), "smoke");
  EXPECT_EQ(cell["cycles"].as_uint(), results[0].stats.cycles);
  EXPECT_EQ(cell["drain_cycles"].size(), 2u);
  EXPECT_EQ(cell["retired"].size(), 2u);

  // v2 cycle accounting: busy + every stall cause == ticks, per processor.
  const std::uint64_t ticks = cell["ticks"].as_uint();
  EXPECT_GE(ticks, cell["cycles"].as_uint());
  ASSERT_EQ(cell["busy_cycles"].size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    std::uint64_t total = cell["busy_cycles"][p].as_uint();
    for (const auto& [cause, per_proc] : cell["stall_cycles"].members()) {
      (void)cause;
      total += per_proc[p].as_uint();
    }
    EXPECT_EQ(total, ticks) << "proc " << p << " cycle accounting leak";
  }

  // v2 latency distributions: percentile fields present and ordered.
  const Json& lat = cell["load_latency"];
  for (const char* key : {"count", "mean", "p50", "p90", "p99", "max"}) {
    EXPECT_TRUE(lat.contains(key)) << "missing load_latency key: " << key;
  }
  EXPECT_GT(lat["count"].as_uint(), 0u);
  EXPECT_LE(lat["p50"].as_uint(), lat["p90"].as_uint());
  EXPECT_LE(lat["p90"].as_uint(), lat["p99"].as_uint());
  EXPECT_LE(lat["p99"].as_uint(), lat["max"].as_uint());

  // v5: campaign-level aggregate histograms at the root.
  for (const char* key : {"load_latency", "store_latency", "net_latency"}) {
    EXPECT_TRUE(report["aggregate"].contains(key)) << "missing aggregate: " << key;
  }
  // One ok cell: the aggregate IS that cell's distribution.
  EXPECT_EQ(report["aggregate"]["load_latency"]["count"].as_uint(),
            lat["count"].as_uint());

  // v5: the profiled cell carries the profiler block with conserved sums.
  ASSERT_TRUE(cell.contains("profile"));
  const Json& prof = cell["profile"];
  const Json& pf = prof["prefetch"];
  EXPECT_GT(pf["issued"].as_uint(), 0u) << "+both cell issued no prefetches";
  EXPECT_EQ(pf["issued"].as_uint(),
            pf["useful"].as_uint() + pf["late"].as_uint() + pf["useless"].as_uint() +
                pf["killed_inval"].as_uint() + pf["killed_update"].as_uint() +
                pf["pending_at_end"].as_uint());
  const Json& rb = prof["rollbacks"];
  EXPECT_EQ(rb["total"].as_uint(),
            rb["invalidate"].as_uint() + rb["update"].as_uint() +
                rb["replacement"].as_uint() + rb["flush"].as_uint());
  EXPECT_TRUE(prof["top_lines"].is_array());
}

TEST(BenchSmoke, ValidatorRejectsCorruptedReports) {
  // The validator must actually bite: corrupt a valid report in the
  // ways schema drift would, and expect a non-empty diagnosis naming
  // the violation.
  ExperimentGrid grid("reject");
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.profile = true;
  grid.add(make_producer_consumer(2, 4), cfg);
  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  const Json good = results_to_json(grid, results, runner.last_sweep());
  ASSERT_EQ(validate_bench_json(good), "");

  // Root-level drift (Json only mutates at the level you hold).
  Json wrong_schema = good;
  wrong_schema.set("schema", Json::string("mcsim-bench-v4"));
  EXPECT_NE(validate_bench_json(wrong_schema), "");

  Json missing_aggregate = good;
  missing_aggregate.set("aggregate", Json::object());
  EXPECT_NE(validate_bench_json(missing_aggregate), "");

  // Nested drift: rewrite the number after a key in the serialized
  // text and reparse (the value tree is immutable below the root).
  // `within` names enclosing keys to descend through first.
  auto corrupt_number = [&](const std::string& key, const std::string& num,
                            const std::vector<std::string>& within = {}) {
    std::string text = good.dump();
    std::size_t pos = 0;
    for (const std::string& outer : within) pos = text.find("\"" + outer + "\":", pos);
    const std::string needle = "\"" + key + "\":";
    pos = text.find(needle, pos);
    EXPECT_NE(pos, std::string::npos) << key;
    pos += needle.size();
    while (pos < text.size() && text[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < text.size() && text[end] != ',' && text[end] != '}') ++end;
    text.replace(pos, end - pos, num);
    std::string err;
    Json j = Json::parse(text, &err);
    EXPECT_EQ(err, "") << key;
    return j;
  };
  // Prefetch conservation sum broken.
  EXPECT_NE(validate_bench_json(corrupt_number("issued", "12345")), "");
  // Per-processor cycle accounting broken ("ticks" first occurs in the
  // cell; the root carries guest_cycles instead).
  EXPECT_NE(validate_bench_json(corrupt_number("ticks", "1")), "");
  // Rollback cause sum broken.
  EXPECT_NE(validate_bench_json(corrupt_number("total", "999999")), "");
  // v8: a bank's queue_wait count no longer sums to the aggregate.
  const std::string qerr =
      validate_bench_json(corrupt_number("count", "777", {"dir_banks", "queue_wait"}));
  EXPECT_NE(qerr.find("queue_wait"), std::string::npos) << qerr;
}

TEST(BenchSmoke, TraceOutWritesPerfettoLoadableJson) {
  ExperimentGrid grid("smoke-trace");
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  std::size_t i = grid.add(make_producer_consumer(2, 4), cfg, "+both");
  const std::string trace_path = "BENCH_smoke_trace.json";
  grid.cell(i).trace_out = trace_path;

  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_EQ(results[0].trace_path, trace_path);
  EXPECT_GT(results[0].trace_events, 0u);

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::remove(trace_path.c_str());

  std::string err;
  Json trace = Json::parse(buf.str(), &err);
  ASSERT_TRUE(err.empty()) << err;
  ASSERT_TRUE(trace.contains("traceEvents"));

  // Timeline events (phase X/i) must match the sink's counter exactly;
  // metadata (M) rows name the tracks on top.
  std::uint64_t timeline = 0, metadata = 0;
  for (std::size_t e = 0; e < trace["traceEvents"].size(); ++e) {
    const std::string ph = trace["traceEvents"][e]["ph"].as_string();
    if (ph == "M") ++metadata;
    else ++timeline;
  }
  EXPECT_EQ(timeline, results[0].trace_events);
  EXPECT_GT(metadata, 0u);

  // The JSON report carries the pointer to the timeline.
  Json report = results_to_json(grid, results, runner.last_sweep());
  EXPECT_EQ(report["cells"][0]["trace_out"].as_string(), trace_path);
  EXPECT_EQ(report["cells"][0]["trace_events"].as_uint(), results[0].trace_events);
}

}  // namespace
}  // namespace mcsim
