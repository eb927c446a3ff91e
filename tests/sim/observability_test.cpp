// Observability subsystem, end to end: stall-cause attribution must
// account for every core cycle (no cycle left uncharged, none charged
// twice), deadlocked runs must leave a usable post-mortem snapshot,
// and the trace-event timeline must agree with its own counters.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace {

std::uint64_t stall_sum(const StallBreakdown& b) {
  std::uint64_t total = 0;
  for (std::uint64_t v : b) total += v;
  return total;
}

TEST(StallAccounting, EveryCycleChargedAcrossModelsAndTechniques) {
  // The acceptance grid: every model x technique combination must
  // satisfy sum(stall causes) == machine ticks for every processor.
  const ConsistencyModel models[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                     ConsistencyModel::kWC, ConsistencyModel::kRC};
  for (ConsistencyModel model : models) {
    for (int combo = 0; combo < 4; ++combo) {
      const bool prefetch = (combo & 1) != 0;
      const bool spec = (combo & 2) != 0;
      Workload w = make_producer_consumer(2, 4);
      SystemConfig cfg = SystemConfig::realistic(2, model);
      cfg.core.prefetch = prefetch ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
      cfg.core.speculative_loads = spec;
      Machine m(cfg, w.programs);
      RunResult r = m.run();
      ASSERT_FALSE(r.deadlocked) << to_string(model) << " combo " << combo;
      ASSERT_EQ(r.stall.size(), 2u);
      for (ProcId p = 0; p < 2; ++p) {
        EXPECT_EQ(stall_sum(r.stall[p]), r.ticks)
            << to_string(model) << " combo " << combo << " proc " << p;
        // A completing core retired instructions, so it was busy some cycles.
        EXPECT_GT(r.stall[p][static_cast<std::size_t>(StallCause::kBusy)], 0u);
      }
    }
  }
}

TEST(StallAccounting, AccountingHoldsEvenWhenCutOffMidFlight) {
  // A watchdog-terminated run stops with loads/stores in flight; the
  // per-cycle attribution must still balance exactly.
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.max_cycles = 50;  // well before completion
  Machine m(cfg, w.programs);
  RunResult r = m.run();
  ASSERT_TRUE(r.deadlocked);
  EXPECT_EQ(r.ticks, 50u);
  for (ProcId p = 0; p < 2; ++p) EXPECT_EQ(stall_sum(r.stall[p]), r.ticks);
  // Cut off by the watchdog while still making progress: not wedged.
  EXPECT_EQ(r.wedged_at, kCycleNever);
  EXPECT_FALSE(m.post_mortem().contains("wedged_at"));
}

TEST(StallAccounting, WedgedRunReportsItsWedgeCycle) {
  // Processor 1's program has no halt: once control falls off its end
  // and its store has performed, nothing in the machine can ever act
  // again. The run still clocks on to the watchdog, exactly like the
  // naive loop, but reports the cycle it wedged at.
  ProgramBuilder b;
  b.li(1, 7);
  b.store(1, ProgramBuilder::abs(0x100));
  b.halt();
  ProgramBuilder no_halt;
  no_halt.li(1, 9);
  no_halt.store(1, ProgramBuilder::abs(0x200));
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.max_cycles = 5000;
  Machine m(cfg, {b.build(), no_halt.build()});
  RunResult r = m.run();
  ASSERT_TRUE(r.deadlocked);
  EXPECT_EQ(r.ticks, 5000u);
  EXPECT_EQ(r.cycles, 5000u);
  ASSERT_NE(r.wedged_at, kCycleNever);
  // Ground truth: step a naive twin until the O(P) next-event sweep
  // proves every component permanently quiescent. That is the wedge,
  // long before the watchdog.
  cfg.fastforward = false;
  Machine probe(cfg, {b.build(), no_halt.build()});
  while (probe.next_event_cycle() != kCycleNever) probe.step();
  EXPECT_EQ(r.wedged_at, probe.now());
  EXPECT_GT(r.wedged_at, r.drain_cycle[0]);
  EXPECT_LT(r.wedged_at, 200u);
  EXPECT_EQ(m.read_word(0x200), 9u);
  for (ProcId p = 0; p < 2; ++p) EXPECT_EQ(stall_sum(r.stall[p]), r.ticks);
  const Json pm = m.post_mortem();
  ASSERT_TRUE(pm.contains("wedged_at"));
  EXPECT_EQ(pm["wedged_at"].as_uint(), r.wedged_at);
  EXPECT_EQ(pm["cycle"].as_uint(), 5000u);

  // The naive loop cannot tell a wedge from a stall, but its clock and
  // charges agree with the fast-forwarded run's.
  Machine naive(cfg, {b.build(), no_halt.build()});
  const RunResult nr = naive.run();
  EXPECT_EQ(nr.ticks, r.ticks);
  EXPECT_EQ(nr.stall, r.stall);
  EXPECT_EQ(nr.wedged_at, kCycleNever);
}

TEST(StallAccounting, StatsReportListsPerCoreCauses) {
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  Machine m(cfg, w.programs);
  (void)m.run();
  std::string rep = m.stats_report();
  EXPECT_NE(rep.find("core0.stall.busy"), std::string::npos) << rep;
  EXPECT_NE(rep.find("core1.stall.busy"), std::string::npos);
  // A blocking SC run of producer/consumer stalls on memory somewhere.
  EXPECT_TRUE(rep.find("stall.cache_miss") != std::string::npos ||
              rep.find("stall.consistency") != std::string::npos)
      << rep;
}

TEST(PostMortem, DeadlockedCellCarriesMachineSnapshot) {
  ExperimentGrid grid("postmortem");
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.max_cycles = 50;
  grid.add(make_producer_consumer(2, 4), cfg, "cutoff");

  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kDeadlock);

  const Json& pm = results[0].post_mortem;
  ASSERT_TRUE(pm.is_object());
  for (const char* key : {"cycle", "cores", "caches", "network", "directory"}) {
    EXPECT_TRUE(pm.contains(key)) << "missing post-mortem key: " << key;
  }
  EXPECT_EQ(pm["cycle"].as_uint(), 50u);
  ASSERT_EQ(pm["cores"].size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    const Json& core = pm["cores"][p];
    for (const char* key : {"proc", "halted", "retired", "rob", "lsu"}) {
      EXPECT_TRUE(core.contains(key)) << "missing core key: " << key;
    }
  }
  // Cut off mid-flight, at least one core is stuck on something and
  // says what: a non-empty ROB reports its head's blocking cause.
  bool any_stalled = false;
  for (std::size_t p = 0; p < 2; ++p) {
    if (pm["cores"][p]["rob"].size() > 0) {
      EXPECT_TRUE(pm["cores"][p].contains("stalled_on"));
      any_stalled = true;
    }
  }
  EXPECT_TRUE(any_stalled) << pm.dump(2);

  // The snapshot flows into the JSON report for deadlocked cells only.
  Json report = results_to_json(grid, results, runner.last_sweep());
  EXPECT_TRUE(report["cells"][0].contains("post_mortem"));

  // Unprofiled runs carry no contended-lines table.
  EXPECT_FALSE(pm.contains("contended_lines"));
}

TEST(PostMortem, ProfiledDeadlockNamesTheContendedLines) {
  // With the profiler on, a deadlock snapshot includes the sharing
  // ledger's top-N table, so the post-mortem names the hot line
  // directly instead of leaving it to be inferred from queue contents.
  ExperimentGrid grid("postmortem_profiled");
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.profile = true;
  cfg.profile_top_lines = 4;
  cfg.max_cycles = 400;  // enough for coherence traffic, well before completion
  grid.add(make_producer_consumer(2, 4), cfg, "cutoff");

  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, CellStatus::kDeadlock) << results[0].error;

  const Json& pm = results[0].post_mortem;
  ASSERT_TRUE(pm.is_object());
  ASSERT_TRUE(pm.contains("contended_lines")) << pm.dump(2);
  const Json& lines = pm["contended_lines"];
  ASSERT_TRUE(lines.is_array());
  EXPECT_LE(lines.size(), 4u);  // honors --profile-top-lines
  ASSERT_GT(lines.size(), 0u) << "producer/consumer shares lines; ledger empty";
  std::uint64_t prev_score = ~std::uint64_t{0};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Json& row = lines[i];
    for (const char* key : {"line", "score", "inv_rounds", "inv_sent", "upd_rounds",
                            "upd_sent", "ping_pong", "reads", "max_sharers"}) {
      EXPECT_TRUE(row.contains(key)) << "missing contended-line key: " << key;
    }
    // Rows arrive hottest-first.
    EXPECT_LE(row["score"].as_uint(), prev_score) << "row " << i;
    prev_score = row["score"].as_uint();
  }
}

TEST(PostMortem, AbsentFromHealthyCells) {
  ExperimentGrid grid("healthy");
  grid.add(make_producer_consumer(2, 4),
           SystemConfig::realistic(2, ConsistencyModel::kSC));
  ExperimentRunner runner(1);
  std::vector<CellResult> results = runner.run(grid);
  ASSERT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_TRUE(results[0].post_mortem.is_null());
  Json report = results_to_json(grid, results, runner.last_sweep());
  EXPECT_FALSE(report["cells"][0].contains("post_mortem"));
}

TEST(TraceEvents, MachineTimelineAgreesWithItsCounter) {
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  Machine m(cfg, w.programs);
  m.trace_events().enable();
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);

  const TraceEventSink& sink = m.trace_events();
  EXPECT_GT(sink.event_count(), 0u);
  Json trace = sink.to_json();
  const Json& ev = trace["traceEvents"];
  std::uint64_t timeline = 0, metadata = 0;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i]["ph"].as_string() == "M") ++metadata;
    else ++timeline;
  }
  EXPECT_EQ(timeline, sink.event_count());
  // One labelled track per core, per cache, plus the directory.
  EXPECT_EQ(metadata, 2u * 2u + 1u);
  // Every timeline event sits on a known track: 0..P-1 cores,
  // P..2P-1 caches, 2P directory.
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i]["ph"].as_string() == "M") continue;
    EXPECT_LE(ev[i]["tid"].as_uint(), 4u);
  }
}

TEST(TraceEvents, ProfilerEmitsCounterTracks) {
  // With the profiler on and the trace sink enabled, the timeline
  // carries Perfetto counter ("C") samples: pending-prefetch depth on
  // each cache's track and invalidation/update fan-out on the
  // directory's. Off by default: an unprofiled trace has no "C" events.
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  cfg.profile = true;
  Machine m(cfg, w.programs);
  m.trace_events().enable();
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);

  Json trace = m.trace_events().to_json();
  const Json& ev = trace["traceEvents"];
  std::uint64_t counters = 0;
  bool saw_pf_pending = false, saw_inv_fanout = false;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (ev[i]["ph"].as_string() != "C") continue;
    ++counters;
    ASSERT_TRUE(ev[i].contains("args"));
    ASSERT_TRUE(ev[i]["args"].contains("value"));
    const std::string name = ev[i]["name"].as_string();
    if (name == "pf-pending") saw_pf_pending = true;
    if (name == "inv-fanout") saw_inv_fanout = true;
  }
  EXPECT_GT(counters, 0u);
  EXPECT_TRUE(saw_pf_pending) << "no pending-prefetch counter samples";
  EXPECT_TRUE(saw_inv_fanout) << "no invalidation fan-out counter samples";

  // Same run, profiler off: no counter phase events at all.
  cfg.profile = false;
  Machine plain(cfg, w.programs);
  plain.trace_events().enable();
  (void)plain.run();
  Json plain_trace = plain.trace_events().to_json();
  const Json& pe = plain_trace["traceEvents"];
  for (std::size_t i = 0; i < pe.size(); ++i) {
    EXPECT_NE(pe[i]["ph"].as_string(), "C");
  }
}

TEST(TraceEvents, DisabledSinkRecordsNothingDuringRun) {
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  Machine m(cfg, w.programs);
  (void)m.run();
  EXPECT_EQ(m.trace_events().event_count(), 0u);
}

}  // namespace
}  // namespace mcsim
