// Pins that the event-driven fast-forward scheduler (cfg.fastforward,
// the default) is CYCLE-IDENTICAL to the naive tick-every-cycle loop:
// same RunResult, same final registers and memory, same stats report —
// on the litmus corpus, across every consistency model and topology,
// and through the parallel experiment runner.
//
// The golden numbers are the same constants crossbar_equivalence_test
// pins for the naive loop; running them here under fast-forward means
// any scheduler shortcut that drops or duplicates a cycle fails two
// independent tests in two different ways.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/machine.hpp"
#include "sim/options.hpp"
#include "sim/workloads.hpp"
#include "isa/builder.hpp"
#include "sva/reproducer.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

using sva::Reproducer;
using sva::load_reproducer;

struct Golden {
  const char* litmus;
  ConsistencyModel model;
  Cycle cycles;
};

// Captured from the naive per-cycle loop on the paper-default machine
// (100-cycle clean miss, base techniques, crossbar).
const Golden kGolden[] = {
    {"dekker.litmus", ConsistencyModel::kSC, 401u},
    {"dekker.litmus", ConsistencyModel::kPC, 201u},
    {"dekker.litmus", ConsistencyModel::kWC, 201u},
    {"dekker.litmus", ConsistencyModel::kRC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kSC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kPC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kWC, 201u},
    {"iriw_lite.litmus", ConsistencyModel::kRC, 201u},
    {"lock_handoff.litmus", ConsistencyModel::kSC, 600u},
    {"lock_handoff.litmus", ConsistencyModel::kPC, 600u},
    {"lock_handoff.litmus", ConsistencyModel::kWC, 600u},
    {"lock_handoff.litmus", ConsistencyModel::kRC, 600u},
    {"message_passing.litmus", ConsistencyModel::kSC, 401u},
    {"message_passing.litmus", ConsistencyModel::kPC, 401u},
    {"message_passing.litmus", ConsistencyModel::kWC, 401u},
    {"message_passing.litmus", ConsistencyModel::kRC, 401u},
    {"store_buffering.litmus", ConsistencyModel::kSC, 401u},
    {"store_buffering.litmus", ConsistencyModel::kPC, 201u},
    {"store_buffering.litmus", ConsistencyModel::kWC, 401u},
    {"store_buffering.litmus", ConsistencyModel::kRC, 201u},
};

/// Everything a run can observably produce, for exact diffing between
/// the two schedulers.
struct Fingerprint {
  RunResult result;
  std::string stats;
  std::vector<Word> regs;  ///< all processors' register files, flattened
  std::vector<Word> mem;   ///< watched addresses, in `watch` order
  /// Per processor, ticks settled in closed form by periodic sleep: how
  /// the run got its result, not part of it, so never compared.
  std::vector<std::uint64_t> periodic_ticks;
};

bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.result.cycles == b.result.cycles && a.result.ticks == b.result.ticks &&
         a.result.deadlocked == b.result.deadlocked &&
         a.result.wedged_at == b.result.wedged_at &&
         a.result.retired == b.result.retired &&
         a.result.drain_cycle == b.result.drain_cycle &&
         a.result.stall == b.result.stall && a.stats == b.stats && a.regs == b.regs &&
         a.mem == b.mem;
}

Fingerprint run_one(const std::vector<Program>& programs,
                    const std::vector<std::pair<ProcId, Addr>>& preload_shared,
                    SystemConfig cfg, const std::vector<Addr>& watch,
                    bool fastforward, bool trace_events = false) {
  cfg.fastforward = fastforward;
  Machine m(cfg, programs);
  for (const auto& [p, a] : preload_shared) m.preload_shared(p, a);
  if (trace_events) m.trace_events().enable();
  Fingerprint fp;
  fp.result = m.run();
  fp.stats = m.stats_report();
  for (ProcId p = 0; p < cfg.num_procs; ++p) {
    for (RegId r = 0; r < kNumArchRegs; ++r) fp.regs.push_back(m.core(p).reg(r));
    fp.periodic_ticks.push_back(m.core(p).periodic_ticks_settled());
  }
  for (Addr a : watch) fp.mem.push_back(m.read_word(a));
  return fp;
}

void expect_identical(const Fingerprint& ff, const Fingerprint& naive,
                      const std::string& what) {
  EXPECT_EQ(ff.result.cycles, naive.result.cycles) << what;
  EXPECT_EQ(ff.result.ticks, naive.result.ticks) << what;
  EXPECT_EQ(ff.result.deadlocked, naive.result.deadlocked) << what;
  EXPECT_EQ(ff.result.wedged_at, naive.result.wedged_at) << what;
  EXPECT_EQ(ff.result.retired, naive.result.retired) << what;
  EXPECT_EQ(ff.result.drain_cycle, naive.result.drain_cycle) << what;
  EXPECT_EQ(ff.result.stall, naive.result.stall) << what;
  EXPECT_EQ(ff.regs, naive.regs) << what;
  EXPECT_EQ(ff.mem, naive.mem) << what;
  EXPECT_EQ(ff.stats, naive.stats) << what << " (stats report diverged)";
  EXPECT_TRUE(ff == naive) << what << " (aggregate fingerprint diverged)";
}

TEST(FastForwardEquivalence, IsTheDefaultAndFlagsParse) {
  SystemConfig cfg;
  EXPECT_TRUE(cfg.fastforward);
  const char* off[] = {"prog", "--no-fastforward"};
  OptionsResult r = parse_options(2, off);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.config.fastforward);
  const char* on[] = {"prog", "--no-fastforward", "--fastforward"};
  r = parse_options(3, on);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.config.fastforward);
}

TEST(FastForwardEquivalence, LitmusCorpusCycleCountsArePinned) {
  // The naive loop's golden cycle counts, reproduced with skipping on.
  std::string dir = MCSIM_CORPUS_DIR;
  std::string last;
  Reproducer r;
  for (const Golden& g : kGolden) {
    if (last != g.litmus) {
      r = load_reproducer(dir + "/" + g.litmus);
      last = g.litmus;
    }
    SystemConfig cfg = SystemConfig::paper_default(
        static_cast<std::uint32_t>(r.litmus.programs.size()), g.model);
    cfg.max_cycles = 1'000'000;
    ASSERT_TRUE(cfg.fastforward);
    Machine m(cfg, r.litmus.programs);
    for (const auto& [p, a] : r.litmus.preload_shared) m.preload_shared(p, a);
    RunResult rr = m.run();
    EXPECT_FALSE(rr.deadlocked);
    EXPECT_EQ(rr.cycles, g.cycles)
        << g.litmus << " under " << to_string(g.model)
        << ": fast-forward drifted from the naive loop's golden timing";
  }
}

TEST(FastForwardEquivalence, CorpusMatchesNaiveOnEveryModelAndTopology) {
  std::string dir = MCSIM_CORPUS_DIR;
  for (const char* name : {"dekker.litmus", "iriw_lite.litmus", "lock_handoff.litmus",
                           "message_passing.litmus", "store_buffering.litmus"}) {
    Reproducer r = load_reproducer(dir + "/" + std::string(name));
    for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                   ConsistencyModel::kWC, ConsistencyModel::kRC}) {
      for (Topology topo :
           {Topology::kCrossbar, Topology::kRing, Topology::kMesh2D}) {
        SystemConfig cfg = SystemConfig::paper_default(
            static_cast<std::uint32_t>(r.litmus.programs.size()), model);
        cfg.mem.topology = topo;
        cfg.max_cycles = 1'000'000;
        const std::string what = std::string(name) + " " + to_string(model) + " " +
                                 to_string(topo);
        expect_identical(run_one(r.litmus.programs, r.litmus.preload_shared, cfg,
                                 r.litmus.addrs, true),
                         run_one(r.litmus.programs, r.litmus.preload_shared, cfg,
                                 r.litmus.addrs, false),
                         what);
      }
    }
  }
}

TEST(FastForwardEquivalence, MissHeavyWorkloadMatchesAndStallSumsToTicks) {
  // Long clean-miss latency maximizes quiescent spans — the case the
  // scheduler exists for, and the one where a skip-accounting bug
  // would distort the stall breakdowns most.
  Workload w = make_producer_consumer(2, 6);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.with_clean_miss_latency(400);
  Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, {}, true);
  Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, {}, false);
  expect_identical(ff, naive, "producer_consumer miss=400");
  ASSERT_FALSE(ff.result.deadlocked);
  for (std::size_t p = 0; p < ff.result.stall.size(); ++p) {
    std::uint64_t sum = 0;
    for (std::uint64_t c : ff.result.stall[p]) sum += c;
    EXPECT_EQ(sum, static_cast<std::uint64_t>(ff.result.ticks))
        << "core " << p << ": skipped spans not fully charged to stall causes";
  }
}

TEST(FastForwardEquivalence, DeadlockTimingIsIdentical) {
  // Truncated run: max_cycles lands mid-flight, so the scheduler must
  // clamp its final jump to the watchdog and charge the tail spans.
  Workload w = make_producer_consumer(2, 6);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.with_clean_miss_latency(400);
  cfg.max_cycles = 900;
  Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, {}, true);
  Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, {}, false);
  EXPECT_TRUE(ff.result.deadlocked);
  expect_identical(ff, naive, "truncated producer_consumer");
  EXPECT_EQ(ff.result.ticks, 900u);
}

TEST(FastForwardEquivalence, SweepIsWorkerCountInvariant) {
  // Fast-forwarded cells through the ExperimentRunner: serial and
  // 4-worker sweeps bit-identical, and cell wall-clock fields filled.
  ExperimentGrid grid("fastforward-invariance");
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::paper_default(4, m);
    grid.add(make_producer_consumer(4, 4), cfg, "base");
  }
  std::vector<CellResult> serial = ExperimentRunner(1).run(grid);
  std::vector<CellResult> parallel = ExperimentRunner(4).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].cell_label << ": " << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles) << i;
    EXPECT_EQ(serial[i].stats.ticks, parallel[i].stats.ticks) << i;
    EXPECT_EQ(serial[i].stats.retired, parallel[i].stats.retired) << i;
    EXPECT_GT(serial[i].wall_ns, 0u) << "per-cell wall_ns not recorded";
    EXPECT_GT(serial[i].sim_cycles_per_sec, 0.0) << i;
  }
}

// ---- trace-frontend campaigns -----------------------------------------

// 10^5 trace ops in Release; the Debug slice (which also runs under
// MCSIM_FF_AUDIT's lockstep shadow machine in CI) keeps the same shape
// at a size the audited naive loop can afford.
#ifdef NDEBUG
constexpr std::uint64_t kCampaignOps = 100'000;
#else
constexpr std::uint64_t kCampaignOps = 4'000;
#endif

Workload campaign_workload() {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kProducerConsumer;
  spec.nprocs = 4;
  spec.ops = kCampaignOps;
  spec.seed = 17;
  return trace_to_workload(generate_trace(spec));
}

std::vector<Addr> expect_addrs(const Workload& w) {
  std::vector<Addr> addrs;
  for (const auto& [a, v] : w.expected) addrs.push_back(a);
  return addrs;
}

TEST(FastForwardEquivalence, LargeTraceWorkloadMatchesNaive) {
  // The acceptance campaign's determinism half: a generated trace at
  // campaign scale is cycle-identical between the fast-forward
  // scheduler and the naive per-cycle loop, on the paper's crossbar
  // and on the contended mesh.
  const Workload w = campaign_workload();
  const std::vector<Addr> watch = expect_addrs(w);
  for (Topology topo : {Topology::kCrossbar, Topology::kMesh2D}) {
    SystemConfig cfg = SystemConfig::realistic(4, ConsistencyModel::kRC);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    cfg.mem.topology = topo;
    cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, w.min_mem_bytes);
    cfg.max_cycles = 1'000'000'000;
    Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, watch, true);
    Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, watch, false);
    ASSERT_FALSE(ff.result.deadlocked) << to_string(topo);
    expect_identical(ff, naive, std::string("trace campaign ") + to_string(topo));
  }
}

TEST(FastForwardEquivalence, TraceSweepIsWorkerCountInvariant) {
  // The other half: the same campaign trace through the
  // ExperimentRunner is bit-identical with 1 and 4 workers, across the
  // whole model grid.
  const Workload w = campaign_workload();
  ExperimentGrid grid("trace-campaign-invariance");
  for (ConsistencyModel m : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                             ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::realistic(4, m);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    cfg.max_cycles = 1'000'000'000;
    grid.add(w, cfg, "+both");
    grid.cell(grid.size() - 1).watch = expect_addrs(w);
  }
  std::vector<CellResult> serial = ExperimentRunner(1).run(grid);
  std::vector<CellResult> parallel = ExperimentRunner(4).run(grid);
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].cell_label << ": " << serial[i].error;
    ASSERT_TRUE(parallel[i].ok()) << parallel[i].error;
    EXPECT_EQ(serial[i].stats.cycles, parallel[i].stats.cycles) << i;
    EXPECT_EQ(serial[i].stats.ticks, parallel[i].stats.ticks) << i;
    EXPECT_EQ(serial[i].stats.retired, parallel[i].stats.retired) << i;
    EXPECT_EQ(serial[i].watch_values, parallel[i].watch_values) << i;
    EXPECT_EQ(serial[i].trace_meta, parallel[i].trace_meta) << i;
  }
}

// ---- spinning cores (periodic sleep) ----------------------------------

std::uint64_t total(const std::vector<std::uint64_t>& v) {
  std::uint64_t sum = 0;
  for (std::uint64_t x : v) sum += x;
  return sum;
}

#ifdef NDEBUG
constexpr std::uint64_t kSpinTraceOps = 2'000;
#else
constexpr std::uint64_t kSpinTraceOps = 400;
#endif

Workload spin_trace(WorkloadKind kind) {
  WorkloadGenSpec spec;
  spec.kind = kind;
  spec.nprocs = 8;
  spec.ops = kSpinTraceOps;
  spec.seed = 3;
  return trace_to_workload(generate_trace(spec));
}

SystemConfig spin_config(ConsistencyModel model, bool both, const Workload& w) {
  SystemConfig cfg = SystemConfig::realistic(8, model);
  cfg.core.prefetch = both ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  cfg.core.speculative_loads = both;
  cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, w.min_mem_bytes);
  cfg.max_cycles = 100'000'000;
  return cfg;
}

TEST(FastForwardEquivalence, SpinningTracesMatchNaive) {
  // Cores spinning on barrier flags and lock words fall asleep in their
  // periodic span and are settled in closed form; every result must
  // still equal the naive loop's, on every model, with and without the
  // techniques.
  for (WorkloadKind kind : {WorkloadKind::kBarrierTree, WorkloadKind::kLockConvoy}) {
    const Workload w = spin_trace(kind);
    const std::vector<Addr> watch = expect_addrs(w);
    for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                   ConsistencyModel::kWC, ConsistencyModel::kRC}) {
      for (bool both : {false, true}) {
        const SystemConfig cfg = spin_config(model, both, w);
        const std::string what = std::string(to_string(kind)) + " " + to_string(model) +
                                 (both ? " +both" : " base");
        const Fingerprint ff = run_one(w.programs, w.preload_shared, cfg, watch, true);
        const Fingerprint naive = run_one(w.programs, w.preload_shared, cfg, watch, false);
        ASSERT_FALSE(ff.result.deadlocked) << what;
        expect_identical(ff, naive, what);
        EXPECT_EQ(total(naive.periodic_ticks), 0u) << what;
        // A silent fallback to live ticking would still be exact; this
        // is what keeps it from going unnoticed.
        if (kind == WorkloadKind::kBarrierTree) {
          EXPECT_GT(total(ff.periodic_ticks), 0u) << what << ": no spinner was settled";
        }
      }
    }
  }
}

TEST(FastForwardEquivalence, TraceEventsKeepSpinnersLive) {
  // Trace events observe individual ticks, so a traced run never lets a
  // core sleep through its spin; the result is the same either way.
  const Workload w = spin_trace(WorkloadKind::kBarrierTree);
  const SystemConfig cfg = spin_config(ConsistencyModel::kSC, false, w);
  const Fingerprint traced = run_one(w.programs, w.preload_shared, cfg, {}, true, true);
  const Fingerprint plain = run_one(w.programs, w.preload_shared, cfg, {}, true);
  EXPECT_EQ(total(traced.periodic_ticks), 0u);
  EXPECT_GT(total(plain.periodic_ticks), 0u);
  expect_identical(traced, plain, "traced vs untraced barrier_tree");
}

constexpr Addr kFlag = 0x1000;
constexpr Addr kOther = 0x2000;  ///< a different cache line

/// Burn roughly `n` cycles in a counted loop on r1.
void delay(ProgramBuilder& b, Word n, const std::string& label) {
  b.li(1, n);
  b.label(label);
  b.addi(1, 1, -1);
  b.bne(1, 0, label);
}

TEST(FastForwardEquivalence, WatchdogLandsMidSpin) {
  // The only live work is an endless spin: the spinner sleeps, is armed
  // at the watchdog, and the run must end there as the naive loop's
  // does — same ticks and stall sums, and not reported as wedged.
  ProgramBuilder spinner;
  spinner.spin_until_eq(kFlag, 1);
  spinner.halt();
  ProgramBuilder idle;
  idle.halt();
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::realistic(2, model);
    cfg.max_cycles = 20'000;
    const std::vector<Program> programs = {spinner.build(), idle.build()};
    const Fingerprint ff = run_one(programs, {}, cfg, {kFlag}, true);
    const Fingerprint naive = run_one(programs, {}, cfg, {kFlag}, false);
    const std::string what = std::string("endless spin ") + to_string(model);
    expect_identical(ff, naive, what);
    EXPECT_TRUE(ff.result.deadlocked) << what;
    EXPECT_EQ(ff.result.ticks, 20'000u) << what;
    EXPECT_EQ(ff.result.wedged_at, kCycleNever) << what;
    for (std::size_t p = 0; p < ff.result.stall.size(); ++p)
      EXPECT_EQ(total({ff.result.stall[p].begin(), ff.result.stall[p].end()}), 20'000u)
          << what << " core " << p;
    EXPECT_GT(ff.periodic_ticks[0], 10'000u) << what << ": the spinner never slept";
  }
}

TEST(FastForwardEquivalence, UnrelatedInvalidationWakesSpinner) {
  // Core 0 reads another line, then spins on the flag. Core 1 first
  // writes that other line — the invalidation reaches core 0's cache
  // mid-spin, waking the sleeping spinner, which settles and resumes —
  // and only later sets the flag.
  ProgramBuilder spinner;
  spinner.load(5, ProgramBuilder::abs(kOther));
  spinner.spin_until_eq(kFlag, 1);
  spinner.load(6, ProgramBuilder::abs(kOther));
  spinner.halt();
  ProgramBuilder writer;
  delay(writer, 2'000, "first");
  writer.li(2, 7);
  writer.store(2, ProgramBuilder::abs(kOther));
  delay(writer, 2'000, "second");
  writer.li(2, 1);
  writer.store(2, ProgramBuilder::abs(kFlag));
  writer.halt();
  const std::vector<Program> programs = {spinner.build(), writer.build()};
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    for (bool both : {false, true}) {
      SystemConfig cfg = SystemConfig::realistic(2, model);
      cfg.core.prefetch = both ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
      cfg.core.speculative_loads = both;
      const std::string what =
          std::string("invalidation wake ") + to_string(model) + (both ? " +both" : " base");
      const Fingerprint ff = run_one(programs, {}, cfg, {kFlag, kOther}, true);
      const Fingerprint naive = run_one(programs, {}, cfg, {kFlag, kOther}, false);
      ASSERT_FALSE(ff.result.deadlocked) << what;
      expect_identical(ff, naive, what);
      EXPECT_EQ(ff.regs[6], 7u) << what << ": the spinner missed the other line's new value";
      EXPECT_GT(ff.periodic_ticks[0], 0u) << what << ": the spinner never slept";
    }
  }
}

}  // namespace
}  // namespace mcsim
