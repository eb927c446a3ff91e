// Machine public-API behaviours: construction validation, preloads,
// read_word coherence, stats reporting, stepping, access logs.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

namespace mcsim {
namespace {

Program trivial() {
  ProgramBuilder b;
  b.li(1, 7);
  b.store(1, ProgramBuilder::abs(0x100));
  b.halt();
  return b.build();
}

TEST(MachineApi, RejectsInvalidConfig) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.cache.num_sets = 3;  // not a power of two
  EXPECT_THROW(Machine(cfg, {trivial()}), std::invalid_argument);
}

TEST(MachineApi, RejectsProgramCountMismatch) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  EXPECT_THROW(Machine(cfg, {trivial()}), std::invalid_argument);
}

TEST(MachineApi, DataInitializersApplyBeforeRun) {
  ProgramBuilder b;
  b.data(0x200, 42);
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {b.build()});
  EXPECT_EQ(m.read_word(0x200), 42u);  // visible pre-run
  m.run();
  EXPECT_EQ(m.read_word(0x200), 42u);
}

TEST(MachineApi, ReadWordPrefersExclusiveCachedCopy) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  // The store's line is dirty in the cache; memory still has 0.
  EXPECT_EQ(m.cache(0).line_state(0x100), LineState::kExclusive);
  EXPECT_EQ(m.directory().memory().read(0x100), 0u);
  EXPECT_EQ(m.read_word(0x100), 7u);  // coherent view
}

TEST(MachineApi, PreloadSharedMakesLoadsHit) {
  ProgramBuilder b;
  b.data(0x300, 9);
  b.load(1, ProgramBuilder::abs(0x300));
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {b.build()});
  m.preload_shared(0, 0x300);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(1), 9u);
  EXPECT_LT(r.cycles, 10u) << "a preloaded line must hit";
  EXPECT_EQ(m.cache(0).stats().get("load_hit"), 1u);
}

TEST(MachineApi, PreloadExclusiveMakesStoresHit) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  m.preload_exclusive(0, 0x100);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_LT(r.cycles, 10u);
}

TEST(MachineApi, StepAdvancesOneCycle) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  EXPECT_EQ(m.now(), 0u);
  m.step();
  EXPECT_EQ(m.now(), 1u);
  while (!m.done()) m.step();
  EXPECT_TRUE(m.core(0).halted());
}

TEST(MachineApi, StatsReportMentionsEveryComponent) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  // The directory's statistics are the profiler's fan-out histograms
  // (and the rare `deferred`), so only a profiled run gives it lines.
  cfg.profile = true;
  Machine m(cfg, {trivial(), trivial()});
  m.run();
  std::string rep = m.stats_report();
  for (const char* key : {"core0.", "core1.", "lsu0.", "cache0.", "dir.", "net."})
    EXPECT_NE(rep.find(key), std::string::npos) << key;
}

TEST(MachineApi, AccessLogsEmptyUnlessEnabled) {
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {trivial()});
  m.run();
  EXPECT_TRUE(m.access_logs()[0].empty());

  cfg.record_accesses = true;
  Machine m2(cfg, {trivial()});
  m2.run();
  auto log = m2.access_logs()[0];
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].addr, 0x100u);
  EXPECT_EQ(log[0].kind, AccessKind::kStore);
  EXPECT_EQ(log[0].value, 7u);
}

TEST(MachineApi, DeadlockWatchdogReports) {
  // A program that spins forever on a flag nobody sets.
  ProgramBuilder b;
  b.spin_until_eq(0x400, 1);
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.max_cycles = 2000;
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  EXPECT_TRUE(r.deadlocked);
  EXPECT_GE(r.cycles, 2000u);
}

TEST(MachineApi, SixtyFourByteLinesRoundTripEveryWord) {
  // A 64-byte line is 16 words. In P0's 2-set, 2-way cache, X, Y and W
  // share set 0, so dirtying W evicts X, whose Writeback must carry all
  // 16 words. P1 then reads Y, and P0 answers the recall with all 16.
  // W stays dirty in P0's cache.
  constexpr Addr kX = 0x1000, kY = 0x2000, kW = 0x3000, kFlag = 0x4040;
  constexpr Addr kWords = 16;
  ProgramBuilder p0;
  for (Addr line : {kX, kY, kW}) {
    for (Addr i = 0; i < kWords; ++i) {
      p0.li(1, static_cast<Word>(line / 0x10 + i));
      p0.store(1, ProgramBuilder::abs(line + 4 * i));
    }
  }
  p0.li(1, 1);
  p0.store_rel(1, ProgramBuilder::abs(kFlag));
  p0.halt();
  ProgramBuilder p1;
  p1.spin_until_eq(kFlag, 1);
  p1.load(2, ProgramBuilder::abs(kY + 4 * (kWords - 1)));
  p1.halt();

  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.cache.line_bytes = 64;
  cfg.cache.num_sets = 2;
  cfg.cache.ways = 2;
  Machine m(cfg, {p0.build(), p1.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.cache(0).stats().get("writeback"), 1u);
  EXPECT_EQ(m.cache(0).line_state(kX), LineState::kInvalid);
  EXPECT_EQ(m.cache(0).line_state(kY), LineState::kShared);
  EXPECT_EQ(m.cache(0).line_state(kW), LineState::kExclusive);
  EXPECT_EQ(m.core(1).reg(2), kY / 0x10 + kWords - 1);
  const FlatMemory& mem = m.directory().memory();
  for (Addr i = 0; i < kWords; ++i) {
    EXPECT_EQ(mem.read(kX + 4 * i), kX / 0x10 + i) << "written back, word " << i;
    EXPECT_EQ(mem.read(kY + 4 * i), kY / 0x10 + i) << "recalled, word " << i;
    EXPECT_EQ(mem.read(kW + 4 * i), 0u) << "still dirty, word " << i;
    EXPECT_EQ(m.read_word(kW + 4 * i), kW / 0x10 + i) << "cached, word " << i;
  }
}

TEST(MachineApi, RetiredCountsPerProcessor) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  Machine m(cfg, {trivial(), trivial()});
  RunResult r = m.run();
  ASSERT_EQ(r.retired.size(), 2u);
  EXPECT_EQ(r.retired[0], 3u);  // li, st, halt
  EXPECT_EQ(r.retired[1], 3u);
}

TEST(MachineApi, UpgradeInvalidatesEverySharedPreload) {
  // Two caches preloaded Shared with one line are both sharers; a third
  // cache's store must invalidate both copies (single writer).
  constexpr Addr kLine = 0x500;
  ProgramBuilder w;
  w.li(1, 3);
  w.store(1, ProgramBuilder::abs(kLine));
  w.halt();
  ProgramBuilder idle;
  idle.halt();
  SystemConfig cfg = SystemConfig::paper_default(3, ConsistencyModel::kSC);
  Machine m(cfg, {idle.build(), idle.build(), w.build()});
  m.preload_shared(0, kLine);
  m.preload_shared(1, kLine);
  EXPECT_EQ(m.directory().sharers(kLine), 0b11u);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.cache(0).line_state(kLine), LineState::kInvalid);
  EXPECT_EQ(m.cache(1).line_state(kLine), LineState::kInvalid);
  EXPECT_EQ(m.cache(2).line_state(kLine), LineState::kExclusive);
  EXPECT_EQ(m.read_word(kLine), 3u);
}

}  // namespace
}  // namespace mcsim
