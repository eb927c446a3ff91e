// Single-core pipeline behaviours: store-to-load forwarding, fences,
// dependent address generation, RMW value speculation (Appendix A),
// ALU selection, branch misprediction recovery, and structural-hazard
// survival with tiny buffers and reorder buffers from 1 to 200 entries.
#include <gtest/gtest.h>

#include <string>

#include "isa/builder.hpp"
#include "isa/interp.hpp"
#include "sim/machine.hpp"

namespace mcsim {
namespace {

void expect_matches_interpreter(const SystemConfig& cfg, const Program& p,
                                const char* what) {
  Machine m(cfg, {p});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked) << what;
  FlatMemory ref_mem(cfg.mem.mem_bytes);
  InterpResult ref = interpret(p, ref_mem);
  for (RegId reg = 0; reg < kNumArchRegs; ++reg)
    EXPECT_EQ(m.core(0).reg(reg), ref.regs[reg]) << what << " r" << unsigned(reg);
}

TEST(CorePipeline, StoreToLoadForwardingUnderRC) {
  // Under RC the load may bypass the pending store and must forward.
  ProgramBuilder b;
  b.li(1, 99);
  b.store(1, ProgramBuilder::abs(0x40));
  b.load(2, ProgramBuilder::abs(0x40));  // same address: forward 99
  b.load(3, ProgramBuilder::abs(0x80));  // different address: from memory (0)
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(2), 99u);
  EXPECT_EQ(m.core(0).reg(3), 0u);
  EXPECT_GE(m.core(0).lsu().stats().get("load_forwarded"), 1u);
}

TEST(CorePipeline, ForwardingCorrectWithSpeculation) {
  ProgramBuilder b;
  b.li(1, 7);
  b.store(1, ProgramBuilder::abs(0x40));
  b.li(1, 8);
  b.store(1, ProgramBuilder::abs(0x40));
  b.load(2, ProgramBuilder::abs(0x40));  // must see the NEWEST earlier store
  b.halt();
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::paper_default(1, model);
    cfg.core.speculative_loads = true;
    Machine m(cfg, {b.build()});
    RunResult r = m.run();
    ASSERT_FALSE(r.deadlocked);
    EXPECT_EQ(m.core(0).reg(2), 8u) << to_string(model);
  }
}

TEST(CorePipeline, FenceOrdersEverything) {
  ProgramBuilder b;
  b.li(1, 5);
  b.store(1, ProgramBuilder::abs(0x40));
  b.fence();
  b.load(2, ProgramBuilder::abs(0x40));
  b.halt();
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::paper_default(1, model);
    expect_matches_interpreter(cfg, b.build(), to_string(model));
  }
}

TEST(CorePipeline, FenceDelaysLaterLoadPastStore) {
  // Measure that the fence really serializes: the load after the fence
  // must not perform before the store completes.
  ProgramBuilder b;
  b.store(0, ProgramBuilder::abs(0x40));  // miss: 100 cycles
  b.fence();
  b.load(2, ProgramBuilder::abs(0x80));  // would be spec-issueable at cycle ~1
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kRC);
  cfg.core.speculative_loads = true;
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  // store ~100, then load ~200: anything below 150 would mean the fence leaked.
  EXPECT_GT(r.cycles, 150u);
}

TEST(CorePipeline, DependentAddressGeneration) {
  ProgramBuilder b;
  b.data(0x100, 3);
  b.data(0x200 + 12, 77);
  b.load(1, ProgramBuilder::abs(0x100));            // r1 = 3
  b.load(2, ProgramBuilder::indexed(0x200, 1, 2));  // r2 = mem[0x200 + 3*4]
  b.halt();
  for (bool spec : {false, true}) {
    SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
    cfg.core.speculative_loads = spec;
    Machine m(cfg, {b.build()});
    RunResult r = m.run();
    ASSERT_FALSE(r.deadlocked);
    EXPECT_EQ(m.core(0).reg(2), 77u) << "spec=" << spec;
  }
}

TEST(CorePipeline, RmwSpeculativeValueFeedsDependents) {
  // The Appendix-A read-exclusive returns the lock value early; the
  // dependent branch resolves with it, and since the line stays owned
  // the later atomic reads the same value: no squash.
  ProgramBuilder b;
  b.lock(0x100);
  b.li(1, 42);
  b.store(1, ProgramBuilder::abs(0x200));
  b.unlock(0x100);
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.read_word(0x200), 42u);
  EXPECT_EQ(m.core(0).stats().get("rmw_value_mispredicts"), 0u);
  EXPECT_GE(m.core(0).stats().get("rmw_spec_values"), 1u);
}

TEST(CorePipeline, MispredictedBranchRecovers) {
  ProgramBuilder b;
  b.li(1, 1);
  // Hinted not-taken but actually taken: forces a misprediction.
  b.bne(1, 0, "skip", BranchHint::kNotTaken);
  b.li(2, 111);  // must be squashed
  b.label("skip");
  b.li(3, 222);
  b.halt();
  SystemConfig cfg = SystemConfig::realistic(1, ConsistencyModel::kSC);
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(2), 0u);
  EXPECT_EQ(m.core(0).reg(3), 222u);
  EXPECT_GE(m.core(0).stats().get("branch_mispredicts"), 1u);
}

TEST(CorePipeline, WrongPathLoadsAreHarmless) {
  // A mispredicted path issues a speculative load that must be
  // discarded without affecting architectural state.
  ProgramBuilder b;
  b.data(0x100, 1);
  b.load(1, ProgramBuilder::abs(0x100));  // r1 = 1 (slow: miss)
  b.beq(1, 0, "wrong", BranchHint::kTaken);  // predicted taken, actually not
  b.li(3, 7);
  b.jmp("end");
  b.label("wrong");
  b.load(2, ProgramBuilder::abs(0x200));  // wrong-path load
  b.label("end");
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(2), 0u);
  EXPECT_EQ(m.core(0).reg(3), 7u);
}

TEST(CorePipeline, SingleAluIssuesOldestReadyOpFirst) {
  // Two independent ALU ops wake together when the load returns; with
  // one ALU they execute in consecutive cycles, oldest first, and the
  // op that needs both results waits for the second.
  ProgramBuilder b;
  b.data(0x100, 5);
  b.load(1, ProgramBuilder::abs(0x100));  // miss: both adds wait on it
  b.addi(2, 1, 10);
  b.addi(3, 1, 20);
  b.add(4, 2, 3);
  b.halt();
  struct Pin {
    std::uint32_t alus;
    Cycle cycles;
  };
  for (const Pin pin : {Pin{1, 105}, Pin{2, 104}}) {
    SystemConfig cfg = SystemConfig::realistic(1, ConsistencyModel::kSC);
    cfg.core.num_alus = pin.alus;
    Machine m(cfg, {b.build()});
    RunResult r = m.run();
    ASSERT_FALSE(r.deadlocked) << "alus=" << pin.alus;
    EXPECT_EQ(r.cycles, pin.cycles) << "alus=" << pin.alus;
    EXPECT_EQ(m.core(0).reg(2), 15u);
    EXPECT_EQ(m.core(0).reg(3), 25u);
    EXPECT_EQ(m.core(0).reg(4), 40u);
  }
}

TEST(CorePipeline, MispredictSquashesSameCycleYoungerOps) {
  // The branch and a younger op become ready in the same cycle; a
  // further younger op waits on a slow load. The mispredict must
  // squash both without executing the ready one or waking the pending
  // one when the load returns after the redirect.
  ProgramBuilder b;
  b.data(0x100, 5);
  b.load(5, ProgramBuilder::abs(0x100));  // miss: returns long after the squash
  b.li(1, 1);
  b.bne(1, 0, "skip", BranchHint::kNotTaken);  // actually taken
  b.add(2, 1, 1);                              // ready with the branch
  b.add(3, 5, 2);                              // pending on the load
  b.add(6, 2, 2);                              // pending on a squashed op
  b.label("skip");
  b.add(4, 5, 1);
  b.halt();
  for (std::uint32_t alus : {1u, 2u, 3u, 4u}) {
    for (bool ideal : {false, true}) {
      SystemConfig cfg = ideal ? SystemConfig::paper_default(1, ConsistencyModel::kSC)
                               : SystemConfig::realistic(1, ConsistencyModel::kSC);
      cfg.core.num_alus = alus;
      const std::string what =
          "alus=" + std::to_string(alus) + (ideal ? " ideal" : " realistic");
      Machine m(cfg, {b.build()});
      ASSERT_FALSE(m.run().deadlocked) << what;
      EXPECT_EQ(m.core(0).reg(1), 1u) << what;
      EXPECT_EQ(m.core(0).reg(5), 5u) << what;
      EXPECT_EQ(m.core(0).reg(2), 0u) << what;
      EXPECT_EQ(m.core(0).reg(3), 0u) << what;
      EXPECT_EQ(m.core(0).reg(6), 0u) << what;
      EXPECT_EQ(m.core(0).reg(4), 6u) << what;
      EXPECT_GE(m.core(0).stats().get("branch_mispredicts"), 1u) << what;
    }
  }
}

TEST(CorePipeline, SquashedConsumerOfInFlightLoadWakesOnceRedispatched) {
  // The add joins the missing load's consumer chain on the predicted
  // path, is squashed when the branch resolves (long before the load
  // returns), and joins the chain again when it is refetched. The
  // load's broadcast must skip the squashed copy and wake the
  // re-dispatched one exactly once: a second wake would underflow its
  // waiting count, a missing one would leave it unexecuted.
  ProgramBuilder b;
  b.data(0x100, 5);
  b.load(1, ProgramBuilder::abs(0x100));  // miss: in flight across the squash
  b.li(2, 1);
  b.bne(2, 0, "use", BranchHint::kNotTaken);  // taken, to the next instruction
  b.label("use");
  b.add(3, 1, 1);
  b.addi(4, 3, 1);
  b.halt();
  for (bool spec : {false, true}) {
    SystemConfig cfg = SystemConfig::realistic(1, ConsistencyModel::kSC);
    cfg.core.speculative_loads = spec;
    const std::string what = spec ? "spec" : "nospec";
    Machine m(cfg, {b.build()});
    ASSERT_FALSE(m.run().deadlocked) << what;
    EXPECT_EQ(m.core(0).reg(3), 10u) << what;
    EXPECT_EQ(m.core(0).reg(4), 11u) << what;
    EXPECT_EQ(m.core(0).stats().get("branch_mispredicts"), 1u) << what;
    EXPECT_GE(m.core(0).stats().get("squashed_instructions"), 2u) << what;
  }
}

TEST(CorePipeline, WakeNodePoolStaysBoundedUnderSquashes) {
  // Every other iteration mispredicts, squashing consumers of loads
  // that are still in flight (each iteration's load misses). The pool
  // recycles nodes, so it never holds more than the window's operands.
  ProgramBuilder b;
  for (Word i = 0; i < 16; ++i) b.data(0x1000 + 64 * i, i);
  b.li(5, 0);    // iteration
  b.li(6, 200);  // iterations
  b.li(7, 0);    // alternates 0, 1, 0, ...
  b.li(8, 1);
  b.li(9, 15);
  b.label("loop");
  b.and_(10, 5, 9);
  b.load(1, ProgramBuilder::indexed(0x1000, 10, 6));
  b.add(2, 1, 1);
  b.add(11, 11, 2);
  b.sub(7, 8, 7);
  b.beq(7, 0, "skip");
  b.add(12, 12, 1);
  b.label("skip");
  b.addi(5, 5, 1);
  b.blt(5, 6, "loop");
  b.halt();
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::realistic(1, model);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    expect_matches_interpreter(cfg, b.build(), to_string(model));
    Machine m(cfg, {b.build()});
    ASSERT_FALSE(m.run().deadlocked);
    EXPECT_GE(m.core(0).stats().get("squashes"), 50u) << to_string(model);
    EXPECT_LE(m.core(0).wake_nodes_allocated(), 4u * cfg.core.rob_entries)
        << to_string(model);
  }
}

class TinyBufferTest : public ::testing::TestWithParam<std::tuple<int, bool, int>> {};

TEST_P(TinyBufferTest, StructuralHazardsDoNotBreakCorrectness) {
  auto [size, spec, rob] = GetParam();
  ProgramBuilder b;
  // Enough memory traffic to overflow any 1-2 entry structure.
  for (int i = 0; i < 12; ++i) {
    b.li(1, 100 + i);
    b.store(1, ProgramBuilder::abs(0x400 + 4 * i));
  }
  for (int i = 0; i < 12; ++i) b.load(2, ProgramBuilder::abs(0x400 + 4 * i));
  b.halt();
  SystemConfig cfg = SystemConfig::realistic(1, ConsistencyModel::kRC);
  cfg.core.speculative_loads = spec;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.ls_rs_entries = size;
  cfg.core.store_buffer_entries = size;
  cfg.core.spec_load_buffer_entries = size;
  cfg.core.prefetch_buffer_entries = size;
  cfg.core.rob_entries = rob;
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked) << "size=" << size << " spec=" << spec << " rob=" << rob;
  EXPECT_EQ(m.core(0).reg(2), 111u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(m.read_word(0x400 + 4 * i), 100u + i);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TinyBufferTest,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 2, 3, 8, 200)));

TEST(CorePipeline, SoftwarePrefetchIsANonBindingHint) {
  ProgramBuilder b;
  b.prefetch(ProgramBuilder::abs(0x100));
  b.prefetch_ex(ProgramBuilder::abs(0x200));
  b.load(1, ProgramBuilder::abs(0x100));
  b.li(2, 9);
  b.store(2, ProgramBuilder::abs(0x200));
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.read_word(0x200), 9u);
  // The software prefetch warmed both lines; the store should have
  // merged with (or hit after) the exclusive prefetch.
  EXPECT_GE(m.cache(0).stats().get("prefetch_ex_issued"), 1u);
}

}  // namespace
}  // namespace mcsim
