// The Figure 5 walkthrough as a checked test: the §4.2/§4.3 detection
// and correction mechanism must produce the paper's event kinds in
// order, and the architectural result must reflect the NEW value of D.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

namespace mcsim {
namespace {

constexpr Addr kA = 0x2000, kB = 0x3010, kC = 0x4020, kD = 0x5030, kEBase = 0x6040;
constexpr Word kDOld = 5, kDNew = 2;

Program p0_program() {
  ProgramBuilder b;
  b.data(kD, kDOld);
  b.data(kEBase + 4 * kDOld, 555);
  b.data(kEBase + 4 * kDNew, 222);
  b.load(1, ProgramBuilder::abs(kA));
  b.store(0, ProgramBuilder::abs(kB));
  b.store(0, ProgramBuilder::abs(kC));
  b.load(2, ProgramBuilder::abs(kD));
  b.load(3, ProgramBuilder::indexed(kEBase, 2, 2));
  b.halt();
  return b.build();
}

Program p1_program(int delay) {
  ProgramBuilder b;
  for (int i = 0; i < delay; ++i) b.addi(1, 1, 1);
  b.addi(4, 1, static_cast<std::int64_t>(kD) - delay);
  b.li(2, kDNew);
  b.store(2, ProgramBuilder::based(4));
  b.halt();
  return b.build();
}

TEST(Fig5Scenario, DetectionAndCorrectionSequence) {
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.rob_entries = 128;

  Machine m(cfg, {p0_program(), p1_program(55)});
  m.preload_shared(0, kD);      // "read D (hit)"
  m.preload_exclusive(1, kC);   // store C's ownership arrives last
  m.trace_events().enable();
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);

  // Correction mechanism end to end: E[new D], not E[old D].
  EXPECT_EQ(m.core(0).reg(2), kDNew);
  EXPECT_EQ(m.core(0).reg(3), 222u);
  EXPECT_EQ(m.core(0).stats().get("squashes"), 1u);

  // Event-kind sequence on P0 (paper events 1, 5, 6, 7/9 in order):
  // speculative inserts for A, D, E[old D]; the invalidation for D; the
  // squash; the re-insert of D; the re-insert of E at the NEW address.
  const TraceEventSink::NameId ev_inval = TraceEventSink::name_id("line:invalidate");
  const TraceEventSink::NameId ev_squash = TraceEventSink::name_id("squash");
  const TraceEventSink::NameId ev_slb_insert = TraceEventSink::name_id("slb-insert");
  const TraceEventSink::NameId arg_line = TraceEventSink::name_id("line");
  const TraceEventSink::NameId arg_addr = TraceEventSink::name_id("addr");
  std::vector<Addr> slb;
  bool saw_inval_d = false;
  int squashes = 0;
  Cycle inval_cycle = 0, squash_cycle = 0;
  for (const TraceEventSink::Event& e : m.trace_events().events()) {
    if (e.track != 0) continue;  // P0's track
    if (e.name == ev_inval && e.arg(arg_line) == kD) {
      saw_inval_d = true;
      inval_cycle = e.ts;
    }
    if (e.name == ev_squash) {
      ++squashes;
      squash_cycle = e.ts;
      EXPECT_TRUE(saw_inval_d) << "squash must be caused by the invalidation";
    }
    if (e.name == ev_slb_insert) slb.push_back(e.arg(arg_addr));
  }
  EXPECT_TRUE(saw_inval_d);
  EXPECT_EQ(squashes, 1) << "a squash is recorded once";
  EXPECT_EQ(inval_cycle, squash_cycle) << "detection acts immediately";

  // Five speculative-load inserts: A, D, E[old], then D and E[new] again.
  ASSERT_EQ(slb.size(), 5u);
  EXPECT_EQ(slb[0], kA);
  EXPECT_EQ(slb[1], kD);
  EXPECT_EQ(slb[2], kEBase + 4 * kDOld);
  EXPECT_EQ(slb[3], kD);                  // reissued after the squash
  EXPECT_EQ(slb[4], kEBase + 4 * kDNew);  // new address!
}

TEST(Fig5Scenario, LateInvalidationIsArchitecturallyLegal) {
  // If P1 writes D only after P0's run would retire everything, P0
  // keeps E[old D] — that is a sequentially consistent outcome too
  // (P0's execution wholly precedes P1's store).
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.rob_entries = 512;
  Machine m(cfg, {p0_program(), p1_program(400)});
  m.preload_shared(0, kD);
  m.preload_exclusive(1, kC);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(3), 555u);
  EXPECT_EQ(m.core(0).stats().get("squashes"), 0u);
}

}  // namespace
}  // namespace mcsim
