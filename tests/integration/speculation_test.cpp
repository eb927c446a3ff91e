// Detection + correction mechanism tests (§4.2): invalidation-driven
// squash, reissue of not-yet-done loads, replacement-driven squash
// (tiny cache), RMW speculation repair, and accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

constexpr Addr kGate = 0x1000;   // slow access blocking retirement
constexpr Addr kTarget = 0x2000; // speculated location another proc writes
constexpr Addr kOut = 0x7000;

// P0 loads kGate (slow: dirty in P1) then kTarget (fast). With
// speculation, kTarget's value is consumed long before kGate returns;
// P1 then writes kTarget. Under SC the old value must never survive:
// P0 must squash and re-read.
TEST(Speculation, InvalidationOfConsumedValueSquashesAndRereads) {
  ProgramBuilder p0;
  p0.data(kTarget, 10);
  p0.load(1, ProgramBuilder::abs(kGate));    // slow (recall from P1)
  p0.load(2, ProgramBuilder::abs(kTarget));  // fast, speculated
  p0.add(3, 2, 2);                           // consume the value
  p0.store(3, ProgramBuilder::abs(kOut));
  p0.halt();

  ProgramBuilder p1;
  for (int i = 0; i < 30; ++i) p1.addi(9, 9, 1);
  p1.addi(4, 9, static_cast<std::int64_t>(kTarget) - 30);
  p1.li(2, 50);
  p1.store(2, ProgramBuilder::based(4));  // invalidates P0's speculated line
  p1.halt();

  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.rob_entries = 128;
  Machine m(cfg, {p0.build(), p1.build()});
  m.preload_exclusive(1, kGate);   // makes the gate load slow (~200 cycles)
  m.preload_shared(0, kTarget);    // speculated load hits immediately
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  // P1 wrote 50 well before P0's gate load returned, so SC requires
  // P0's read of kTarget to see 50 (P0's load performs after the gate).
  EXPECT_EQ(m.core(0).reg(2), 50u);
  EXPECT_EQ(m.read_word(kOut), 100u);
  EXPECT_GE(m.core(0).stats().get("squashes"), 1u);
  EXPECT_GE(m.core(0).lsu().stats().get("spec_squash"), 1u);
}

// The paper's second detection case: the coherence transaction arrives
// BEFORE the speculative access has completed, so only a reissue is
// needed (no squash of downstream computation). The reachable scenario
// is a read-exclusive upgrade losing a race: P0 holds the lock line
// shared, its Appendix-A speculative read-exclusive is in flight when
// P1's test&set invalidates the shared copy.
TEST(Speculation, InvalidationOfPendingLoadExOnlyReissues) {
  constexpr Addr kLock = 0x3000;
  constexpr Addr kCount = 0x4000;
  ProgramBuilder p0;
  p0.load(9, ProgramBuilder::abs(kGate));  // delays P0's TAS by one cycle
  p0.lock(kLock);
  p0.load(1, ProgramBuilder::abs(kCount));
  p0.addi(1, 1, 1);
  p0.store(1, ProgramBuilder::abs(kCount));
  p0.unlock(kLock);
  p0.halt();

  ProgramBuilder p1;
  p1.lock(kLock);  // wins the race: its ReadEx reaches the directory first
  p1.load(1, ProgramBuilder::abs(kCount));
  p1.addi(1, 1, 1);
  p1.store(1, ProgramBuilder::abs(kCount));
  p1.unlock(kLock);
  p1.halt();

  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  Machine m(cfg, {p0.build(), p1.build()});
  m.preload_shared(0, kLock);  // P0's TAS read-exclusive is an upgrade
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.read_word(kCount), 2u);  // mutual exclusion preserved
  // The invalidation hit P0's pending (not-done) read-exclusive entry.
  EXPECT_GE(m.core(0).lsu().stats().get("spec_reissue"), 1u);
}

// Replacement detection (§4.2 footnote): if a line with a live
// speculative entry is evicted, future invalidations can no longer
// reach us, so the entry must be conservatively treated as stale.
TEST(Speculation, ReplacementOfSpeculatedLineSquashes) {
  // Direct-mapped 2-set cache: loads to the same set evict each other.
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.cache.num_sets = 2;
  cfg.cache.ways = 1;
  cfg.cache.line_bytes = 16;

  ProgramBuilder b;
  b.data(0x100, 1);
  b.load(1, ProgramBuilder::abs(kGate));  // slow gate: everything after is speculative
  b.load(2, ProgramBuilder::abs(0x100)); // hits after fill, speculated, consumed
  b.load(3, ProgramBuilder::abs(0x140)); // same set (0x100 ^ 0x40): evicts 0x100
  b.halt();
  Machine m(cfg, {b.build()});
  m.preload_shared(0, 0x100);
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).reg(2), 1u);  // correctness preserved regardless
  EXPECT_GE(m.core(0).lsu().stats().get("spec_squash") +
                m.core(0).lsu().stats().get("spec_reissue"),
            1u);
  EXPECT_GE(m.cache(0).stats().get("event.replacement"), 1u);
}

// A contended test&set: P1's lock acquisition invalidates P0's
// speculatively read-exclusive lock line mid-flight; Appendix A's
// squash/replay keeps mutual exclusion intact.
TEST(Speculation, ContendedRmwSpeculationStaysAtomic) {
  constexpr Addr kLock = 0x3000;
  constexpr Addr kCount = 0x4000;
  auto prog = [] {
    ProgramBuilder b;
    for (int i = 0; i < 5; ++i) {
      b.lock(kLock);
      b.load(1, ProgramBuilder::abs(kCount));
      b.addi(1, 1, 1);
      b.store(1, ProgramBuilder::abs(kCount));
      b.unlock(kLock);
    }
    b.halt();
    return b.build();
  }();
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                 ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    SystemConfig cfg = SystemConfig::realistic(3, model);
    cfg.core.speculative_loads = true;
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    Machine m(cfg, {prog, prog, prog});
    RunResult r = m.run();
    ASSERT_FALSE(r.deadlocked) << to_string(model);
    EXPECT_EQ(m.read_word(kCount), 15u) << to_string(model);
  }
}

// The speculative-load buffer never leaks entries: after any run it is
// empty and every load either retired or was squashed.
TEST(Speculation, BufferDrainsCompletely) {
  ProgramBuilder b;
  for (int i = 0; i < 20; ++i) b.load(1, ProgramBuilder::abs(0x100 + 16 * i));
  b.halt();
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.core.speculative_loads = true;
  cfg.core.spec_load_buffer_entries = 4;  // small: forces stalls, not leaks
  Machine m(cfg, {b.build()});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_TRUE(m.core(0).lsu().spec_buffer().empty());
  EXPECT_EQ(m.core(0).lsu().stats().get("spec_entries"),
            m.core(0).lsu().stats().get("spec_retired"));
}

// A load whose issue gate is already open when it issues binds
// unconditionally (it is "nonspec": line events no longer touch it), so
// the access log must keep the stamp it recorded when the value bound,
// even though its speculative-load buffer entry retires much later,
// behind an older slow RMW. (Under WC a plain swap does not order a
// later plain load, so the load's gate is open at issue.)
TEST(Speculation, NonspecLoadKeepsItsBindStamp) {
  ProgramBuilder p0;
  p0.data(kTarget, 5);
  p0.li(6, 1);
  p0.swap(4, ProgramBuilder::abs(kGate), 6, SyncKind::kNone);  // slow: recall from P1
  p0.load(2, ProgramBuilder::abs(kTarget));                    // hits, gate open
  p0.halt();
  ProgramBuilder p1;
  p1.halt();
  SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kWC);
  cfg.core.speculative_loads = true;
  cfg.record_accesses = true;
  Machine m(cfg, {p0.build(), p1.build()});
  m.preload_exclusive(1, kGate);
  m.preload_shared(0, kTarget);
  auto load_stamp = [&m]() {
    const std::vector<std::vector<AccessRecord>> logs = m.access_logs();
    for (const AccessRecord& r : logs[0])
      if (r.kind == AccessKind::kLoad && r.addr == kTarget) return r.performed_at;
    return kCycleNever;
  };
  Cycle bound_at = kCycleNever;  // the stamp as first recorded, at bind
  while (!m.done() && m.now() < 5000) {
    m.step();
    if (bound_at == kCycleNever) bound_at = load_stamp();
  }
  ASSERT_TRUE(m.done());
  ASSERT_NE(bound_at, kCycleNever);
  EXPECT_EQ(m.core(0).reg(2), 5u);
  const std::vector<AccessRecord> log = m.access_logs()[0];
  ASSERT_EQ(log.size(), 2u);
  ASSERT_EQ(log[0].kind, AccessKind::kRmw);
  EXPECT_LT(bound_at, log[0].performed_at) << "the load should bind long before the swap";
  EXPECT_EQ(log[1].performed_at, bound_at)
      << "the nonspec load was restamped when its buffer entry retired";
}

// A contended zipfian trace squashes and reissues loads by the thousand;
// each withdraws its cache request, so no cache holds a request nothing
// waits for, and its waiter pool and response queue, sized for
// CoreConfig::max_requests() at construction, never grow.
TEST(Speculation, DroppedLoadsWithdrawTheirRequests) {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kZipfian;
  spec.nprocs = 64;
  spec.ops = 32ull * spec.nprocs;
  const Workload wl = trace_to_workload(generate_trace(spec));
  SystemConfig cfg = SystemConfig::realistic(spec.nprocs, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  const std::uint64_t line = cfg.cache.line_bytes;
  cfg.mem.mem_bytes = std::max(cfg.mem.mem_bytes, (wl.min_mem_bytes + line - 1) / line * line);
  Machine m(cfg, wl.programs);
  const RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  std::uint64_t dropped = 0;
  const std::size_t bound = cfg.core.max_requests();
  for (ProcId p = 0; p < spec.nprocs; ++p) {
    dropped += m.core(p).stats().get("squashes") + m.core(p).lsu().stats().get("spec_reissue");
    EXPECT_EQ(m.cache(p).waiter_capacity(), bound) << "cache " << p;
    EXPECT_EQ(m.cache(p).response_capacity(), bound) << "cache " << p;
  }
  EXPECT_GT(dropped, 1000u) << "the run should drop loads in flight";
}

}  // namespace
}  // namespace mcsim
