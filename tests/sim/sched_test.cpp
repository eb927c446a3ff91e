// Unit tests for the active-set Scheduler (sim/sched.hpp) plus a
// machine-level identity check: arm/re-arm/cancel/pop semantics, the
// (cycle, id) tie-break that reproduces the naive loop's stage order,
// never-under-reporting against a stepwise ground truth, randomized
// soaks against a reference priority map, the calendar wheel's edges
// (its last slot, the overflow heap, arms into the past, ties between
// wheel and heap), a P=256 sparse-activity run where the active-set
// fast-forward path must fingerprint-match the naive per-cycle loop
// exactly, and a P=64 contended run where many cores sleep on one hot
// line.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/profile.hpp"
#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "sim/sched.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

TEST(Scheduler, StartsEmptyAndUnarmed) {
  Scheduler s(8);
  EXPECT_EQ(s.universe(), 8u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.armed_count(), 0u);
  EXPECT_EQ(s.next_cycle(), kCycleNever);
  for (Scheduler::CompId c = 0; c < 8; ++c) EXPECT_EQ(s.armed_at(c), kCycleNever);
  EXPECT_TRUE(s.validate());
}

TEST(Scheduler, ArmPopRoundTrip) {
  Scheduler s(4);
  s.arm(2, 10);
  EXPECT_EQ(s.armed_count(), 1u);
  EXPECT_EQ(s.armed_at(2), 10u);
  EXPECT_EQ(s.next_cycle(), 10u);
  EXPECT_EQ(s.top(), 2u);
  EXPECT_EQ(s.pop(), 2u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.armed_at(2), kCycleNever) << "pop() disarms";
  EXPECT_TRUE(s.validate());
}

TEST(Scheduler, RearmOverwritesTheSingleWakeup) {
  Scheduler s(4);
  s.arm(1, 100);
  s.arm(1, 7);  // earlier: must replace, not add
  EXPECT_EQ(s.armed_count(), 1u);
  EXPECT_EQ(s.next_cycle(), 7u);
  s.arm(1, 50);  // later: still a replace
  EXPECT_EQ(s.armed_count(), 1u);
  EXPECT_EQ(s.next_cycle(), 50u);
  EXPECT_EQ(s.armed_at(1), 50u);
  s.arm(1, 50);  // same value: no-op
  EXPECT_EQ(s.armed_count(), 1u);
  EXPECT_TRUE(s.validate());
  EXPECT_EQ(s.pop(), 1u);
  EXPECT_TRUE(s.empty()) << "the overwritten armings must not linger";
}

TEST(Scheduler, CancelRemovesAndIsIdempotent) {
  Scheduler s(4);
  s.arm(0, 5);
  s.arm(3, 2);
  s.cancel(0);
  EXPECT_EQ(s.armed_at(0), kCycleNever);
  EXPECT_EQ(s.armed_count(), 1u);
  EXPECT_EQ(s.next_cycle(), 2u);
  s.cancel(0);  // cancelling an unarmed component is a no-op
  s.arm(3, kCycleNever);  // arming at kCycleNever IS a cancel
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.validate());
}

TEST(Scheduler, SameCyclePopsInComponentIdOrder) {
  // Ties on cycle break by lowest id — this is what makes the heap's
  // pop order within a cycle equal the naive loop's stage order
  // (network < banks < caches < cores in Machine's id scheme).
  Scheduler s(16);
  const Scheduler::CompId arm_order[] = {9, 0, 13, 4, 2, 7};
  for (Scheduler::CompId c : arm_order) s.arm(c, 42);
  std::vector<Scheduler::CompId> popped;
  while (!s.empty()) {
    EXPECT_EQ(s.next_cycle(), 42u);
    popped.push_back(s.pop());
  }
  EXPECT_EQ(popped, (std::vector<Scheduler::CompId>{0, 2, 4, 7, 9, 13}));
}

TEST(Scheduler, DrainYieldsNonDecreasingCycles) {
  Scheduler s(64);
  Pcg32 rng(0xBEEF);
  for (Scheduler::CompId c = 0; c < 64; ++c) s.arm(c, rng.next_below(1000));
  Cycle prev = 0;
  while (!s.empty()) {
    const Cycle at = s.next_cycle();
    EXPECT_GE(at, prev) << "heap top went backwards";
    prev = at;
    s.pop();
  }
}

TEST(Scheduler, NeverUnderReportsAgainstStepwiseGroundTruth) {
  // Walk time forward one cycle at a time; at every step the heap top
  // must equal the true minimum of the armed set (an under-report
  // would make the machine run a provably-dead tick live; an
  // over-report would skip real work).
  Scheduler s(32);
  std::map<Scheduler::CompId, Cycle> truth;
  Pcg32 rng(1234);
  for (Scheduler::CompId c = 0; c < 32; ++c) {
    const Cycle at = 1 + rng.next_below(200);
    s.arm(c, at);
    truth[c] = at;
  }
  for (Cycle now = 0; now <= 200; ++now) {
    Cycle want = kCycleNever;
    for (const auto& [c, at] : truth) want = std::min(want, at);
    ASSERT_EQ(s.next_cycle(), want) << "at cycle " << now;
    // Retire everything due now, occasionally re-arming later (a core
    // making progress re-arms at now+1..now+k).
    while (!s.empty() && s.next_cycle() == now) {
      const Scheduler::CompId c = s.pop();
      truth.erase(c);
      if (rng.chance(1, 3)) {
        const Cycle again = now + 1 + rng.next_below(40);
        s.arm(c, again);
        truth[c] = again;
      }
    }
  }
}

TEST(Scheduler, RandomizedSoakAgainstReferenceMap) {
  // 20k random arm/re-arm/cancel/pop operations, cross-checked against
  // a std::map reference and the structural validate() invariant.
  constexpr std::uint32_t kUniverse = 97;  // odd size: exercise sift paths
  Scheduler s(kUniverse);
  std::map<Scheduler::CompId, Cycle> ref;  // comp -> armed cycle
  Pcg32 rng(0xC0FFEE);
  auto ref_min = [&ref]() {
    Cycle at = kCycleNever;
    Scheduler::CompId comp = 0;
    for (const auto& [c, when] : ref) {
      if (when < at || (when == at && c < comp)) {
        at = when;
        comp = c;
      }
    }
    return std::pair<Cycle, Scheduler::CompId>{at, comp};
  };
  for (int op = 0; op < 20000; ++op) {
    const std::uint32_t kind = rng.next_below(10);
    if (kind < 6) {  // arm / re-arm
      const Scheduler::CompId c = rng.next_below(kUniverse);
      const Cycle at = rng.next_below(512);  // dense: plenty of ties
      s.arm(c, at);
      ref[c] = at;
    } else if (kind < 8) {  // cancel
      const Scheduler::CompId c = rng.next_below(kUniverse);
      s.cancel(c);
      ref.erase(c);
    } else if (!ref.empty()) {  // pop
      const auto [at, comp] = ref_min();
      ASSERT_EQ(s.next_cycle(), at) << "op " << op;
      ASSERT_EQ(s.top(), comp) << "op " << op;
      ASSERT_EQ(s.pop(), comp) << "op " << op;
      ref.erase(comp);
    }
    ASSERT_EQ(s.armed_count(), ref.size()) << "op " << op;
    if ((op & 255) == 0) {
      ASSERT_TRUE(s.validate()) << "op " << op;
    }
  }
  // Drain: pop order must be the reference sorted by (cycle, id).
  while (!ref.empty()) {
    const auto [at, comp] = ref_min();
    ASSERT_EQ(s.next_cycle(), at);
    ASSERT_EQ(s.pop(), comp);
    ref.erase(comp);
  }
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.validate());
}

// ---------------------------------------------------------------------
// Calendar wheel: armings within kWheelSlots - 1 cycles of the latest
// popped cycle live in the wheel, everything else in the overflow heap.
// The pop order must not depend on which of the two holds an arming.
// ---------------------------------------------------------------------

/// Pop one component at `at` so the wheel's base moves there.
void advance_base(Scheduler& s, Scheduler::CompId c, Cycle at) {
  s.arm(c, at);
  ASSERT_EQ(s.next_cycle(), at);
  ASSERT_EQ(s.pop(), c);
}

TEST(SchedulerWheel, LastWheelSlotAndFirstOverflowCycle) {
  Scheduler s(8);
  advance_base(s, 0, 1000);
  const Cycle base = 1000;
  s.arm(3, base + Scheduler::kWheelSlots);      // first cycle past the wheel
  s.arm(5, base + Scheduler::kWheelSlots - 1);  // last wheel slot
  s.arm(1, base + Scheduler::kWheelSlots);
  ASSERT_TRUE(s.validate());
  EXPECT_EQ(s.next_cycle(), base + 63);
  EXPECT_EQ(s.top(), 5u);
  EXPECT_EQ(s.pop(), 5u);
  ASSERT_TRUE(s.validate());
  EXPECT_EQ(s.next_cycle(), base + 64);
  EXPECT_EQ(s.pop(), 1u);
  EXPECT_EQ(s.pop(), 3u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.validate());
}

TEST(SchedulerWheel, ArmBelowTheLastPoppedCycle) {
  Scheduler s(8);
  advance_base(s, 2, 500);
  s.arm(4, 510);
  s.arm(6, 120);  // into the past: overflow heap
  s.arm(1, 500);  // the popped cycle itself: wheel
  ASSERT_TRUE(s.validate());
  EXPECT_EQ(s.next_cycle(), 120u);
  EXPECT_EQ(s.pop(), 6u);
  ASSERT_TRUE(s.validate());
  EXPECT_EQ(s.pop(), 1u);
  EXPECT_EQ(s.pop(), 4u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.validate());
}

TEST(SchedulerWheel, FarArmReArmedIntoTheWheel) {
  Scheduler s(8);
  s.arm(7, 10'000);  // far: overflow heap
  s.arm(2, 9);
  ASSERT_TRUE(s.validate());
  s.arm(7, 5);       // re-armed near: moves into the wheel
  ASSERT_TRUE(s.validate());
  EXPECT_EQ(s.armed_count(), 2u);
  EXPECT_EQ(s.pop(), 7u);
  s.arm(2, 20'000);  // and back out again
  ASSERT_TRUE(s.validate());
  EXPECT_EQ(s.armed_count(), 1u);
  EXPECT_EQ(s.next_cycle(), 20'000u);
  EXPECT_EQ(s.pop(), 2u);
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.validate());
}

TEST(SchedulerWheel, WheelAndHeapTiesPopInIdOrder) {
  // 130 components (three bitset words per slot): some are armed for
  // cycle 100 while it is beyond the wheel, the rest once the base has
  // moved close enough for 100 to be a wheel slot.
  Scheduler s(130);
  const Scheduler::CompId far[] = {129, 64, 5, 70};
  for (Scheduler::CompId c : far) s.arm(c, 100);
  ASSERT_TRUE(s.validate());
  advance_base(s, 0, 40);
  const Scheduler::CompId near[] = {128, 2, 65, 7, 63};
  for (Scheduler::CompId c : near) s.arm(c, 100);
  ASSERT_TRUE(s.validate());
  std::vector<Scheduler::CompId> popped;
  while (!s.empty()) {
    EXPECT_EQ(s.next_cycle(), 100u);
    EXPECT_EQ(s.top(), s.top());
    popped.push_back(s.pop());
    ASSERT_TRUE(s.validate());
  }
  EXPECT_EQ(popped,
            (std::vector<Scheduler::CompId>{2, 5, 7, 63, 64, 65, 70, 128, 129}));
}

TEST(SchedulerWheel, MachineLikeSoakAgainstReferenceMap) {
  // Time moves forward as components pop; each re-arms a few cycles
  // ahead (wheel), far ahead (heap) or, rarely, in the past (heap).
  // Every step is cross-checked against a reference and validate().
  constexpr std::uint32_t kUniverse = 150;
  Scheduler s(kUniverse);
  std::map<Scheduler::CompId, Cycle> ref;
  Pcg32 rng(0x5EED);
  Cycle now = 0;
  auto ref_min = [&ref]() {
    std::pair<Cycle, Scheduler::CompId> best{kCycleNever, 0};
    for (const auto& [c, at] : ref) {
      if (at < best.first) best = {at, c};  // map order: lowest id wins ties
    }
    return best;
  };
  auto arm_random = [&](Scheduler::CompId c) {
    const std::uint32_t kind = rng.next_below(20);
    Cycle at;
    if (kind < 14) at = now + rng.next_below(Scheduler::kWheelSlots);
    else if (kind < 18) at = now + Scheduler::kWheelSlots - 2 + rng.next_below(200);
    else if (kind < 19) at = now > 10 ? now - 1 - rng.next_below(10) : now;
    else at = kCycleNever;
    s.arm(c, at);
    if (at == kCycleNever) ref.erase(c);
    else ref[c] = at;
  };
  for (Scheduler::CompId c = 0; c < kUniverse; ++c) arm_random(c);
  for (int op = 0; op < 30000; ++op) {
    if (rng.chance(1, 3)) {
      arm_random(rng.next_below(kUniverse));
    } else if (!ref.empty()) {
      const auto [at, comp] = ref_min();
      ASSERT_EQ(s.next_cycle(), at) << "op " << op;
      ASSERT_EQ(s.top(), comp) << "op " << op;
      ASSERT_EQ(s.pop(), comp) << "op " << op;
      ref.erase(comp);
      if (at > now) now = at;
      arm_random(comp);
    }
    ASSERT_EQ(s.armed_count(), ref.size()) << "op " << op;
    if ((op & 63) == 0) {
      ASSERT_TRUE(s.validate()) << "op " << op;
    }
  }
  EXPECT_TRUE(s.validate());
}

// ---------------------------------------------------------------------
// Machine-level identity: active-set fast-forward vs naive loop on a
// sparse-activity P=256 machine (4 busy cores, 252 that halt at once),
// with the coarse-vector/4-bank directory the scaling campaign uses.
// This is exactly the shape active-set scheduling optimizes for, so it
// must stay cycle-identical, stat-identical, and stall-breakdown-identical.
// ---------------------------------------------------------------------

struct Fingerprint {
  RunResult result;
  std::string stats;
  std::vector<Word> regs;
  std::vector<Word> mem;
};

Fingerprint run_sparse(bool fastforward) {
  constexpr std::uint32_t kProcs = 256;
  constexpr Addr kCounter = 0x10000;   // contended RMW line
  constexpr Addr kFlagBase = 0x20000;  // per-worker flag words
  constexpr Addr kDataBase = 0x40000;  // per-worker private strides
  SystemConfig cfg = SystemConfig::paper_default(kProcs, ConsistencyModel::kSC);
  cfg.fastforward = fastforward;
  cfg.mem.dir_scheme = DirScheme::kCoarseVector;
  cfg.mem.dir_cluster = 8;
  cfg.mem.dir_banks = 4;

  std::vector<Program> programs;
  programs.reserve(kProcs);
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    ProgramBuilder b;
    if (p < 4) {
      // Busy worker: bump the shared counter, walk a private stride,
      // publish a flag, and (worker 0) wait for everyone else — long
      // quiescent stretches on 252 cores while these four run.
      b.li(1, 8);  // loop count
      b.li(2, 1);
      b.label("loop");
      b.fetch_add(3, ProgramBuilder::abs(kCounter), 2);
      b.store(3, ProgramBuilder::indexed(kDataBase + p * 0x1000, 1));
      b.load(4, ProgramBuilder::indexed(kDataBase + p * 0x1000, 1));
      b.sub(1, 1, 2);
      b.bne(1, 0, "loop", BranchHint::kTaken);
      b.store_rel(2, ProgramBuilder::abs(kFlagBase + p * kWordBytes));
      if (p == 0) {
        for (std::uint32_t q = 1; q < 4; ++q) {
          b.spin_until_eq(kFlagBase + q * kWordBytes, 1);
        }
      }
    }
    b.halt();
    programs.push_back(b.build());
  }

  Machine m(cfg, std::move(programs));
  Fingerprint fp;
  fp.result = m.run();
  fp.stats = m.stats_report();
  for (ProcId p = 0; p < cfg.num_procs; ++p) {
    for (RegId r = 0; r < kNumArchRegs; ++r) fp.regs.push_back(m.core(p).reg(r));
  }
  fp.mem.push_back(m.read_word(kCounter));
  for (std::uint32_t q = 0; q < 4; ++q) {
    fp.mem.push_back(m.read_word(kFlagBase + q * kWordBytes));
  }
  return fp;
}

TEST(ActiveSetMachine, SparseP256FingerprintMatchesNaiveLoop) {
  const Fingerprint ff = run_sparse(/*fastforward=*/true);
  const Fingerprint naive = run_sparse(/*fastforward=*/false);
  ASSERT_FALSE(naive.result.deadlocked);
  EXPECT_EQ(ff.result.cycles, naive.result.cycles);
  EXPECT_EQ(ff.result.ticks, naive.result.ticks);
  EXPECT_EQ(ff.result.deadlocked, naive.result.deadlocked);
  EXPECT_EQ(ff.result.retired, naive.result.retired);
  EXPECT_EQ(ff.result.drain_cycle, naive.result.drain_cycle);
  EXPECT_EQ(ff.result.stall, naive.result.stall)
      << "settled sleeping spans diverged from the naive per-cycle charges";
  EXPECT_EQ(ff.regs, naive.regs);
  EXPECT_EQ(ff.mem, naive.mem);
  EXPECT_EQ(ff.stats, naive.stats) << "stats report diverged";
  // The accounting identity settling must preserve: every core's
  // cycles-by-cause sums to ticks exactly.
  for (std::size_t p = 0; p < ff.result.stall.size(); ++p) {
    std::uint64_t total = 0;
    for (std::uint64_t v : ff.result.stall[p]) total += v;
    EXPECT_EQ(total, ff.result.ticks) << "core " << p;
  }
}

// P=64 zipfian SC cell with both techniques on a pool of two lines: most
// cores sleep with a miss outstanding on the same hot line while the
// directory flips its busy bit under them again and again. A sleeping
// core's span is charged in one piece when it wakes, so its stall
// breakdown must still equal the naive loop's cycle-by-cycle charges.
TEST(ActiveSetMachine, SleepersOnOneHotLineMatchNaiveLoop) {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kZipfian;
  spec.nprocs = 64;
  spec.ops = 64 * 12;
  spec.sharing = 2;
  spec.seed = 7;
  const Workload w = trace_to_workload(generate_trace(spec));
  auto run = [&](bool fastforward, std::uint64_t& deferred) {
    SystemConfig cfg = SystemConfig::realistic(64, ConsistencyModel::kSC);
    cfg.core.prefetch = PrefetchMode::kNonBinding;
    cfg.core.speculative_loads = true;
    cfg.profile = true;
    cfg.fastforward = fastforward;
    Machine m(cfg, w.programs);
    Fingerprint fp;
    fp.result = m.run();
    fp.stats = m.stats_report();
    const LogHistogram* h = m.directory().bank(0).stats().histogram(prof::dir_queue_wait);
    deferred = h != nullptr ? h->count() : 0;
    return fp;
  };
  std::uint64_t ff_deferred = 0, naive_deferred = 0;
  const Fingerprint ff = run(true, ff_deferred);
  const Fingerprint naive = run(false, naive_deferred);
  ASSERT_FALSE(naive.result.deadlocked);
  // Many requests queued behind a busy line: the sleepers' lines
  // flipped busy many times while they slept.
  EXPECT_GT(naive_deferred, 64u);
  EXPECT_EQ(ff_deferred, naive_deferred);
  EXPECT_EQ(ff.result.ticks, naive.result.ticks);
  EXPECT_EQ(ff.result.drain_cycle, naive.result.drain_cycle);
  EXPECT_EQ(ff.result.stall, naive.result.stall);
  EXPECT_EQ(ff.stats, naive.stats);
  for (const StallBreakdown& b : ff.result.stall)
    EXPECT_EQ(b[static_cast<std::size_t>(StallCause::kDirPending)], 0u);
}

}  // namespace
}  // namespace mcsim
