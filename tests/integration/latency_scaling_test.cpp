// The figure cycle counts follow closed-form laws in the miss latency
// L (hit = 1): Example 1 under SC costs 3L+1, under RC 2L+2, and with
// prefetching L+3 on both; Example 2 costs 3L+2 / 2L+3 baseline and
// L+4 with speculation. Checking the laws across L validates the whole
// timing model structurally, not just at the paper's L=100 point.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

namespace mcsim {
namespace {

constexpr Addr kLock = 0x1000, kA = 0x2000, kB = 0x3000;
constexpr Addr kC = 0x2000, kD = 0x3000, kEBase = 0x4000;

Program example1() {
  ProgramBuilder b;
  b.tas(31, ProgramBuilder::abs(kLock), SyncKind::kAcquire);
  b.store(0, ProgramBuilder::abs(kA));
  b.store(0, ProgramBuilder::abs(kB));
  b.unlock(kLock);
  b.halt();
  return b.build();
}

Program example2() {
  ProgramBuilder b;
  b.data(kD, 5);
  b.tas(31, ProgramBuilder::abs(kLock), SyncKind::kAcquire);
  b.load(1, ProgramBuilder::abs(kC));
  b.load(2, ProgramBuilder::abs(kD));
  b.load(3, ProgramBuilder::indexed(kEBase, 2, 2));
  b.unlock(kLock);
  b.halt();
  return b.build();
}

Cycle run(const Program& p, std::uint32_t latency, ConsistencyModel model, bool pf,
          bool spec, bool warm_d = false) {
  SystemConfig cfg = SystemConfig::paper_default(1, model);
  cfg.with_clean_miss_latency(latency);
  cfg.core.prefetch = pf ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  cfg.core.speculative_loads = spec;
  Machine m(cfg, {p});
  if (warm_d) m.preload_shared(0, kD);
  RunResult r = m.run();
  EXPECT_FALSE(r.deadlocked);
  return r.cycles;
}

class LatencyLaw : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LatencyLaw, Example1FollowsClosedForms) {
  const std::uint32_t L = GetParam();
  Program p = example1();
  EXPECT_EQ(run(p, L, ConsistencyModel::kSC, false, false), 3 * L + 1);
  EXPECT_EQ(run(p, L, ConsistencyModel::kRC, false, false), 2 * L + 2);
  EXPECT_EQ(run(p, L, ConsistencyModel::kSC, true, false), L + 3);
  EXPECT_EQ(run(p, L, ConsistencyModel::kRC, true, false), L + 3);
}

TEST_P(LatencyLaw, Example2FollowsClosedForms) {
  const std::uint32_t L = GetParam();
  Program p = example2();
  EXPECT_EQ(run(p, L, ConsistencyModel::kSC, false, false, true), 3 * L + 2);
  EXPECT_EQ(run(p, L, ConsistencyModel::kRC, false, false, true), 2 * L + 3);
  EXPECT_EQ(run(p, L, ConsistencyModel::kSC, true, true, true), L + 4);
  EXPECT_EQ(run(p, L, ConsistencyModel::kRC, true, true, true), L + 4);
}

INSTANTIATE_TEST_SUITE_P(MissLatencies, LatencyLaw,
                         ::testing::Values(20u, 60u, 100u, 250u, 400u),
                         [](const testing::TestParamInfo<std::uint32_t>& info) {
                           std::string name("L");
                           name += std::to_string(info.param);
                           return name;
                         });

}  // namespace
}  // namespace mcsim
