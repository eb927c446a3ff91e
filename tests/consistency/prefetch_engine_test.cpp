#include "consistency/prefetch_engine.hpp"

#include <gtest/gtest.h>

namespace mcsim {
namespace {

class PrefetchEngineTest : public ::testing::Test {
 protected:
  PrefetchEngineTest() : net_(2, 5), cache_(0, cache_cfg_, mem_cfg_, net_, 1, CoreConfig{}.max_requests()) {}

  CacheConfig cache_cfg_;
  MemConfig mem_cfg_;
  Network net_;
  CoherentCache cache_;
  StatSet stats_{"t"};
};

TEST_F(PrefetchEngineTest, OffModeSwallowsOffers) {
  PrefetchEngine e(PrefetchMode::kOff, CoherenceKind::kInvalidation, 8);
  EXPECT_FALSE(e.enabled());
  EXPECT_TRUE(e.offer(0x100, false, false, stats_));
  EXPECT_TRUE(e.empty());
}

TEST_F(PrefetchEngineTest, NonBindingQueuesDelayedAccesses) {
  PrefetchEngine e(PrefetchMode::kNonBinding, CoherenceKind::kInvalidation, 8);
  EXPECT_TRUE(e.offer(0x100, false, /*allowed_now=*/false, stats_));
  EXPECT_TRUE(e.offer(0x200, true, false, stats_));
  EXPECT_EQ(e.size(), 2u);
}

TEST_F(PrefetchEngineTest, DedupMergesAndUpgradesExclusivity) {
  PrefetchEngine e(PrefetchMode::kNonBinding, CoherenceKind::kInvalidation, 8);
  e.offer(0x100, false, false, stats_);
  e.offer(0x100, true, false, stats_);  // same line, now exclusive
  EXPECT_EQ(e.size(), 1u);
  ASSERT_TRUE(e.drain(cache_, 0));
  // The single drained prefetch was exclusive.
  EXPECT_EQ(cache_.stats().get("prefetch_ex_issued"), 1u);
}

TEST_F(PrefetchEngineTest, BindingRefusesConsistencyDelayedAccesses) {
  PrefetchEngine e(PrefetchMode::kBinding, CoherenceKind::kInvalidation, 8);
  EXPECT_FALSE(e.offer(0x100, false, /*allowed_now=*/false, stats_));
  EXPECT_TRUE(e.empty());
  // An access the model already allows may bind — but that is useless,
  // which is the §6 point.
  EXPECT_TRUE(e.offer(0x100, false, /*allowed_now=*/true, stats_));
  EXPECT_EQ(e.size(), 1u);
}

TEST_F(PrefetchEngineTest, UpdateProtocolSuppressesExclusive) {
  PrefetchEngine e(PrefetchMode::kNonBinding, CoherenceKind::kUpdate, 8);
  EXPECT_TRUE(e.offer(0x100, /*exclusive=*/true, false, stats_));  // swallowed
  EXPECT_TRUE(e.empty());
  EXPECT_GE(stats_.get("prefetch_ex_suppressed_update"), 1u);
  EXPECT_TRUE(e.offer(0x200, false, false, stats_));  // reads still fine
  EXPECT_EQ(e.size(), 1u);
}

TEST_F(PrefetchEngineTest, CapacityBounded) {
  PrefetchEngine e(PrefetchMode::kNonBinding, CoherenceKind::kInvalidation, 2);
  EXPECT_TRUE(e.offer(0x100, false, false, stats_));
  EXPECT_TRUE(e.offer(0x200, false, false, stats_));
  EXPECT_FALSE(e.offer(0x300, false, false, stats_));  // full: caller re-offers
  EXPECT_EQ(e.size(), 2u);
}

TEST_F(PrefetchEngineTest, DrainIssuesOnePerCall) {
  PrefetchEngine e(PrefetchMode::kNonBinding, CoherenceKind::kInvalidation, 8);
  e.offer(0x100, false, false, stats_);
  e.offer(0x200, false, false, stats_);
  EXPECT_TRUE(e.drain(cache_, 0));
  EXPECT_EQ(e.size(), 1u);
  EXPECT_TRUE(e.drain(cache_, 1));
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.drain(cache_, 2));
}

TEST_F(PrefetchEngineTest, SoftwareOffersBypassModeButNotProtocol) {
  PrefetchEngine e(PrefetchMode::kOff, CoherenceKind::kUpdate, 8);
  EXPECT_TRUE(e.offer_software(0x100, false, stats_));
  EXPECT_EQ(e.size(), 1u);  // software prefetches work even with hw prefetch off
  EXPECT_TRUE(e.offer_software(0x200, true, stats_));
  EXPECT_EQ(e.size(), 1u);  // exclusive suppressed under update
}

}  // namespace
}  // namespace mcsim
