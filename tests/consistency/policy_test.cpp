#include "consistency/policy.hpp"

#include <gtest/gtest.h>

namespace mcsim {
namespace {

using AC = AccessClass;
using CM = ConsistencyModel;

// ---- Figure 1 delay-arc matrix --------------------------------------

TEST(DelayArcs, SCOrdersEverything) {
  for (AC prev : {AC::kLoad, AC::kStore, AC::kAcquire, AC::kRelease}) {
    for (AC next : {AC::kLoad, AC::kStore, AC::kAcquire, AC::kRelease}) {
      EXPECT_TRUE(requires_delay(CM::kSC, prev, next))
          << to_string(prev) << " -> " << to_string(next);
    }
  }
}

TEST(DelayArcs, PCDropsOnlyStoreToLoad) {
  EXPECT_FALSE(requires_delay(CM::kPC, AC::kStore, AC::kLoad));
  EXPECT_FALSE(requires_delay(CM::kPC, AC::kStore, AC::kAcquire));
  EXPECT_FALSE(requires_delay(CM::kPC, AC::kRelease, AC::kLoad));
  EXPECT_TRUE(requires_delay(CM::kPC, AC::kLoad, AC::kLoad));
  EXPECT_TRUE(requires_delay(CM::kPC, AC::kLoad, AC::kStore));
  EXPECT_TRUE(requires_delay(CM::kPC, AC::kStore, AC::kStore));
}

TEST(DelayArcs, WCOrdersOnlyAroundSyncs) {
  EXPECT_FALSE(requires_delay(CM::kWC, AC::kLoad, AC::kLoad));
  EXPECT_FALSE(requires_delay(CM::kWC, AC::kLoad, AC::kStore));
  EXPECT_FALSE(requires_delay(CM::kWC, AC::kStore, AC::kLoad));
  EXPECT_FALSE(requires_delay(CM::kWC, AC::kStore, AC::kStore));
  for (AC ord : {AC::kLoad, AC::kStore}) {
    for (AC sync : {AC::kAcquire, AC::kRelease}) {
      EXPECT_TRUE(requires_delay(CM::kWC, ord, sync));
      EXPECT_TRUE(requires_delay(CM::kWC, sync, ord));
    }
  }
  EXPECT_TRUE(requires_delay(CM::kWC, AC::kAcquire, AC::kRelease));
  EXPECT_TRUE(requires_delay(CM::kWC, AC::kRelease, AC::kAcquire));
}

TEST(DelayArcs, RCAcquireGatesLaterAccesses) {
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kAcquire, AC::kLoad));
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kAcquire, AC::kStore));
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kAcquire, AC::kRelease));
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kAcquire, AC::kAcquire));
}

TEST(DelayArcs, RCReleaseWaitsForEarlierAccesses) {
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kLoad, AC::kRelease));
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kStore, AC::kRelease));
  EXPECT_TRUE(requires_delay(CM::kRC, AC::kRelease, AC::kRelease));
}

TEST(DelayArcs, RCOrdinaryAccessesAreFree) {
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kLoad, AC::kLoad));
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kLoad, AC::kStore));
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kStore, AC::kLoad));
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kStore, AC::kStore));
  // Accesses after a release need not wait for it (RC's refinement
  // over WC), and release->acquire is unordered under RCpc.
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kRelease, AC::kLoad));
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kRelease, AC::kStore));
  EXPECT_FALSE(requires_delay(CM::kRC, AC::kRelease, AC::kAcquire));
}

// Relative strictness: every arc a weaker model enforces, the stricter
// model enforces too (SC >= PC, SC >= WC >= RC in Figure 1's hierarchy).
TEST(DelayArcs, StrictnessHierarchy) {
  for (AC prev : {AC::kLoad, AC::kStore, AC::kAcquire, AC::kRelease}) {
    for (AC next : {AC::kLoad, AC::kStore, AC::kAcquire, AC::kRelease}) {
      if (requires_delay(CM::kPC, prev, next)) {
        EXPECT_TRUE(requires_delay(CM::kSC, prev, next));
      }
      if (requires_delay(CM::kRC, prev, next)) {
        EXPECT_TRUE(requires_delay(CM::kWC, prev, next));
      }
      if (requires_delay(CM::kWC, prev, next)) {
        EXPECT_TRUE(requires_delay(CM::kSC, prev, next));
      }
    }
  }
}

// ---- issue-gating predicates -----------------------------------------

TEST(LoadGate, SCBlocksOnAnyEarlierAccess) {
  IssueContext ctx;
  EXPECT_TRUE(load_may_issue(CM::kSC, ctx));
  ctx.earlier_load_incomplete = true;
  EXPECT_FALSE(load_may_issue(CM::kSC, ctx));
  ctx = IssueContext{};
  ctx.earlier_store_incomplete = true;
  EXPECT_FALSE(load_may_issue(CM::kSC, ctx));
}

TEST(LoadGate, PCIgnoresStores) {
  IssueContext ctx;
  ctx.earlier_store_incomplete = true;
  EXPECT_TRUE(load_may_issue(CM::kPC, ctx));
  ctx.earlier_load_incomplete = true;
  EXPECT_FALSE(load_may_issue(CM::kPC, ctx));
}

TEST(LoadGate, WCOrdinaryBlocksOnlyOnSyncs) {
  IssueContext ctx;
  ctx.earlier_load_incomplete = true;
  ctx.earlier_store_incomplete = true;
  EXPECT_TRUE(load_may_issue(CM::kWC, ctx));
  ctx.earlier_sync_incomplete = true;
  EXPECT_FALSE(load_may_issue(CM::kWC, ctx));
}

TEST(LoadGate, WCSyncLoadWaitsForEverything) {
  IssueContext ctx;
  ctx.self_sync = SyncKind::kAcquire;
  EXPECT_TRUE(load_may_issue(CM::kWC, ctx));
  ctx.earlier_store_incomplete = true;
  EXPECT_FALSE(load_may_issue(CM::kWC, ctx));
}

TEST(LoadGate, RCBlocksOnlyOnAcquire) {
  IssueContext ctx;
  ctx.earlier_load_incomplete = true;
  ctx.earlier_store_incomplete = true;
  ctx.earlier_sync_incomplete = true;  // e.g. a pending release
  EXPECT_TRUE(load_may_issue(CM::kRC, ctx));
  ctx.earlier_acquire_incomplete = true;
  EXPECT_FALSE(load_may_issue(CM::kRC, ctx));
}

TEST(StoreGate, SCAndPCOneAtATime) {
  IssueContext ctx;
  ctx.earlier_store_incomplete = true;
  EXPECT_FALSE(store_may_issue(CM::kSC, ctx));
  EXPECT_FALSE(store_may_issue(CM::kPC, ctx));
  ctx.earlier_store_incomplete = false;
  EXPECT_TRUE(store_may_issue(CM::kSC, ctx));
  EXPECT_TRUE(store_may_issue(CM::kPC, ctx));
}

TEST(StoreGate, RCOrdinaryStoresPipeline) {
  IssueContext ctx;
  ctx.earlier_store_incomplete = true;
  EXPECT_TRUE(store_may_issue(CM::kRC, ctx));
}

TEST(StoreGate, RCReleaseWaitsForEarlierStores) {
  IssueContext ctx;
  ctx.self_sync = SyncKind::kRelease;
  EXPECT_TRUE(store_may_issue(CM::kRC, ctx));
  ctx.earlier_store_incomplete = true;
  EXPECT_FALSE(store_may_issue(CM::kRC, ctx));
}

TEST(StoreGate, WCSyncStoreWaitsForEverything) {
  IssueContext ctx;
  ctx.self_sync = SyncKind::kRelease;
  ctx.earlier_load_incomplete = true;
  EXPECT_FALSE(store_may_issue(CM::kWC, ctx));
  ctx.earlier_load_incomplete = false;
  EXPECT_TRUE(store_may_issue(CM::kWC, ctx));
}

TEST(RmwGate, RequiresBothSides) {
  IssueContext ctx;
  EXPECT_TRUE(rmw_may_issue(CM::kSC, ctx));
  ctx.earlier_load_incomplete = true;
  EXPECT_FALSE(rmw_may_issue(CM::kSC, ctx));  // load side fails
  ctx = IssueContext{};
  ctx.earlier_store_incomplete = true;
  EXPECT_FALSE(rmw_may_issue(CM::kSC, ctx));  // store side fails
}

// ---- speculative-load buffer field rules -----------------------------

TEST(SpecRules, AcqFieldPerModel) {
  EXPECT_TRUE(spec_load_treated_as_acquire(CM::kSC, SyncKind::kNone));
  EXPECT_TRUE(spec_load_treated_as_acquire(CM::kPC, SyncKind::kNone));
  EXPECT_FALSE(spec_load_treated_as_acquire(CM::kWC, SyncKind::kNone));
  EXPECT_TRUE(spec_load_treated_as_acquire(CM::kWC, SyncKind::kAcquire));
  EXPECT_FALSE(spec_load_treated_as_acquire(CM::kRC, SyncKind::kNone));
  EXPECT_TRUE(spec_load_treated_as_acquire(CM::kRC, SyncKind::kAcquire));
}

TEST(SpecRules, StoreTagRulePerModel) {
  EXPECT_EQ(spec_load_store_tag_rule(CM::kSC), StoreTagRule::kAnyStore);
  EXPECT_EQ(spec_load_store_tag_rule(CM::kPC), StoreTagRule::kNone);
  EXPECT_EQ(spec_load_store_tag_rule(CM::kWC), StoreTagRule::kSyncStore);
  EXPECT_EQ(spec_load_store_tag_rule(CM::kRC), StoreTagRule::kNone);
}

}  // namespace
}  // namespace mcsim
