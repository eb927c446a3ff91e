// Directory transient-state corner cases: deferred-request replay,
// recall/writeback crossings, eviction during contention, and sharer
// bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"

namespace mcsim {
namespace {

class Harness {
 public:
  explicit Harness(std::uint32_t nprocs, std::uint32_t sets = 16, std::uint32_t ways = 2) {
    cfg_.num_sets = sets;
    cfg_.ways = ways;
    cfg_.line_bytes = 16;
    cfg_.mshrs = 8;
    mem_cfg_.net_latency = 5;
    mem_cfg_.dir_latency = 2;
    mem_cfg_.mem_bytes = 1 << 16;
    net_ = std::make_unique<Network>(nprocs + 1, mem_cfg_.net_latency);
    dir_ = std::make_unique<DirectoryGroup>(nprocs, cfg_, mem_cfg_, *net_);
    for (ProcId p = 0; p < nprocs; ++p)
      caches_.push_back(
          std::make_unique<CoherentCache>(p, cfg_, mem_cfg_, *net_, nprocs));
  }

  void tick() {
    net_->deliver(cycle_);
    dir_->tick(cycle_);
    for (auto& c : caches_) c->tick(cycle_);
    ++cycle_;
  }
  void run(int n) {
    for (int i = 0; i < n; ++i) tick();
  }
  int drain(int bound = 2000) {
    int i = 0;
    for (; i < bound; ++i) {
      tick();
      if (net_->idle() && dir_->idle()) break;
    }
    return i;
  }

  ProbeResult store(ProcId p, Addr a, Word v, std::uint64_t tok) {
    CacheRequest r;
    r.op = CacheOp::kStore;
    r.addr = a;
    r.store_value = v;
    r.token = tok;
    return caches_[p]->probe(r, cycle_);
  }
  ProbeResult load(ProcId p, Addr a, std::uint64_t tok) {
    CacheRequest r;
    r.op = CacheOp::kLoad;
    r.addr = a;
    r.token = tok;
    return caches_[p]->probe(r, cycle_);
  }
  int count_responses(ProcId p) {
    CacheResponse resp;
    int n = 0;
    while (caches_[p]->pop_response(cycle_ + 1, resp)) ++n;
    return n;
  }

  CacheConfig cfg_;
  MemConfig mem_cfg_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<DirectoryGroup> dir_;
  std::vector<std::unique_ptr<CoherentCache>> caches_;
  Cycle cycle_ = 0;
};

TEST(DirectoryCorner, ThreeWayWriteContentionSerializes) {
  Harness h(3);
  // All three processors store to the same line back to back: the
  // directory must defer and serialize; final memory value is the last
  // grant's, and exactly one cache ends exclusive.
  h.store(0, 0x100, 10, 1);
  h.tick();
  h.store(1, 0x100, 20, 2);
  h.tick();
  h.store(2, 0x100, 30, 3);
  h.drain();
  int exclusive = 0;
  for (ProcId p = 0; p < 3; ++p)
    if (h.caches_[p]->line_state(0x100) == LineState::kExclusive) ++exclusive;
  EXPECT_EQ(exclusive, 1);
  EXPECT_EQ(h.count_responses(0), 1);
  EXPECT_EQ(h.count_responses(1), 1);
  EXPECT_EQ(h.count_responses(2), 1);
  EXPECT_FALSE(h.dir_->line_busy(0x100));
  // Requests were granted in arrival order, so P2's value is last.
  Word final_val = 0;
  for (ProcId p = 0; p < 3; ++p)
    if (auto v = h.caches_[p]->peek_word(0x100)) final_val = *v;
  EXPECT_EQ(final_val, 30u);
}

TEST(DirectoryCorner, MixedReadWriteBurstAllServed) {
  Harness h(4);
  h.store(0, 0x200, 1, 1);
  h.tick();
  h.load(1, 0x200, 2);
  h.tick();
  h.store(2, 0x200, 2, 3);
  h.tick();
  h.load(3, 0x200, 4);
  h.drain();
  for (ProcId p = 0; p < 4; ++p) EXPECT_EQ(h.count_responses(p), 1) << "P" << p;
  EXPECT_FALSE(h.dir_->line_busy(0x200));
}

TEST(DirectoryCorner, WritebackCrossingRecallResolves) {
  // Force P0's dirty line to be evicted at the same time P1 requests
  // it: tiny 1-way cache, two stores to the same set.
  Harness h(2, /*sets=*/2, /*ways=*/1);
  CacheResponse resp;
  h.store(0, 0x100, 11, 1);
  h.drain();
  // P1 requests 0x100 (recall will be sent to P0)...
  h.load(1, 0x100, 2);
  // ...while P0 immediately evicts it by storing to the same set.
  h.tick();
  h.store(0, 0x140, 22, 3);  // 2 sets * 16B lines: 0x140 maps with 0x100
  int cycles = h.drain();
  EXPECT_LT(cycles, 1900) << "recall/writeback crossing must not wedge";
  EXPECT_GE(h.count_responses(1), 1);
  // Memory must have P0's data regardless of which message won.
  EXPECT_EQ(h.dir_->memory().read(0x100), 11u);
  EXPECT_FALSE(h.dir_->line_busy(0x100));
}

TEST(DirectoryCorner, ReplaceNotifyPrunesSharers) {
  Harness h(2);
  h.load(0, 0x300, 1);
  h.drain();
  h.load(1, 0x300, 2);
  h.drain();
  EXPECT_EQ(h.dir_->sharers(0x300), 0b11u);
  // Force P0 to evict the clean line (same set pressure, 2 ways -> need
  // two more lines in that set; 16 sets * 16B = 0x100 stride).
  h.load(0, 0x400, 3);
  h.drain();
  h.load(0, 0x500, 4);
  h.drain();
  EXPECT_EQ(h.dir_->sharers(0x300), 0b10u) << "P0's eviction should prune its bit";
}

TEST(DirectoryCorner, OwnerReadAfterWritebackIsServedFromMemory) {
  Harness h(2, 2, 1);
  h.store(0, 0x100, 7, 1);
  h.drain();
  h.store(0, 0x140, 8, 2);  // evicts 0x100 (writeback)
  h.drain();
  EXPECT_EQ(h.dir_->line_state(0x100), Directory::State::kUncached);
  EXPECT_EQ(h.dir_->memory().read(0x100), 7u);
  h.load(0, 0x100, 3);
  h.drain();
  EXPECT_EQ(h.count_responses(0), 3);
}

TEST(DirectoryCorner, BackToBackUpgradeRaces) {
  // Both processors share the line, then both try to upgrade at once:
  // one wins, the other is deferred, recalled, and still completes.
  Harness h(2);
  h.load(0, 0x600, 1);
  h.drain();
  h.load(1, 0x600, 2);
  h.drain();
  h.store(0, 0x600, 100, 3);
  h.tick();
  h.store(1, 0x600, 200, 4);
  h.drain();
  EXPECT_EQ(h.count_responses(0), 2);
  EXPECT_EQ(h.count_responses(1), 2);
  // The second upgrade won the line last.
  EXPECT_EQ(h.caches_[1]->line_state(0x600), LineState::kExclusive);
  EXPECT_EQ(*h.caches_[1]->peek_word(0x600), 200u);
  EXPECT_EQ(h.caches_[0]->line_state(0x600), LineState::kInvalid);
}

TEST(DirectoryCorner, DirectoryIdleAfterQuiescence) {
  Harness h(3);
  for (std::uint64_t i = 0; i < 6; ++i) {
    h.store(i % 3, 0x100 + 16 * (i % 2), static_cast<Word>(i), i + 1);
    h.run(3);
  }
  h.drain();
  EXPECT_TRUE(h.dir_->idle());
  EXPECT_TRUE(h.net_->idle());
}

// Four writers queue behind a recall on a hot line. Each replay re-busies
// the line (the next writer must recall the previous one), so the rest
// of the wait queue moves to every next transaction in turn. Requests
// are served in arrival order, the queue depth the post-mortem snapshot
// reports climbs to 3 and then falls by one per transaction, and the
// profiler's queue-wait samples equal the values the re-queueing
// implementation recorded.
TEST(DirectoryCorner, WaitQueueHandedOverServesInArrivalOrder) {
  // dir.queue_wait as recorded before the handover: 3 samples.
  constexpr std::uint64_t kWaitSum = 66, kWaitMax = 33;
  constexpr ProcId kProcs = 5;
  constexpr Addr kLine = 0x300;
  Harness h(kProcs);
  h.dir_->set_profiling(true);
  h.store(0, kLine, 100, 1);
  h.drain();
  ASSERT_EQ(h.caches_[0]->line_state(kLine), LineState::kExclusive);
  for (ProcId p = 1; p < kProcs; ++p) {
    h.store(p, kLine, 100 + p, 10 + p);
    h.tick();
  }
  std::vector<Cycle> granted(kProcs, kCycleNever);
  std::vector<std::uint64_t> depths;  // snapshot "deferred", deduplicated
  for (int i = 0; i < 2000 && !(h.net_->idle() && h.dir_->idle()); ++i) {
    h.tick();
    for (ProcId p = 1; p < kProcs; ++p) {
      // A grant and the next writer's recall reach the cache in the
      // same cycle, so watch the store's completion, not the line state.
      CacheResponse resp;
      if (h.caches_[p]->pop_response(h.cycle_ + 1, resp)) granted[p] = h.cycle_;
    }
    const Json snap = h.dir_->snapshot_json();
    const std::uint64_t depth =
        snap.items().empty() ? 0 : snap.items().front()["deferred"].as_uint();
    if (depths.empty() || depths.back() != depth) depths.push_back(depth);
  }
  ASSERT_TRUE(h.dir_->idle());
  for (ProcId p = 1; p < kProcs; ++p) ASSERT_NE(granted[p], kCycleNever) << "P" << p;
  for (ProcId p = 2; p < kProcs; ++p) {
    EXPECT_LT(granted[p - 1], granted[p]) << "P" << p << " overtook P" << p - 1;
  }
  EXPECT_EQ(depths, (std::vector<std::uint64_t>{0, 1, 2, 3, 2, 1, 0}));
  const StatSet& st = h.dir_->bank(0).stats();
  EXPECT_EQ(st.get("deferred"), 3u);
  const LogHistogram* wait = st.histogram(prof::dir_queue_wait);
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 3u);
  EXPECT_EQ(wait->sum(), kWaitSum);
  EXPECT_EQ(wait->max(), kWaitMax);
  EXPECT_EQ(h.caches_[kProcs - 1]->peek_word(kLine), Word{100 + kProcs - 1});
}

}  // namespace
}  // namespace mcsim
