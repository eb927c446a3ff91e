// Protocol-level tests of the cache + directory pair, driven without a
// processor: we issue CacheRequests directly and tick the memory system.
#include <gtest/gtest.h>

#include <memory>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"

namespace mcsim {
namespace {

class MemorySystem {
 public:
  explicit MemorySystem(std::uint32_t nprocs,
                        CoherenceKind proto = CoherenceKind::kInvalidation) {
    cfg_.num_sets = 16;
    cfg_.ways = 2;
    cfg_.line_bytes = 16;
    cfg_.mshrs = 4;
    mem_cfg_.net_latency = 5;
    mem_cfg_.dir_latency = 2;
    mem_cfg_.coherence = proto;
    mem_cfg_.mem_bytes = 1 << 16;
    net_ = std::make_unique<Network>(nprocs + 1, mem_cfg_.net_latency);
    dir_ = std::make_unique<DirectoryGroup>(nprocs, cfg_, mem_cfg_, *net_);
    for (ProcId p = 0; p < nprocs; ++p)
      caches_.push_back(std::make_unique<CoherentCache>(p, cfg_, mem_cfg_, *net_, nprocs,
                                                        CoreConfig{}.max_requests()));
  }

  void tick() {
    net_->deliver(cycle_);
    dir_->tick(cycle_);
    for (auto& c : caches_) c->tick(cycle_);
    ++cycle_;
  }

  /// Run until cache `p` produces a response (or a bound is hit).
  bool run_until_response(ProcId p, CacheResponse& out, int bound = 1000) {
    for (int i = 0; i < bound; ++i) {
      if (caches_[p]->pop_response(cycle_, out)) return true;
      tick();
    }
    return caches_[p]->pop_response(cycle_, out);
  }

  void run_cycles(int n) {
    for (int i = 0; i < n; ++i) tick();
  }

  CoherentCache& cache(ProcId p) { return *caches_[p]; }
  Network& net() { return *net_; }
  DirectoryGroup& dir() { return *dir_; }
  Cycle now() const { return cycle_; }

  ProbeResult load(ProcId p, Addr a, std::uint64_t token) {
    CacheRequest r;
    r.op = CacheOp::kLoad;
    r.addr = a;
    r.token = token;
    return caches_[p]->probe(r, cycle_);
  }
  ProbeResult store(ProcId p, Addr a, Word v, std::uint64_t token) {
    CacheRequest r;
    r.op = CacheOp::kStore;
    r.addr = a;
    r.store_value = v;
    r.token = token;
    return caches_[p]->probe(r, cycle_);
  }

  CacheConfig cfg_;
  MemConfig mem_cfg_;

 private:
  std::unique_ptr<Network> net_;
  std::unique_ptr<DirectoryGroup> dir_;
  std::vector<std::unique_ptr<CoherentCache>> caches_;
  Cycle cycle_ = 0;
};

/// Observer that records line events.
struct Recorder : LineEventObserver {
  struct Ev {
    LineEventKind kind;
    Addr line;
    Cycle at;
  };
  std::vector<Ev> events;
  void on_line_event(LineEventKind kind, Addr line, Cycle now) override {
    events.push_back({kind, line, now});
  }
};

TEST(CacheDir, ColdLoadMissFillsShared) {
  MemorySystem ms(2);
  ms.dir().memory().write(0x100, 77);
  EXPECT_EQ(ms.load(0, 0x100, 1), ProbeResult::kMiss);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.value, 77u);
  EXPECT_EQ(ms.cache(0).line_state(0x100), LineState::kShared);
  EXPECT_EQ(ms.dir().line_state(0x100), Directory::State::kShared);
}

TEST(CacheDir, MissLatencyMatchesConfiguration) {
  MemorySystem ms(1);
  // 2*net + dir = 2*5 + 2 = 12 cycles.
  EXPECT_EQ(ms.load(0, 0x100, 1), ProbeResult::kMiss);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.ready_at, 12u);
}

TEST(CacheDir, HitCompletesNextCycle) {
  MemorySystem ms(1);
  ms.load(0, 0x100, 1);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  Cycle t = ms.now();
  EXPECT_EQ(ms.load(0, 0x100, 2), ProbeResult::kHit);
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.ready_at, t + 1);
  EXPECT_TRUE(r.was_hit);
}

TEST(CacheDir, StoreMissGainsExclusive) {
  MemorySystem ms(2);
  EXPECT_EQ(ms.store(0, 0x200, 5, 1), ProbeResult::kMiss);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(ms.cache(0).line_state(0x200), LineState::kExclusive);
  EXPECT_EQ(*ms.cache(0).peek_word(0x200), 5u);
  EXPECT_EQ(ms.dir().line_state(0x200), Directory::State::kDirty);
  EXPECT_EQ(ms.dir().owner(0x200), 0u);
}

TEST(CacheDir, StoreInvalidatesSharers) {
  MemorySystem ms(2);
  Recorder rec;
  ms.cache(1).set_observer(&rec);
  // P1 reads the line, then P0 writes it.
  ms.load(1, 0x300, 1);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(1, r));
  ms.store(0, 0x300, 9, 2);
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(ms.cache(1).line_state(0x300), LineState::kInvalid);
  ASSERT_FALSE(rec.events.empty());
  EXPECT_EQ(rec.events[0].kind, LineEventKind::kInvalidate);
  EXPECT_EQ(rec.events[0].line, 0x300u);
}

TEST(CacheDir, DirtyRemoteReadRecallsAndShares) {
  MemorySystem ms(2);
  CacheResponse r;
  ms.store(0, 0x400, 123, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.load(1, 0x400, 2);
  ASSERT_TRUE(ms.run_until_response(1, r));
  EXPECT_EQ(r.value, 123u);
  EXPECT_EQ(ms.cache(0).line_state(0x400), LineState::kShared);
  EXPECT_EQ(ms.cache(1).line_state(0x400), LineState::kShared);
  EXPECT_EQ(ms.dir().memory().read(0x400), 123u);  // recall wrote memory back
}

TEST(CacheDir, DirtyRemoteWriteRecallsAndInvalidates) {
  MemorySystem ms(2);
  CacheResponse r;
  ms.store(0, 0x500, 1, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.store(1, 0x500, 2, 2);
  ASSERT_TRUE(ms.run_until_response(1, r));
  EXPECT_EQ(ms.cache(0).line_state(0x500), LineState::kInvalid);
  EXPECT_EQ(ms.cache(1).line_state(0x500), LineState::kExclusive);
  EXPECT_EQ(*ms.cache(1).peek_word(0x500), 2u);
}

TEST(CacheDir, RmwAtomicOnExclusiveLine) {
  MemorySystem ms(1);
  ms.dir().memory().write(0x600, 10);
  CacheRequest req;
  req.op = CacheOp::kRmw;
  req.addr = 0x600;
  req.rmw_op = RmwOp::kFetchAdd;
  req.rmw_src = 5;
  req.token = 1;
  EXPECT_EQ(ms.cache(0).probe(req, ms.now()), ProbeResult::kMiss);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.value, 10u);  // old value
  EXPECT_EQ(*ms.cache(0).peek_word(0x600), 15u);
}

TEST(CacheDir, PrefetchSharedThenDemandMerge) {
  MemorySystem ms(1);
  ms.dir().memory().write(0x700, 3);
  CacheRequest pf;
  pf.op = CacheOp::kPrefetchShared;
  pf.addr = 0x700;
  pf.token = 0;
  EXPECT_EQ(ms.cache(0).probe(pf, ms.now()), ProbeResult::kMiss);
  ms.tick();
  // Demand load merges into the outstanding prefetch (§3.2).
  EXPECT_EQ(ms.load(0, 0x700, 1), ProbeResult::kMerged);
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.value, 3u);
  EXPECT_GE(ms.cache(0).stats().get("prefetch_useful_merge"), 1u);
}

TEST(CacheDir, PrefetchDroppedWhenLinePresent) {
  MemorySystem ms(1);
  CacheResponse r;
  ms.load(0, 0x800, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.tick();
  CacheRequest pf;
  pf.op = CacheOp::kPrefetchShared;
  pf.addr = 0x800;
  EXPECT_EQ(ms.cache(0).probe(pf, ms.now()), ProbeResult::kDropped);
}

TEST(CacheDir, PrefetchExGivesExclusiveOwnership) {
  MemorySystem ms(2);
  CacheRequest pf;
  pf.op = CacheOp::kPrefetchEx;
  pf.addr = 0x900;
  EXPECT_EQ(ms.cache(0).probe(pf, ms.now()), ProbeResult::kMiss);
  ms.run_cycles(20);
  EXPECT_EQ(ms.cache(0).line_state(0x900), LineState::kExclusive);
  // A subsequent store hits locally.
  EXPECT_EQ(ms.store(0, 0x900, 4, 1), ProbeResult::kHit);
}

TEST(CacheDir, UpgradeFromSharedToExclusive) {
  MemorySystem ms(2);
  CacheResponse r;
  ms.load(0, 0xa00, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.load(1, 0xa00, 2);
  ASSERT_TRUE(ms.run_until_response(1, r));
  // P0 now stores: needs to invalidate P1.
  ms.store(0, 0xa00, 8, 3);
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(ms.cache(0).line_state(0xa00), LineState::kExclusive);
  EXPECT_EQ(ms.cache(1).line_state(0xa00), LineState::kInvalid);
}

TEST(CacheDir, MshrExhaustionRejects) {
  MemorySystem ms(1);
  // 4 MSHRs; distinct lines; one probe per cycle (port model).
  for (Addr i = 0; i < 4; ++i) {
    EXPECT_EQ(ms.load(0, 0x1000 + i * 16, i + 1), ProbeResult::kMiss);
    ms.tick();
  }
  EXPECT_EQ(ms.load(0, 0x2000, 99), ProbeResult::kRejected);
}

TEST(CacheDir, EvictionWritesBackDirtyData) {
  MemorySystem ms(1);
  CacheResponse r;
  // 16 sets, 2 ways, 16-byte lines: lines 16 KiB apart share a set... use
  // set stride = num_sets * line_bytes = 256.
  ms.store(0, 0x0, 11, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.store(0, 0x100, 22, 2);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.store(0, 0x200, 33, 3);  // evicts one of the first two
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.run_cycles(20);  // let the writeback land
  // Exactly one of the first two lines was evicted and written back.
  bool first_resident = ms.cache(0).line_state(0x0) != LineState::kInvalid;
  bool second_resident = ms.cache(0).line_state(0x100) != LineState::kInvalid;
  EXPECT_NE(first_resident, second_resident);
  if (!first_resident) {
    EXPECT_EQ(ms.dir().memory().read(0x0), 11u);
  }
  if (!second_resident) {
    EXPECT_EQ(ms.dir().memory().read(0x100), 22u);
  }
}

TEST(CacheDir, ReplacementNotifiesObserver) {
  MemorySystem ms(1);
  Recorder rec;
  ms.cache(0).set_observer(&rec);
  CacheResponse r;
  ms.load(0, 0x0, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.load(0, 0x100, 2);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.load(0, 0x200, 3);
  ASSERT_TRUE(ms.run_until_response(0, r));
  bool saw_replacement = false;
  for (auto& e : rec.events)
    if (e.kind == LineEventKind::kReplacement) saw_replacement = true;
  EXPECT_TRUE(saw_replacement);
}

// ---- update protocol --------------------------------------------------

TEST(CacheDirUpdate, StorePushesValueToSharers) {
  MemorySystem ms(2, CoherenceKind::kUpdate);
  CacheResponse r;
  ms.load(0, 0x100, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.load(1, 0x100, 2);
  ASSERT_TRUE(ms.run_until_response(1, r));
  Recorder rec;
  ms.cache(1).set_observer(&rec);
  ms.store(0, 0x100, 42, 3);
  ASSERT_TRUE(ms.run_until_response(0, r));
  // Both copies remain valid and updated.
  EXPECT_EQ(ms.cache(1).line_state(0x100), LineState::kShared);
  EXPECT_EQ(*ms.cache(1).peek_word(0x100), 42u);
  EXPECT_EQ(ms.dir().memory().read(0x100), 42u);
  ASSERT_FALSE(rec.events.empty());
  EXPECT_EQ(rec.events[0].kind, LineEventKind::kUpdate);
}

TEST(CacheDirUpdate, RmwPerformedAtDirectory) {
  MemorySystem ms(2, CoherenceKind::kUpdate);
  ms.dir().memory().write(0x200, 7);
  CacheRequest req;
  req.op = CacheOp::kRmw;
  req.addr = 0x200;
  req.rmw_op = RmwOp::kTestAndSet;
  req.token = 1;
  ms.cache(0).probe(req, ms.now());
  CacheResponse r;
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.value, 7u);
  EXPECT_EQ(ms.dir().memory().read(0x200), 1u);
}

TEST(CacheDirUpdate, StoreToUncachedLineStillPerforms) {
  MemorySystem ms(2, CoherenceKind::kUpdate);
  CacheResponse r;
  ms.store(0, 0x300, 5, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(ms.dir().memory().read(0x300), 5u);
}

// The RMW is performed at memory; the other sharer gets the new word,
// and only once its UpdateAck is in does the requester get the old one.
TEST(CacheDirUpdate, RmwWithAnotherSharerRepliesAfterTheUpdateAck) {
  MemorySystem ms(2, CoherenceKind::kUpdate);
  ms.dir().memory().write(0x200, 7);
  CacheResponse r;
  ms.load(0, 0x200, 1);
  ASSERT_TRUE(ms.run_until_response(0, r));
  ms.load(1, 0x200, 2);
  ASSERT_TRUE(ms.run_until_response(1, r));
  Recorder rec0, rec1;
  ms.cache(0).set_observer(&rec0);
  ms.cache(1).set_observer(&rec1);
  CacheRequest req;
  req.op = CacheOp::kRmw;
  req.addr = 0x200;
  req.rmw_op = RmwOp::kFetchAdd;
  req.rmw_src = 5;
  req.token = 3;
  EXPECT_EQ(ms.cache(0).probe(req, ms.now()), ProbeResult::kMiss);
  for (int i = 0; i < 100 && rec1.events.empty(); ++i) {
    ms.tick();
    ASSERT_FALSE(ms.cache(0).pop_response(ms.now(), r)) << "replied before the UpdateAck";
  }
  ASSERT_EQ(rec1.events.size(), 1u);
  EXPECT_EQ(rec1.events[0].kind, LineEventKind::kUpdate);
  const Cycle updated_at = rec1.events[0].at;
  EXPECT_EQ(*ms.cache(1).peek_word(0x200), 12u) << "the Update carries the new word";
  EXPECT_EQ(*ms.cache(0).peek_word(0x200), 7u) << "the requester's copy waits for the reply";
  EXPECT_TRUE(ms.dir().line_busy(0x200));

  ASSERT_TRUE(ms.run_until_response(0, r));
  EXPECT_EQ(r.value, 7u) << "the RmwReply carries the old value";
  // The ack's leg to the directory, its service, and the reply's leg.
  EXPECT_EQ(r.ready_at, updated_at + 2 * ms.mem_cfg_.net_latency + ms.mem_cfg_.dir_latency);
  EXPECT_EQ(ms.dir().memory().read(0x200), 12u);
  EXPECT_EQ(*ms.cache(0).peek_word(0x200), 12u);
  EXPECT_TRUE(rec0.events.empty()) << "the requester gets no Update of its own";
  EXPECT_FALSE(ms.dir().line_busy(0x200));
  EXPECT_TRUE(ms.net().idle());
}

}  // namespace
}  // namespace mcsim
