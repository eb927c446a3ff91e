// Directory transient-state corner cases: deferred-request replay,
// recall/writeback crossings, eviction during contention, sharer
// bookkeeping, the owner's own re-request, and fan-out profiling.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"

namespace mcsim {
namespace {

class Harness {
 public:
  explicit Harness(std::uint32_t nprocs, std::uint32_t sets = 16, std::uint32_t ways = 2,
                   CoherenceKind proto = CoherenceKind::kInvalidation) {
    cfg_.num_sets = sets;
    cfg_.ways = ways;
    cfg_.line_bytes = 16;
    cfg_.mshrs = 8;
    mem_cfg_.net_latency = 5;
    mem_cfg_.dir_latency = 2;
    mem_cfg_.mem_bytes = 1 << 16;
    mem_cfg_.coherence = proto;
    net_ = std::make_unique<Network>(nprocs + 1, mem_cfg_.net_latency);
    dir_ = std::make_unique<DirectoryGroup>(nprocs, cfg_, mem_cfg_, *net_);
    for (ProcId p = 0; p < nprocs; ++p)
      caches_.push_back(
          std::make_unique<CoherentCache>(p, cfg_, mem_cfg_, *net_, nprocs,
                                          CoreConfig{}.max_requests()));
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
  ProbeResult rmw(ProcId p, Addr a, std::uint64_t tok) {
    CacheRequest r;
    r.op = CacheOp::kRmw;
    r.addr = a;
    r.rmw_op = RmwOp::kFetchAdd;
    r.rmw_src = 1;
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

// A ReadExReq from the line's own Dirty owner (its writeback crossed
// and was processed first, say) is granted again at once: no recall, no
// transaction. A bare endpoint plays the owner, since its cache would
// not send such a request.
TEST(DirectoryCorner, ReadExFromTheDirtyOwnerIsGrantedAtOnce) {
  Harness h(2);
  constexpr Addr kLine = 0x100;
  h.dir_->preload(kLine, Directory::State::kDirty, 0);
  h.dir_->memory().write(kLine + 4, 9);
  Message req;
  req.type = MsgType::kReadExReq;
  req.src = 0;
  req.dst = Network::directory_endpoint(2);
  req.line_addr = kLine;
  const Cycle sent_at = h.cycle_;
  h.net_->send(std::move(req), sent_at);
  Message got;
  Cycle granted_at = kCycleNever;
  for (Cycle c = sent_at; c < sent_at + 50 && granted_at == kCycleNever; ++c) {
    h.net_->deliver(c);
    h.dir_->tick(c);
    EXPECT_FALSE(h.dir_->line_busy(kLine)) << "cycle " << c;
    if (h.net_->recv(0, got)) granted_at = c;
  }
  ASSERT_NE(granted_at, kCycleNever);
  EXPECT_EQ(got.type, MsgType::kReadExReply);
  EXPECT_EQ(got.data[1], 9u);
  EXPECT_EQ(granted_at, sent_at + 2 * h.mem_cfg_.net_latency + h.mem_cfg_.dir_latency);
  EXPECT_EQ(h.dir_->line_state(kLine), Directory::State::kDirty);
  EXPECT_EQ(h.dir_->owner(kLine), 0u);
  EXPECT_TRUE(h.net_->idle()) << "nothing else was sent";
}

// The values of the timeline's counter samples named `name`, each on `track`.
std::vector<std::uint64_t> counter_samples(const TraceEventSink& sink, const char* name,
                                           std::uint16_t track) {
  std::vector<std::uint64_t> out;
  for (const TraceEventSink::Event& e : sink.events()) {
    if (e.phase == TraceEventSink::Phase::kCounter && e.name == TraceEventSink::name_id(name)) {
      EXPECT_EQ(e.track, track);
      out.push_back(e.value[0]);
    }
  }
  return out;
}

// Every invalidation round is profiled with its fan-out: a gather of
// two sharers' acks, then a recall-for-exclusive as a round of one.
TEST(DirectoryCorner, InvalidationRoundsReachTheTimeline) {
  constexpr Addr kLine = 0x100;
  constexpr std::uint16_t kTrack = 7;
  Harness h(3);
  TraceEventSink sink;
  sink.enable();
  h.dir_->set_profiling(true);
  h.dir_->set_event_sink(&sink, kTrack);
  h.load(1, kLine, 1);
  h.drain();
  h.load(2, kLine, 2);
  h.drain();
  h.store(0, kLine, 5, 3);
  h.drain();
  h.store(1, kLine, 6, 4);
  h.drain();
  EXPECT_EQ(counter_samples(sink, "inv-fanout", kTrack), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_TRUE(counter_samples(sink, "upd-fanout", kTrack).empty());
  const LogHistogram* fanout = h.dir_->bank(0).stats().histogram(prof::sh_inv_fanout);
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->count(), 2u);
  EXPECT_EQ(fanout->sum(), 3u);
  EXPECT_EQ(*h.caches_[1]->peek_word(kLine), 6u);
}

// Under update, a store and an RMW each fan out to the other sharers.
TEST(DirectoryCorner, UpdateRoundsReachTheTimeline) {
  constexpr Addr kLine = 0x100;
  constexpr std::uint16_t kTrack = 3;
  Harness h(3, 16, 2, CoherenceKind::kUpdate);
  TraceEventSink sink;
  sink.enable();
  h.dir_->set_profiling(true);
  h.dir_->set_event_sink(&sink, kTrack);
  for (ProcId p = 0; p < 3; ++p) {
    h.load(p, kLine, p + 1);
    h.drain();
  }
  h.store(0, kLine, 5, 4);
  h.drain();
  h.rmw(1, kLine, 5);
  h.drain();
  EXPECT_EQ(counter_samples(sink, "upd-fanout", kTrack), (std::vector<std::uint64_t>{2, 2}));
  EXPECT_TRUE(counter_samples(sink, "inv-fanout", kTrack).empty());
  const LogHistogram* fanout = h.dir_->bank(0).stats().histogram(prof::sh_upd_fanout);
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->count(), 2u);
  for (ProcId p = 0; p < 3; ++p) EXPECT_EQ(*h.caches_[p]->peek_word(kLine), 6u) << "P" << p;
  EXPECT_EQ(h.dir_->memory().read(kLine), 6u);
}

}  // namespace
}  // namespace mcsim
