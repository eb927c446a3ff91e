// Cache-internal behaviours not covered by the protocol tests: LRU
// replacement order, the port model, prefetched-line accounting,
// line_of arithmetic, direct MSHR merging, preload, each demand op's
// hit / merge / miss decision, and the withdrawal of a request.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "common/profile.hpp"

namespace mcsim {
namespace {

struct Rig {
  explicit Rig(std::uint32_t sets = 2, std::uint32_t ways = 2,
               CoherenceKind proto = CoherenceKind::kInvalidation) {
    cache_cfg.num_sets = sets;
    cache_cfg.ways = ways;
    cache_cfg.line_bytes = 16;
    cache_cfg.mshrs = 4;
    mem_cfg.net_latency = 5;
    mem_cfg.dir_latency = 2;
    mem_cfg.mem_bytes = 1 << 16;
    mem_cfg.coherence = proto;
    net = std::make_unique<Network>(2, mem_cfg.net_latency);
    dir = std::make_unique<DirectoryGroup>(1, cache_cfg, mem_cfg, *net);
    cache = std::make_unique<CoherentCache>(0, cache_cfg, mem_cfg, *net, 1,
                                            CoreConfig{}.max_requests());
  }
  void settle(int n = 30) {
    for (int i = 0; i < n; ++i) {
      net->deliver(cycle);
      dir->tick(cycle);
      cache->tick(cycle);
      ++cycle;
    }
  }
  void demand_load(Addr a) {
    CacheRequest r;
    r.op = CacheOp::kLoad;
    r.addr = a;
    r.token = ++token;
    cache->probe(r, cycle);
    settle();
  }
  void store(Addr a, Word v) {
    CacheRequest r;
    r.op = CacheOp::kStore;
    r.addr = a;
    r.store_value = v;
    r.token = ++token;
    cache->probe(r, cycle);
    settle();
  }

  CacheConfig cache_cfg;
  MemConfig mem_cfg;
  std::unique_ptr<Network> net;
  std::unique_ptr<DirectoryGroup> dir;
  std::unique_ptr<CoherentCache> cache;
  Cycle cycle = 0;
  std::uint64_t token = 0;
};

TEST(CacheUnit, LineOfMasksToLineBoundary) {
  Rig r;
  EXPECT_EQ(r.cache->line_of(0x0), 0x0u);
  EXPECT_EQ(r.cache->line_of(0xf), 0x0u);
  EXPECT_EQ(r.cache->line_of(0x10), 0x10u);
  EXPECT_EQ(r.cache->line_of(0x1234), 0x1230u);
}

TEST(CacheUnit, PortAllowsOneProbePerCycle) {
  Rig r;
  EXPECT_TRUE(r.cache->port_free(r.cycle));
  r.demand_load(0x100);  // advanced time inside
  EXPECT_TRUE(r.cache->port_free(r.cycle));
  CacheRequest req;
  req.op = CacheOp::kLoad;
  req.addr = 0x100;
  req.token = 99;
  r.cache->probe(req, r.cycle);
  EXPECT_FALSE(r.cache->port_free(r.cycle));
  EXPECT_TRUE(r.cache->port_free(r.cycle + 1));
}

TEST(CacheUnit, LruEvictsLeastRecentlyUsed) {
  Rig r(/*sets=*/2, /*ways=*/2);
  // Set 0 lines (2 sets x 16B lines): stride 0x20.
  r.demand_load(0x100);  // A
  r.demand_load(0x120);  // B (set full)
  r.demand_load(0x100);  // touch A: B is now LRU
  r.demand_load(0x140);  // C evicts B
  EXPECT_NE(r.cache->line_state(0x100), LineState::kInvalid);
  EXPECT_EQ(r.cache->line_state(0x120), LineState::kInvalid);
  EXPECT_NE(r.cache->line_state(0x140), LineState::kInvalid);
}

TEST(CacheUnit, PrefetchedLineCountsUsefulOnFirstDemandHit) {
  Rig r;
  CacheRequest pf;
  pf.op = CacheOp::kPrefetchShared;
  pf.addr = 0x200;
  r.cache->probe(pf, r.cycle);
  r.settle();
  r.demand_load(0x200);  // hit on the prefetched line
  EXPECT_EQ(r.cache->stats().get("prefetch_useful_hit"), 1u);
  r.demand_load(0x200);  // second hit does not double count
  EXPECT_EQ(r.cache->stats().get("prefetch_useful_hit"), 1u);
}

TEST(CacheUnit, MergeIntoMshrRequiresOutstandingTransaction) {
  Rig r;
  CacheRequest req;
  req.op = CacheOp::kRmw;
  req.addr = 0x300;
  req.token = 50;
  EXPECT_FALSE(r.cache->merge_into_mshr(req)) << "no MSHR yet";
  CacheRequest ld;
  ld.op = CacheOp::kLoadEx;
  ld.addr = 0x300;
  ld.token = 51;
  r.cache->probe(ld, r.cycle);
  EXPECT_TRUE(r.cache->merge_into_mshr(req));
  r.settle();
  // Both the LoadEx and the merged RMW completed.
  CacheResponse resp;
  int n = 0;
  while (r.cache->pop_response(r.cycle, resp)) ++n;
  EXPECT_EQ(n, 2);
  EXPECT_EQ(*r.cache->peek_word(0x300), 1u);  // test&set wrote 1
}

TEST(CacheUnit, HitAndLaterFillPopInPushOrder) {
  // A hit probed at T is ready at T+1; a miss whose fill the cache
  // handles at T+1 is ready at T+1 too. The hit was queued first, so it
  // pops first: within a cycle the cache ticks before its core probes,
  // which is what keeps the response queue in ready order.
  auto start_miss = [](Rig& r) {
    CacheRequest miss;
    miss.op = CacheOp::kLoad;
    miss.addr = 0x100;
    miss.token = 1;
    r.cache->probe(miss, r.cycle);
  };
  auto tick = [](Rig& r) {
    r.net->deliver(r.cycle);
    r.dir->tick(r.cycle);
    r.cache->tick(r.cycle);
  };
  Cycle fill_at = 0;
  {
    Rig probe;
    start_miss(probe);
    CacheResponse resp;
    for (; probe.cycle < 100; ++probe.cycle) {
      tick(probe);
      if (probe.cache->pop_response(probe.cycle, resp)) break;
    }
    fill_at = probe.cycle;
    ASSERT_LT(fill_at, 100u);
    ASSERT_GT(fill_at, 1u);
  }
  Rig r;
  std::vector<Word> data(4, 9);
  r.cache->preload_line(0x200, LineState::kShared, data);
  start_miss(r);
  CacheResponse resp;
  for (; r.cycle < fill_at; ++r.cycle) {
    tick(r);
    EXPECT_FALSE(r.cache->pop_response(r.cycle, resp)) << "cycle " << r.cycle;
  }
  CacheRequest hit;
  hit.op = CacheOp::kLoad;
  hit.addr = 0x200;
  hit.token = 2;
  --r.cycle;  // the core's slot of cycle fill_at - 1, after the cache ticked
  EXPECT_EQ(r.cache->probe(hit, r.cycle), ProbeResult::kHit);
  ++r.cycle;
  tick(r);  // handles the fill: queued behind the hit, ready at the same cycle
  EXPECT_EQ(r.cache->next_event(r.cycle), r.cycle);
  ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
  EXPECT_EQ(resp.token, 2u);
  EXPECT_TRUE(resp.was_hit);
  ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
  EXPECT_EQ(resp.token, 1u);
  EXPECT_FALSE(resp.was_hit);
  EXPECT_FALSE(r.cache->pop_response(r.cycle, resp));
  EXPECT_TRUE(r.cache->idle());
}

TEST(CacheUnit, PreloadInstallsWithoutTraffic) {
  Rig r;
  std::vector<Word> data(4, 77);
  r.cache->preload_line(0x400, LineState::kShared, data);
  EXPECT_EQ(r.cache->line_state(0x400), LineState::kShared);
  EXPECT_EQ(*r.cache->peek_word(0x404), 77u);
  EXPECT_TRUE(r.net->idle());
}

TEST(CacheUnit, IdleReflectsOutstandingWork) {
  Rig r;
  EXPECT_TRUE(r.cache->idle());
  CacheRequest req;
  req.op = CacheOp::kLoad;
  req.addr = 0x500;
  req.token = 60;
  r.cache->probe(req, r.cycle);
  EXPECT_FALSE(r.cache->idle());  // MSHR outstanding
  r.settle();
  EXPECT_FALSE(r.cache->idle());  // response queued, not yet popped
  CacheResponse resp;
  while (r.cache->pop_response(r.cycle, resp)) {
  }
  EXPECT_TRUE(r.cache->idle());
}

TEST(CacheUnit, ForEachResidentLineVisitsEverything) {
  Rig r;
  for (Addr line : {0x100, 0x120})
    for (Addr i = 0; i < 4; ++i) r.dir->memory().write(line + 4 * i, static_cast<Word>(line + i));
  r.demand_load(0x100);
  r.demand_load(0x120);
  int count = 0;
  r.cache->for_each_resident_line(
      [&](Addr line, LineState st, std::span<const Word> words) {
        EXPECT_EQ(st, LineState::kShared);
        ASSERT_EQ(words.size(), 4u);
        for (Addr i = 0; i < 4; ++i) EXPECT_EQ(words[i], line + i) << "line " << line;
        ++count;
      });
  EXPECT_EQ(count, 2);
}

// The lines for_each_resident_line visits, in its set-major way order.
std::vector<Addr> resident_lines(const CoherentCache& cache) {
  std::vector<Addr> lines;
  cache.for_each_resident_line(
      [&](Addr line, LineState, std::span<const Word>) { lines.push_back(line); });
  return lines;
}

// Deliver a directory-side invalidation of `line` to cache 0. Only the
// cache ticks: no directory transaction waits for the ack.
void invalidate(Rig& r, Addr line) {
  Message msg;
  msg.type = MsgType::kInvalidate;
  msg.src = 1;
  msg.dst = 0;
  msg.line_addr = line;
  r.net->send(std::move(msg), r.cycle);
  for (int i = 0; i < 10; ++i) {
    r.net->deliver(r.cycle);
    r.cache->tick(r.cycle);
    ++r.cycle;
  }
  ASSERT_EQ(r.cache->line_state(line), LineState::kInvalid);
}

TEST(CacheUnit, FreshCacheVisitsNothing) {
  Rig r(/*sets=*/4, /*ways=*/4);
  EXPECT_TRUE(resident_lines(*r.cache).empty());
  EXPECT_EQ(r.cache->line_state(0x0), LineState::kInvalid);
  EXPECT_FALSE(r.cache->peek_word(0x0).has_value());
}

TEST(CacheUnit, FillTakesTheInvalidatedWayOfAFullSet) {
  Rig r(/*sets=*/1, /*ways=*/4);  // every line maps to the one set
  const std::vector<Word> data(4, 5);
  for (Addr line : {0x100, 0x200, 0x300, 0x400})
    r.cache->preload_line(line, LineState::kShared, data);
  EXPECT_EQ(resident_lines(*r.cache), (std::vector<Addr>{0x100, 0x200, 0x300, 0x400}));
  invalidate(r, 0x200);  // way 1
  r.cache->preload_line(0x500, LineState::kShared, data);
  EXPECT_EQ(resident_lines(*r.cache), (std::vector<Addr>{0x100, 0x500, 0x300, 0x400}));
}

TEST(CacheUnit, FillPrefersAnInvalidatedWayToANeverFilledOne) {
  Rig r(/*sets=*/1, /*ways=*/4);
  const std::vector<Word> data(4, 5);
  for (Addr line : {0x100, 0x200, 0x300}) r.cache->preload_line(line, LineState::kShared, data);
  invalidate(r, 0x200);  // way 1; way 3 was never filled
  r.cache->preload_line(0x500, LineState::kShared, data);
  r.cache->preload_line(0x600, LineState::kShared, data);
  EXPECT_EQ(resident_lines(*r.cache), (std::vector<Addr>{0x100, 0x500, 0x300, 0x600}));
}

TEST(CacheUnit, EvictionWritesBackTheVictimsOwnWords) {
  Rig r(/*sets=*/1, /*ways=*/2);  // every line maps to the one set
  for (Addr i = 0; i < 4; ++i) r.store(0x100 + 4 * i, static_cast<Word>(0xa0 + i));
  for (Addr i = 0; i < 4; ++i) r.store(0x200 + 4 * i, static_cast<Word>(0xb0 + i));
  // 0x100 is now the LRU way; a third line evicts it, and its Writeback
  // must carry its own words, not its neighbour's.
  r.demand_load(0x300);
  EXPECT_EQ(r.cache->line_state(0x100), LineState::kInvalid);
  EXPECT_EQ(r.cache->line_state(0x200), LineState::kExclusive);
  EXPECT_EQ(r.cache->stats().get("writeback"), 1u);
  for (Addr i = 0; i < 4; ++i) {
    EXPECT_EQ(r.dir->memory().read(0x100 + 4 * i), 0xa0 + i) << "word " << i;
    EXPECT_EQ(*r.cache->peek_word(0x200 + 4 * i), 0xb0 + i) << "word " << i;
    EXPECT_EQ(r.dir->memory().read(0x200 + 4 * i), 0u) << "survivor is still dirty";
    EXPECT_EQ(*r.cache->peek_word(0x300 + 4 * i), 0u);
  }
}

// Which sets a cache fills, and in what order, must not show: filling
// sets out of index order leaves the visit order set-major, the victim
// choice per set, and each line's words its own.
TEST(CacheUnit, SetsFilledOutOfOrderKeepSetMajorOrderVictimsAndWords) {
  Rig r(/*sets=*/256, /*ways=*/2);
  constexpr Addr kSetStride = 256 * 16;  // lines this far apart share a set
  const auto in_set = [&](Addr set, Addr k) { return set * 16 + k * kSetStride; };
  const Addr a = in_set(200, 0), b = in_set(3, 0), c = in_set(77, 0), d = in_set(3, 1);
  const Addr e = in_set(3, 2), f = in_set(3, 3), g = in_set(200, 1);
  for (Addr line : {a, b, c, d, e, f, g})
    for (Addr i = 0; i < 4; ++i) r.dir->memory().write(line + 4 * i, static_cast<Word>(line + i));
  const auto expect_own_words = [&](Addr line) {
    for (Addr i = 0; i < 4; ++i) {
      const std::optional<Word> w = r.cache->peek_word(line + 4 * i);
      ASSERT_TRUE(w.has_value()) << "line " << line;
      EXPECT_EQ(*w, line + i) << "line " << line << " word " << i;
    }
  };
  for (Addr line : {a, b, c, d}) r.demand_load(line);  // sets 200, 3, 77, then 3's way 1
  EXPECT_EQ(resident_lines(*r.cache), (std::vector<Addr>{b, d, c, a}));
  for (Addr line : {a, b, c, d}) expect_own_words(line);

  r.demand_load(b);  // d is now set 3's LRU way
  r.demand_load(e);  // and e replaces it in way 1
  EXPECT_EQ(r.cache->line_state(d), LineState::kInvalid);
  EXPECT_EQ(resident_lines(*r.cache), (std::vector<Addr>{b, e, c, a}));
  for (Addr line : {a, b, c, e}) expect_own_words(line);

  r.demand_load(g);  // set 200's second way
  invalidate(r, b);  // a hole in set 3's way 0
  const std::vector<Word> f_words{static_cast<Word>(f), static_cast<Word>(f + 1),
                                  static_cast<Word>(f + 2), static_cast<Word>(f + 3)};
  r.cache->preload_line(f, LineState::kShared, f_words);  // refills the hole
  EXPECT_EQ(resident_lines(*r.cache), (std::vector<Addr>{f, e, c, a, g}));
  for (Addr line : {a, c, e, f, g}) expect_own_words(line);
}

// --- a demand access's decision: hit, merge or miss -------------------
// These tests play the directory by hand: they take the cache's
// requests off the wire and answer them, so each test sees exactly what
// the cache sent.

constexpr EndpointId kDir = 1;  // Rig's directory endpoint, never ticked here
constexpr Addr kLine = 0x100;
constexpr CacheOp kDemandOps[] = {CacheOp::kLoad, CacheOp::kStore, CacheOp::kLoadEx,
                                  CacheOp::kRmw};

// The next request the cache sends, taken before any directory sees it.
Message take_request(Rig& r) {
  Message msg;
  for (int i = 0; i < 20; ++i, ++r.cycle) {
    r.net->deliver(r.cycle);
    if (r.net->recv(kDir, msg)) return msg;
  }
  ADD_FAILURE() << "the cache sent no request";
  return msg;
}

// Send `msg` from the directory to the cache and let the cache handle it.
void answer(Rig& r, Message msg) {
  msg.src = kDir;
  msg.dst = 0;
  r.net->send(std::move(msg), r.cycle);
  for (int i = 0; i < 10; ++i, ++r.cycle) {
    r.net->deliver(r.cycle);
    r.cache->tick(r.cycle);
  }
}

// Grant `req`'s line with `type`, carrying the words 10, 11, 12, 13.
void grant(Rig& r, const Message& req, MsgType type) {
  Message reply;
  reply.type = type;
  reply.line_addr = req.line_addr;
  for (Word i = 0; i < 4; ++i) reply.data[i] = 10 + i;
  answer(r, std::move(reply));
}

// `op` on word 1 of kLine: a store writes 99, an RMW adds 5.
CacheRequest demand(CacheOp op, std::uint64_t token) {
  CacheRequest req;
  req.op = op;
  req.addr = kLine + 4;
  req.store_value = 99;
  req.rmw_op = RmwOp::kFetchAdd;
  req.rmw_src = 5;
  req.token = token;
  return req;
}
// What `op`'s response carries, and what it leaves in word 1 (11 before).
Word response_of(CacheOp op) { return op == CacheOp::kStore ? 0 : 11; }
Word word_after(CacheOp op) {
  return op == CacheOp::kStore ? 99 : op == CacheOp::kRmw ? 16 : 11;
}

// Bring kLine in by a prefetch with no demand use yet: shared, or
// exclusive when `ex`.
void prefetch_fill(Rig& r, bool ex) {
  CacheRequest pf;
  pf.op = ex ? CacheOp::kPrefetchEx : CacheOp::kPrefetchShared;
  pf.addr = kLine;
  ASSERT_EQ(r.cache->probe(pf, r.cycle), ProbeResult::kMiss);
  const Message req = take_request(r);
  ASSERT_EQ(req.type, ex ? MsgType::kReadExReq : MsgType::kReadReq);
  grant(r, req, ex ? MsgType::kReadExReply : MsgType::kReadReply);
}

std::uint64_t stat(const Rig& r, const char* name) { return r.cache->stats().get(name); }

TEST(CacheProbe, HitCountsLoadHitOnlyForALoadAndThePrefetchUseOnce) {
  for (CacheOp op : kDemandOps) {
    SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op));
    Rig r;
    prefetch_fill(r, /*ex=*/op != CacheOp::kLoad);
    EXPECT_EQ(r.cache->probe(demand(op, 1), r.cycle), ProbeResult::kHit);
    EXPECT_TRUE(r.net->idle()) << "a hit sends nothing";
    EXPECT_EQ(stat(r, "load_hit"), op == CacheOp::kLoad ? 1u : 0u);
    // A kLoadEx is the read half of an RMW (Appendix A): the RMW's own
    // hit counts the prefetch's use.
    EXPECT_EQ(stat(r, "prefetch_useful_hit"), op == CacheOp::kLoadEx ? 0u : 1u);
    EXPECT_EQ(stat(r, "prefetch_useful_merge"), 0u);
    CacheResponse resp;
    ASSERT_TRUE(r.cache->pop_response(r.cycle + 1, resp));
    EXPECT_TRUE(resp.was_hit);
    EXPECT_EQ(resp.value, response_of(op));
    EXPECT_EQ(*r.cache->peek_word(kLine + 4), word_after(op));
  }
}

TEST(CacheProbe, LoadExHitLeavesThePrefetchUseToItsRmw) {
  Rig r;
  prefetch_fill(r, /*ex=*/true);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoadEx, 1), r.cycle), ProbeResult::kHit);
  EXPECT_EQ(stat(r, "prefetch_useful_hit"), 0u);
  ++r.cycle;
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kRmw, 2), r.cycle), ProbeResult::kHit);
  EXPECT_EQ(stat(r, "prefetch_useful_hit"), 1u);
  ++r.cycle;
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kRmw, 3), r.cycle), ProbeResult::kHit);
  EXPECT_EQ(stat(r, "prefetch_useful_hit"), 1u) << "the use counts once";
  EXPECT_EQ(stat(r, "load_hit"), 0u);
  EXPECT_EQ(*r.cache->peek_word(kLine + 4), 21u);
}

TEST(CacheProbe, MergeIntoAReadPrefetchCountsItsUseAndUpgradesAfterTheFill) {
  for (CacheOp op : kDemandOps) {
    SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op));
    Rig r;
    CacheRequest pf;
    pf.op = CacheOp::kPrefetchShared;
    pf.addr = kLine;
    ASSERT_EQ(r.cache->probe(pf, r.cycle), ProbeResult::kMiss);
    const Message read = take_request(r);
    EXPECT_EQ(read.type, MsgType::kReadReq);
    EXPECT_EQ(r.cache->probe(demand(op, 1), r.cycle), ProbeResult::kMerged);
    EXPECT_TRUE(r.net->idle()) << "a merge sends nothing";
    EXPECT_EQ(stat(r, "prefetch_useful_merge"), op == CacheOp::kLoadEx ? 0u : 1u);
    EXPECT_EQ(stat(r, "prefetch_useful_hit"), 0u);
    EXPECT_EQ(stat(r, "load_hit"), 0u);
    grant(r, read, MsgType::kReadReply);
    CacheResponse resp;
    if (op == CacheOp::kLoad) {
      EXPECT_TRUE(r.net->idle()) << "a load completes off the shared copy";
      EXPECT_EQ(r.cache->line_state(kLine), LineState::kShared);
    } else {
      EXPECT_FALSE(r.cache->pop_response(r.cycle, resp)) << "it waits for ownership";
      const Message upgrade = take_request(r);
      EXPECT_EQ(upgrade.type, MsgType::kReadExReq);
      EXPECT_EQ(upgrade.line_addr, kLine);
      grant(r, upgrade, MsgType::kReadExReply);
      EXPECT_EQ(r.cache->line_state(kLine), LineState::kExclusive);
    }
    ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
    EXPECT_FALSE(resp.was_hit);
    EXPECT_EQ(resp.value, response_of(op));
    EXPECT_EQ(*r.cache->peek_word(kLine + 4), word_after(op));
    EXPECT_TRUE(r.cache->idle());
  }
}

TEST(CacheProbe, ALoadMergedIntoAReadPrefetchIsItsOnlyUse) {
  // The merge counted the prefetch's use, so the fill leaves the line
  // unmarked and the next hit is a plain hit: whether the read fill
  // closes the MSHR, or an exclusive prefetch's upgrade closes it.
  for (bool upgrade : {false, true}) {
    SCOPED_TRACE(upgrade ? "upgraded" : "read fill");
    Rig r;
    CacheRequest pf;
    pf.op = CacheOp::kPrefetchShared;
    pf.addr = kLine;
    ASSERT_EQ(r.cache->probe(pf, r.cycle), ProbeResult::kMiss);
    const Message read = take_request(r);
    EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoad, 1), r.cycle), ProbeResult::kMerged);
    if (upgrade) {
      pf.op = CacheOp::kPrefetchEx;
      ++r.cycle;
      EXPECT_EQ(r.cache->probe(pf, r.cycle), ProbeResult::kMerged);
    }
    grant(r, read, MsgType::kReadReply);
    if (upgrade) grant(r, take_request(r), MsgType::kReadExReply);
    CacheResponse resp;
    ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
    EXPECT_EQ(resp.token, 1u);
    EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoad, 2), r.cycle), ProbeResult::kHit);
    EXPECT_EQ(stat(r, "prefetch_useful_merge"), 1u);
    EXPECT_EQ(stat(r, "prefetch_useful_hit"), 0u);
    EXPECT_EQ(stat(r, "load_hit"), 1u);
  }
}

// Every response the cache has queued by `now`, by token.
std::vector<std::uint64_t> replies(Rig& r, Cycle now) {
  std::vector<std::uint64_t> tokens;
  CacheResponse resp;
  while (r.cache->pop_response(now, resp)) tokens.push_back(resp.token);
  return tokens;
}

TEST(CacheWithdraw, AMergedLoadWithdrawnBeforeItsFillGetsNoReply) {
  // Loads 1 and 2 and store 3 wait on one read miss; load 2 is
  // withdrawn. The fill answers load 1 alone, the store still forces
  // the upgrade, and the exclusive fill answers the store.
  Rig r;
  ASSERT_EQ(r.cache->probe(demand(CacheOp::kLoad, 1), r.cycle), ProbeResult::kMiss);
  const Message read = take_request(r);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoad, 2), r.cycle++), ProbeResult::kMerged);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kStore, 3), r.cycle), ProbeResult::kMerged);
  r.cache->cancel(kLine + 4, 2);
  grant(r, read, MsgType::kReadReply);
  EXPECT_EQ(replies(r, r.cycle), std::vector<std::uint64_t>{1});
  const Message upgrade = take_request(r);
  EXPECT_EQ(upgrade.type, MsgType::kReadExReq);
  grant(r, upgrade, MsgType::kReadExReply);
  EXPECT_EQ(replies(r, r.cycle), std::vector<std::uint64_t>{3});
  EXPECT_EQ(*r.cache->peek_word(kLine + 4), 99u);
  EXPECT_TRUE(r.cache->idle());
}

TEST(CacheWithdraw, AQueuedReplyWithdrawnBeforeTheCoreDrainsItIsRemoved) {
  // Replies already queued (a fill's and a hit's) are removed when their
  // requests are withdrawn before the core drains them; the hit queued
  // between them is still answered.
  Rig r;
  ASSERT_EQ(r.cache->probe(demand(CacheOp::kLoad, 1), r.cycle), ProbeResult::kMiss);
  grant(r, take_request(r), MsgType::kReadReply);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoad, 2), r.cycle++), ProbeResult::kHit);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoad, 3), r.cycle), ProbeResult::kHit);
  EXPECT_FALSE(r.cache->idle());
  r.cache->cancel(kLine + 4, 1);
  r.cache->cancel(kLine + 4, 3);
  EXPECT_EQ(replies(r, r.cycle + 1), std::vector<std::uint64_t>{2});
  EXPECT_TRUE(r.cache->idle());
}

TEST(CacheWithdraw, AWithdrawnLoadExOnAReadMshrStillUpgrades) {
  // The read half of an RMW joins a load's read miss and is withdrawn
  // (its load was squashed): the line is still fetched exclusive.
  Rig r;
  ASSERT_EQ(r.cache->probe(demand(CacheOp::kLoad, 1), r.cycle), ProbeResult::kMiss);
  const Message read = take_request(r);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kLoadEx, 2), r.cycle), ProbeResult::kMerged);
  r.cache->cancel(kLine + 4, 2);
  grant(r, read, MsgType::kReadReply);
  EXPECT_EQ(replies(r, r.cycle), std::vector<std::uint64_t>{1});
  const Message upgrade = take_request(r);
  EXPECT_EQ(upgrade.type, MsgType::kReadExReq);
  grant(r, upgrade, MsgType::kReadExReply);
  EXPECT_EQ(r.cache->line_state(kLine), LineState::kExclusive);
  EXPECT_TRUE(replies(r, r.cycle).empty());
  EXPECT_TRUE(r.cache->idle());
}

TEST(CacheProbe, MissSendsAReadForALoadAndAReadExOtherwise) {
  for (CacheOp op : kDemandOps) {
    SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op));
    Rig r;
    EXPECT_EQ(r.cache->probe(demand(op, 1), r.cycle), ProbeResult::kMiss);
    const Message req = take_request(r);
    const bool ex = op != CacheOp::kLoad;
    EXPECT_EQ(req.type, ex ? MsgType::kReadExReq : MsgType::kReadReq);
    EXPECT_EQ(req.line_addr, kLine);
    EXPECT_EQ(stat(r, "load_hit") + stat(r, "prefetch_useful_hit") +
                  stat(r, "prefetch_useful_merge"),
              0u);
    grant(r, req, ex ? MsgType::kReadExReply : MsgType::kReadReply);
    CacheResponse resp;
    ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
    EXPECT_EQ(resp.value, response_of(op));
    EXPECT_EQ(*r.cache->peek_word(kLine + 4), word_after(op));
    EXPECT_TRUE(r.net->idle());
  }
}

TEST(CacheProbe, ExclusiveMissResolvesAPrefetchedSharedCopyAsUseful) {
  for (CacheOp op : {CacheOp::kStore, CacheOp::kLoadEx, CacheOp::kRmw}) {
    SCOPED_TRACE(testing::Message() << "op " << static_cast<int>(op));
    Rig r;
    r.cache->set_profiling(true);
    prefetch_fill(r, /*ex=*/false);
    ASSERT_EQ(r.cache->profile_pending(), 1u);
    EXPECT_EQ(r.cache->probe(demand(op, 1), r.cycle), ProbeResult::kMiss);
    EXPECT_EQ(take_request(r).type, MsgType::kReadExReq);
    EXPECT_EQ(r.cache->stats().get(prof::pf_useful), 1u);
    EXPECT_EQ(r.cache->profile_pending(), 0u);
  }
}

TEST(CacheProbe, UpdateStoreWritesItsCopyAtProbeAndAnRmwWaitsForTheDirectory) {
  Rig r(/*sets=*/2, /*ways=*/2, CoherenceKind::kUpdate);
  r.cache->preload_line(kLine, LineState::kShared, std::vector<Word>{10, 11, 12, 13});
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kStore, 1), r.cycle), ProbeResult::kMiss);
  EXPECT_EQ(*r.cache->peek_word(kLine + 4), 99u);
  const Message upd = take_request(r);
  EXPECT_EQ(upd.type, MsgType::kUpdateReq);
  EXPECT_EQ(upd.word_addr, kLine + 4);
  EXPECT_EQ(upd.word_value, 99u);
  EXPECT_EQ(upd.txn, 1u);
  EXPECT_EQ(r.cache->probe(demand(CacheOp::kRmw, 2), r.cycle), ProbeResult::kMiss);
  EXPECT_EQ(*r.cache->peek_word(kLine + 4), 99u);
  const Message rmw = take_request(r);
  EXPECT_EQ(rmw.type, MsgType::kRmwReq);
  EXPECT_EQ(rmw.word_addr, kLine + 4);
  EXPECT_EQ(rmw.rmw_op, static_cast<std::uint8_t>(RmwOp::kFetchAdd));
  EXPECT_EQ(rmw.rmw_src, 5u);
  EXPECT_EQ(rmw.txn, 2u);
  EXPECT_FALSE(r.cache->idle());

  Message done;
  done.type = MsgType::kUpdateDone;
  done.line_addr = kLine;
  done.txn = 1;
  answer(r, std::move(done));
  Message reply;
  reply.type = MsgType::kRmwReply;
  reply.line_addr = kLine;
  reply.word_addr = kLine + 4;
  reply.word_value = 99;  // the old value, from memory
  reply.txn = 2;
  answer(r, std::move(reply));
  CacheResponse resp;
  ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
  EXPECT_EQ(resp.token, 1u);
  EXPECT_EQ(resp.value, 0u);
  ASSERT_TRUE(r.cache->pop_response(r.cycle, resp));
  EXPECT_EQ(resp.token, 2u);
  EXPECT_EQ(resp.value, 99u);
  EXPECT_EQ(*r.cache->peek_word(kLine + 4), 104u) << "the reply's old value, plus 5";
  EXPECT_TRUE(r.cache->idle());
}

}  // namespace
}  // namespace mcsim
