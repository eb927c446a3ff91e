// Unit tests for the per-component next_event() contracts behind the
// fast-forward scheduler: each component reports the earliest future
// cycle at which its tick could change state, `now` when it is live,
// and kCycleNever when it can only react to someone else's traffic.
// Over-reporting (returning `now` unnecessarily) only costs a skip;
// UNDER-reporting would let the scheduler jump over real work, so
// every "quiet" claim here is paired with the state that justifies it.
#include <gtest/gtest.h>

#include <vector>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "interconnect/network.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace {

TEST(NextEventNetwork, CrossbarReportsHeapTopThenInboxThenNever) {
  Network net(2, /*latency=*/10);
  EXPECT_EQ(net.next_event(0), kCycleNever) << "empty network";
  Message m;
  m.type = MsgType::kReadReq;
  m.src = 0;
  m.dst = 1;
  net.send(std::move(m), /*now=*/0);
  // In flight: the earliest possible change is the delivery cycle.
  const Cycle deliver = net.next_event(0);
  EXPECT_NE(deliver, kCycleNever);
  EXPECT_GT(deliver, 0u);
  for (Cycle c = 1; c < deliver; ++c) {
    net.deliver(c);
    EXPECT_EQ(net.next_event(c), deliver) << "skippable pre-delivery cycle " << c;
  }
  net.deliver(deliver);
  // Inboxed but not received: the recipient can make progress NOW.
  EXPECT_EQ(net.next_event(deliver), deliver);
  Message out;
  ASSERT_TRUE(net.recv(1, out));
  EXPECT_EQ(net.next_event(deliver), kCycleNever);
  EXPECT_TRUE(net.idle());
}

TEST(NextEventNetwork, RoutedFabricIsLiveWhileTrafficIsInside) {
  for (Topology topo : {Topology::kRing, Topology::kMesh2D}) {
    Network net(4, /*latency=*/1, /*deliver_bw=*/0, topo);
    EXPECT_EQ(net.next_event(0), kCycleNever);
    Message m;
    m.type = MsgType::kReadReq;
    m.src = 0;
    m.dst = 3;
    net.send(std::move(m), 0);
    Cycle now = 0;
    Message out;
    // Until ejection the message is in an inject queue or a link, and
    // the fabric must never claim a quiet cycle beyond its maturity.
    while (!net.recv(3, out)) {
      const Cycle ne = net.next_event(now);
      ASSERT_NE(ne, kCycleNever) << to_string(topo) << " lost a message at " << now;
      ASSERT_GE(ne, now);
      ++now;
      net.deliver(now);
      ASSERT_LT(now, 100u) << "message never ejected";
    }
    EXPECT_EQ(net.next_event(now), kCycleNever) << to_string(topo);
  }
}

TEST(NextEventCache, HitResponseMaturesOneCycleLater) {
  CacheConfig cfg;
  MemConfig mem_cfg;
  Network net(2, mem_cfg.net_latency);
  CoherentCache cache(0, cfg, mem_cfg, net, 1, CoreConfig{}.max_requests());
  EXPECT_EQ(cache.next_event(0), kCycleNever) << "idle cache";
  std::vector<Word> line(cfg.line_bytes / kWordBytes, 7);
  cache.preload_line(0x1000, LineState::kExclusive, line);
  EXPECT_EQ(cache.next_event(0), kCycleNever) << "resident lines alone are not work";
  CacheRequest req;
  req.op = CacheOp::kLoad;
  req.addr = 0x1000;
  req.token = 1;
  ASSERT_EQ(cache.probe(req, /*now=*/5), ProbeResult::kHit);
  // The queued completion matures at 6; cycle 5 has nothing further.
  EXPECT_EQ(cache.next_event(5), 6u);
  CacheResponse resp;
  EXPECT_FALSE(cache.pop_response(5, resp));
  ASSERT_TRUE(cache.pop_response(6, resp));
  EXPECT_EQ(resp.value, 7u);
  EXPECT_EQ(cache.next_event(6), kCycleNever);
  EXPECT_TRUE(cache.idle());
}

TEST(NextEventCache, MissIsReactiveUntilTheFillArrives) {
  CacheConfig cfg;
  MemConfig mem_cfg;
  Network net(2, mem_cfg.net_latency);
  CoherentCache cache(0, cfg, mem_cfg, net, 1, CoreConfig{}.max_requests());
  CacheRequest req;
  req.op = CacheOp::kLoad;
  req.addr = 0x2000;
  req.token = 1;
  ASSERT_EQ(cache.probe(req, 0), ProbeResult::kMiss);
  EXPECT_FALSE(cache.idle()) << "outstanding MSHR";
  // The miss completes via a network message; the cache itself has no
  // self-scheduled future work, so the network's next_event (which
  // sees the ReadReq in flight) is what keeps the machine live.
  EXPECT_EQ(cache.next_event(0), kCycleNever);
  EXPECT_NE(net.next_event(0), kCycleNever);
}

TEST(NextEventDirectory, PurelyReactive) {
  CacheConfig ccfg;
  MemConfig mcfg;
  Network net(2, mcfg.net_latency);
  DirectoryGroup dir(1, ccfg, mcfg, net);
  EXPECT_EQ(dir.next_event(0), kCycleNever);
  EXPECT_EQ(dir.next_event(12345), kCycleNever);
}

TEST(NextEventMachine, FreshIsLiveDrainedIsNever) {
  Workload w = make_producer_consumer(2, 2);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  Machine m(cfg, w.programs);
  // Cores start armed: the first tick must always run live.
  EXPECT_EQ(m.next_event_cycle(), m.now());
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_TRUE(m.done());
  // The final live tick leaves the progress flags armed, so the very
  // next probe still says "now" (done() is what ends the run, not
  // next_event). One settling no-op tick clears the flags; after it
  // the machine proves it has no future work at all.
  m.step();
  EXPECT_EQ(m.next_event_cycle(), kCycleNever)
      << "a settled drained machine must not schedule wake-ups";
}

TEST(NextEventMachine, StepwiseNeverUnderReports) {
  // Ground-truth check on a real run: whenever next_event_cycle()
  // claims a future cycle T, naive single-stepping to T-1 must leave
  // the architectural state untouched (no retirement, no drain flip).
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.with_clean_miss_latency(200);
  cfg.fastforward = false;  // we drive step() by hand
  Machine m(cfg, w.programs);
  std::uint64_t skippable_claims = 0;
  while (!m.done() && m.now() < cfg.max_cycles) {
    const Cycle ne = m.next_event_cycle();
    if (ne > m.now()) {
      ++skippable_claims;
      std::vector<std::uint64_t> retired_before;
      for (ProcId p = 0; p < cfg.num_procs; ++p)
        retired_before.push_back(m.core(p).instructions_retired());
      const Cycle stop = ne < cfg.max_cycles ? ne : cfg.max_cycles;
      while (m.now() < stop) {
        m.step();
        for (ProcId p = 0; p < cfg.num_procs; ++p) {
          ASSERT_EQ(m.core(p).instructions_retired(), retired_before[p])
              << "claimed-quiescent cycle " << m.now() - 1 << " retired on core "
              << p;
        }
      }
    } else {
      m.step();
    }
  }
  EXPECT_TRUE(m.done());
  EXPECT_GT(skippable_claims, 0u) << "miss-heavy run never found a quiet span?";
}

}  // namespace
}  // namespace mcsim
