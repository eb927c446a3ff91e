// Ring/mesh topology behavior plus the cross-topology per-pair FIFO
// property. The routed fabrics must honor the same delivery contract
// the directory protocol relies on (network.hpp top comment): messages
// between one ordered (src, dst) pair never reorder, whatever the
// link bandwidth, queue depth, or delivery bandwidth.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/rng.hpp"
#include "interconnect/network.hpp"

namespace mcsim {
namespace {

Message msg(EndpointId src, EndpointId dst, std::uint64_t txn = 0) {
  Message m;
  m.type = MsgType::kReadReq;
  m.src = src;
  m.dst = dst;
  m.line_addr = 0x40;
  m.txn = txn;
  return m;
}

/// Step deliver() until `ep` has a message; returns the arrival cycle.
Cycle deliver_until_recv(Network& net, EndpointId ep, Message& out, Cycle from,
                         Cycle limit = 10'000) {
  for (Cycle c = from; c < limit; ++c) {
    net.deliver(c);
    if (net.recv(ep, out)) return c;
  }
  ADD_FAILURE() << "no delivery to endpoint " << ep << " within " << limit
                << " cycles";
  return limit;
}

TEST(TopologyTest, RingShortestPathHops) {
  // 5 endpoints: 0..3 caches, 4 the directory hub.
  Network net(5, 1, 0, Topology::kRing);
  EXPECT_EQ(net.topology(), Topology::kRing);
  EXPECT_EQ(net.num_links(), 10u);  // 5 routers x 2 directions
  EXPECT_EQ(net.route_hops(0, 4), 1u);  // counter-clockwise is shorter
  EXPECT_EQ(net.route_hops(0, 1), 1u);
  EXPECT_EQ(net.route_hops(0, 2), 2u);  // clockwise
  EXPECT_EQ(net.route_hops(3, 0), 2u);
}

TEST(TopologyTest, RingTieBreaksClockwise) {
  // 4 endpoints: 0 -> 2 is distance 2 both ways; clockwise wins, and
  // the message arrives after latency + hops exactly.
  Network net(4, 1, 0, Topology::kRing);
  EXPECT_EQ(net.route_hops(0, 2), 2u);
  net.send(msg(0, 2), 0);
  Message m;
  EXPECT_EQ(deliver_until_recv(net, 2, m, 1), 3u);  // 1 (latency) + 2 hops
}

TEST(TopologyTest, MeshXYRouteMatchesManhattanDistance) {
  // 9 endpoints -> 3x3 grid; directory (8) sits at (2,2).
  Network net(9, 1, 0, Topology::kMesh2D);
  EXPECT_EQ(net.route_hops(0, 8), 4u);
  EXPECT_EQ(net.route_hops(0, 2), 2u);  // same row
  EXPECT_EQ(net.route_hops(0, 6), 2u);  // same column
  EXPECT_EQ(net.route_hops(5, 3), 2u);
  EXPECT_EQ(net.route_hops(8, 0), 4u);
}

TEST(TopologyTest, MeshRoutesThroughUnoccupiedGridSlots) {
  // 5 endpoints -> 3x2 grid with one pure-switch router (slot 5).
  // XY routing from 2 (2,0) to 4 (1,1) goes x-first through (1,0).
  Network net(5, 1, 0, Topology::kMesh2D);
  EXPECT_EQ(net.route_hops(2, 4), 2u);
  net.send(msg(2, 4), 0);
  Message m;
  EXPECT_EQ(deliver_until_recv(net, 4, m, 1), 3u);
}

TEST(TopologyTest, RoutedLatencyIsLatencyPlusHopsWhenUncontended) {
  // Injection charges the configured latency, then 1 cycle per hop.
  Network net(9, 5, 0, Topology::kMesh2D);
  net.send(msg(0, 8), 0);
  Message m;
  EXPECT_EQ(deliver_until_recv(net, 8, m, 1), 5u + 4u);
  // extra_delay (directory service time) adds on top.
  net.send(msg(8, 0, 7), 20, 3);
  EXPECT_EQ(deliver_until_recv(net, 0, m, 21), 20u + 5u + 3u + 4u);
  EXPECT_EQ(m.txn, 7u);
}

TEST(TopologyTest, LinkBandwidthSerializesSamePathTraffic) {
  // Three same-pair messages injected the same cycle share every link
  // of one path at 1 msg/cycle: arrivals are consecutive cycles, FIFO.
  Network net(4, 1, 0, Topology::kRing, /*link_bw=*/1, /*link_queue=*/8);
  for (std::uint64_t i = 0; i < 3; ++i) net.send(msg(0, 2, i), 0);
  Message m;
  Cycle first = deliver_until_recv(net, 2, m, 1);
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(m.txn, 0u);
  EXPECT_EQ(deliver_until_recv(net, 2, m, first + 1), first + 1);
  EXPECT_EQ(m.txn, 1u);
  EXPECT_EQ(deliver_until_recv(net, 2, m, first + 2), first + 2);
  EXPECT_EQ(m.txn, 2u);
}

TEST(TopologyTest, UnlimitedLinkBandwidthDeliversBurstTogether) {
  Network net(4, 1, 0, Topology::kRing, /*link_bw=*/0, /*link_queue=*/8);
  for (std::uint64_t i = 0; i < 3; ++i) net.send(msg(0, 2, i), 0);
  for (Cycle c = 1; c <= 3; ++c) net.deliver(c);
  Message m;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.recv(2, m));
    EXPECT_EQ(m.txn, i);
  }
  EXPECT_TRUE(net.idle());
}

TEST(TopologyTest, FullLinkQueueBackPressuresWithoutLoss) {
  // A 1-deep link queue under a 6-message burst: everything still
  // arrives, in order, just later. Nothing is dropped or reordered.
  Network net(9, 1, 0, Topology::kMesh2D, /*link_bw=*/1, /*link_queue=*/1);
  const std::uint64_t kBurst = 6;
  for (std::uint64_t i = 0; i < kBurst; ++i) net.send(msg(0, 8, i), 0);
  Message m;
  Cycle at = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    at = deliver_until_recv(net, 8, m, at + 1);
    EXPECT_EQ(m.txn, i);
  }
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.debug_scan_undelivered(), 0u);
}

TEST(TopologyTest, HopAndQueuingStats) {
  Network net(9, 1, 0, Topology::kMesh2D, /*link_bw=*/1, /*link_queue=*/8);
  for (std::uint64_t i = 0; i < 4; ++i) net.send(msg(0, 8, i), 0);
  Message m;
  Cycle at = 0;
  for (std::uint64_t i = 0; i < 4; ++i) at = deliver_until_recv(net, 8, m, at + 1);
  const LogHistogram* hops = net.stats().histogram("msg_hops");
  const LogHistogram* queuing = net.stats().histogram("msg_queuing");
  ASSERT_NE(hops, nullptr);
  ASSERT_NE(queuing, nullptr);
  EXPECT_EQ(hops->count(), 4u);
  EXPECT_EQ(hops->mean(), 4.0);
  EXPECT_EQ(queuing->count(), 4u);
  // First message is uncontended; the last queued behind three others.
  EXPECT_EQ(queuing->max(), 3u);
  EXPECT_EQ(net.stats().get("messages_delivered"), 4u);
  EXPECT_GT(net.stats().get("link_forwarded"), 0u);
}

TEST(TopologyTest, IdleCounterMatchesScannedTruth) {
  Network net(5, 2, 1, Topology::kRing, 1, 2);
  EXPECT_TRUE(net.idle());
  EXPECT_EQ(net.debug_scan_undelivered(), 0u);
  for (std::uint64_t i = 0; i < 5; ++i) net.send(msg(i % 4, 4, i), 0);
  EXPECT_FALSE(net.idle());
  EXPECT_EQ(net.debug_scan_undelivered(), 5u);
  Message m;
  std::uint64_t got = 0;
  for (Cycle c = 1; c < 100 && got < 5; ++c) {
    net.deliver(c);
    while (net.recv(4, m)) ++got;
    EXPECT_EQ(net.idle(), net.debug_scan_undelivered() == 0);
  }
  EXPECT_EQ(got, 5u);
  EXPECT_TRUE(net.idle());
}

// ---- per-pair FIFO property, all topologies ------------------------
//
// Random hub-patterned traffic (every message involves the directory
// endpoint, like all real coherence traffic) under random latency,
// delivery bandwidth, link bandwidth, and queue depth: per-(src, dst)
// txn numbers must arrive strictly in send order, and the network must
// drain to idle (no lost messages, no deadlock).
void fifo_trial(Topology topo, std::uint64_t seed) {
  SCOPED_TRACE("topology=" + std::string(to_string(topo)) + " seed=" +
               std::to_string(seed));
  Pcg32 rng(seed);
  const std::uint32_t endpoints = 3 + rng.next_below(5);  // 3..7
  const std::uint32_t latency = 1 + rng.next_below(3);
  const std::uint32_t deliver_bw = rng.next_below(3);     // 0 = unlimited
  const std::uint32_t link_bw = rng.next_below(3);
  const std::uint32_t link_queue = 1 + rng.next_below(8);
  // Per-direction extra delay is constant, as in the real system (the
  // directory's service time): same-pair messages share it, so FIFO
  // must hold.
  const std::uint32_t dir_extra = rng.next_below(4);
  Network net(endpoints, latency, deliver_bw, topo, link_bw, link_queue);
  const EndpointId dir = endpoints - 1;

  std::map<std::pair<EndpointId, EndpointId>, std::uint64_t> next_txn, seen;
  const std::uint32_t kMessages = 250;
  std::uint32_t sent = 0;
  Message m;
  for (Cycle cycle = 0; sent < kMessages || !net.idle(); ++cycle) {
    ASSERT_LT(cycle, 100'000u) << "network failed to drain";
    net.deliver(cycle);
    for (std::uint32_t burst = rng.next_below(4); burst > 0 && sent < kMessages;
         --burst, ++sent) {
      const EndpointId cache = rng.next_below(endpoints - 1);
      const bool to_dir = rng.chance(1, 2);
      const EndpointId src = to_dir ? cache : dir;
      const EndpointId dst = to_dir ? dir : cache;
      const auto key = std::make_pair(src, dst);
      net.send(msg(src, dst, next_txn[key]++), cycle, to_dir ? 0 : dir_extra);
    }
    for (EndpointId ep = 0; ep < endpoints; ++ep) {
      while (net.recv(ep, m)) {
        const auto key = std::make_pair(m.src, m.dst);
        ASSERT_EQ(m.txn, seen[key])
            << "pair (" << m.src << " -> " << m.dst << ") reordered";
        ++seen[key];
      }
    }
    EXPECT_EQ(net.idle(), net.debug_scan_undelivered() == 0);
  }
  EXPECT_EQ(seen, next_txn);  // every message arrived exactly once
}

TEST(NetworkFifoProperty, CrossbarNeverReordersPairs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    fifo_trial(Topology::kCrossbar, seed);
}

TEST(NetworkFifoProperty, RingNeverReordersPairs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) fifo_trial(Topology::kRing, seed);
}

TEST(NetworkFifoProperty, MeshNeverReordersPairs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    fifo_trial(Topology::kMesh2D, seed);
}

}  // namespace
}  // namespace mcsim
