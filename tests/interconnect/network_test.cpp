#include "interconnect/network.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace mcsim {
namespace {

Message msg(EndpointId src, EndpointId dst, Addr line = 0) {
  Message m;
  m.type = MsgType::kReadReq;
  m.src = src;
  m.dst = dst;
  m.line_addr = line;
  return m;
}

TEST(Network, DeliversAfterExactLatency) {
  Network net(3, 10);
  net.send(msg(0, 2), 5);
  Message out;
  net.deliver(14);
  EXPECT_FALSE(net.recv(2, out));
  net.deliver(15);
  ASSERT_TRUE(net.recv(2, out));
  EXPECT_EQ(out.src, 0u);
}

TEST(Network, ExtraDelayAddsServiceTime) {
  Network net(3, 10);
  net.send(msg(0, 2), 0, /*extra_delay=*/3);
  Message out;
  net.deliver(12);
  EXPECT_FALSE(net.recv(2, out));
  net.deliver(13);
  EXPECT_TRUE(net.recv(2, out));
}

TEST(Network, FifoBetweenSamePair) {
  Network net(3, 5);
  for (Addr a = 0; a < 10; ++a) net.send(msg(0, 1, a * 64), 0);
  net.deliver(5);
  Message out;
  for (Addr a = 0; a < 10; ++a) {
    ASSERT_TRUE(net.recv(1, out));
    EXPECT_EQ(out.line_addr, a * 64);
  }
  EXPECT_FALSE(net.recv(1, out));
}

TEST(Network, IdleTracksInFlightAndInboxes) {
  Network net(2, 4);
  EXPECT_TRUE(net.idle());
  net.send(msg(0, 1), 0);
  EXPECT_FALSE(net.idle());
  net.deliver(4);
  EXPECT_FALSE(net.idle());  // sitting in the inbox
  Message out;
  net.recv(1, out);
  EXPECT_TRUE(net.idle());
}

TEST(Network, BandwidthLimitDefersExcess) {
  Network net(2, 1, /*deliver_bw=*/2);
  for (int i = 0; i < 5; ++i) net.send(msg(0, 1), 0);
  net.deliver(1);
  Message out;
  int got = 0;
  while (net.recv(1, out)) ++got;
  EXPECT_EQ(got, 2);
  net.deliver(2);
  got = 0;
  while (net.recv(1, out)) ++got;
  EXPECT_EQ(got, 2);
  net.deliver(3);
  got = 0;
  while (net.recv(1, out)) ++got;
  EXPECT_EQ(got, 1);
}

TEST(Network, BandwidthLimitedFanInKeepsOrderWhileSlotsRecycle) {
  // Three senders to endpoint 3, which takes one message per cycle.
  // Each cycle's deliveries are received before the next sends, so the
  // network's message slots are released and reused throughout.
  Network net(4, 2, /*deliver_bw=*/1);
  std::vector<std::string> got;
  Message out;
  Addr next_line = 0x40;
  for (Cycle now = 0; now < 16; ++now) {
    if (now < 4 || now == 8) {
      for (EndpointId src = 0; src < 3; ++src) {
        net.send(msg(src, 3, next_line), now);
        next_line += 0x40;
      }
    }
    net.deliver(now);
    while (net.recv(3, out))
      got.push_back(std::to_string(now) + ":" + std::to_string(out.src) + ":" +
                    std::to_string(out.line_addr));
  }
  const std::vector<std::string> want = {
      "2:0:64",   "3:1:128",  "4:2:192",  "5:0:256",  "6:1:320",
      "7:2:384",  "8:0:448",  "9:1:512",  "10:2:576", "11:0:640",
      "12:1:704", "13:2:768", "14:0:832", "15:1:896",
  };
  EXPECT_EQ(got, want);
  net.deliver(16);
  ASSERT_TRUE(net.recv(3, out));
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.line_addr, 960u);
  EXPECT_TRUE(net.idle());
}

TEST(Network, StatsCountMessages) {
  Network net(2, 1);
  net.send(msg(0, 1), 0);
  net.deliver(1);
  EXPECT_EQ(net.stats().get("messages_sent"), 1u);
  EXPECT_EQ(net.stats().get("messages_delivered"), 1u);
}

// The crossbar's delivery order, kept here as one std::priority_queue
// over (deliver_at, seq) with per-endpoint stall FIFOs that are served
// first on the next cycle: the order the per-extra-delay lanes must
// reproduce exactly.
class ReferenceCrossbar {
 public:
  ReferenceCrossbar(std::uint32_t endpoints, std::uint32_t latency, std::uint32_t bw)
      : latency_(latency), bw_(bw), stalled_(endpoints) {}

  void send(EndpointId dst, Addr id, Cycle now, std::uint32_t extra) {
    heap_.push(Key{now + latency_ + extra, seq_++, dst, id});
  }

  std::vector<Addr> deliver(Cycle now) {
    std::vector<Addr> out;
    std::vector<std::uint32_t> delivered(stalled_.size(), 0);
    for (EndpointId ep = 0; ep < stalled_.size(); ++ep) {
      while (!stalled_[ep].empty() && (bw_ == 0 || delivered[ep] < bw_)) {
        out.push_back(stalled_[ep].front().id);
        stalled_[ep].pop_front();
        ++delivered[ep];
      }
    }
    while (!heap_.empty() && heap_.top().at <= now) {
      const Key k = heap_.top();
      heap_.pop();
      if (bw_ != 0 && delivered[k.dst] >= bw_) {
        stalled_[k.dst].push_back(k);
        continue;
      }
      out.push_back(k.id);
      ++delivered[k.dst];
    }
    return out;
  }

 private:
  struct Key {
    Cycle at;
    std::uint64_t seq;
    EndpointId dst;
    Addr id;
    bool operator>(const Key& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };
  std::uint32_t latency_, bw_;
  std::uint64_t seq_ = 0;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap_;
  std::vector<std::deque<Key>> stalled_;
};

/// Random traffic with extra delays 0, 2 and 7 mixed over many cycles;
/// every cycle's deliveries must match the reference in global order.
void expect_reference_order(std::uint32_t deliver_bw) {
  constexpr std::uint32_t kEndpoints = 6, kLatency = 3, kCycles = 3000;
  const std::uint32_t extras[] = {0, 2, 7};
  Network net(kEndpoints, kLatency, deliver_bw);
  ReferenceCrossbar ref(kEndpoints, kLatency, deliver_bw);
  std::vector<EndpointId> landed;  // destinations, in delivery order
  net.set_delivery_hook([&landed](EndpointId ep) { landed.push_back(ep); });
  Pcg32 rng(deliver_bw + 99);
  Addr next_id = 1;
  std::uint64_t total = 0;
  for (Cycle now = 0; now < kCycles + 20; ++now) {
    landed.clear();
    net.deliver(now);
    std::vector<Addr> got;
    Message out;
    for (EndpointId ep : landed) {
      ASSERT_TRUE(net.recv(ep, out));
      got.push_back(out.line_addr);
    }
    ASSERT_EQ(got, ref.deliver(now)) << "cycle " << now;
    total += got.size();
    if (now >= kCycles) continue;
    const std::uint32_t sends = rng.next_below(5);
    for (std::uint32_t i = 0; i < sends; ++i) {
      const EndpointId src = rng.next_below(kEndpoints);
      const EndpointId dst = (src + 1 + rng.next_below(kEndpoints - 1)) % kEndpoints;
      const std::uint32_t extra = extras[rng.next_below(3)];
      net.send(msg(src, dst, next_id), now, extra);
      ref.send(dst, next_id, now, extra);
      ++next_id;
    }
  }
  EXPECT_EQ(total, next_id - 1) << "every message delivered";
  EXPECT_TRUE(net.idle());
}

TEST(Network, MixedExtraDelaysDeliverInPriorityQueueOrder) {
  expect_reference_order(/*deliver_bw=*/0);
}

TEST(Network, MixedExtraDelaysUnderBandwidthCapDeliverInPriorityQueueOrder) {
  expect_reference_order(/*deliver_bw=*/1);
}

}  // namespace
}  // namespace mcsim
