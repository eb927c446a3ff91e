#include "interconnect/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

}  // namespace
}  // namespace mcsim
