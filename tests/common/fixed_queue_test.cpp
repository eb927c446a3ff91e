#include "common/fixed_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mcsim {
namespace {

TEST(FixedQueue, StartsEmpty) {
  FixedQueue<int> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
}

TEST(FixedQueue, PushPopFifoOrder) {
  FixedQueue<int> q(3);
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, WrapsAroundCircularly) {
  FixedQueue<int> q(3);
  for (int round = 0; round < 10; ++round) {
    q.push(round);
    q.push(round + 100);
    EXPECT_EQ(q.pop(), round);
    EXPECT_EQ(q.pop(), round + 100);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, AtIndexesFromHead) {
  FixedQueue<int> q(4);
  q.push(10);
  q.push(20);
  q.push(30);
  q.pop();
  q.push(40);
  EXPECT_EQ(q.at(0), 20);
  EXPECT_EQ(q.at(1), 30);
  EXPECT_EQ(q.at(2), 40);
  EXPECT_EQ(q.front(), 20);
  EXPECT_EQ(q.back(), 40);
}

TEST(FixedQueue, PopBackNDropsNewest) {
  FixedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) q.push(i);
  q.pop_back_n(2);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.back(), 3);
  q.pop_back_n(0);
  EXPECT_EQ(q.size(), 4u);
  q.pop_back_n(4);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, ClearResets) {
  FixedQueue<std::string> q(2);
  q.push("a");
  q.push("b");
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push("c");
  EXPECT_EQ(q.front(), "c");
}

TEST(FixedQueue, MutationThroughAt) {
  FixedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.at(1) = 99;
  q.pop();
  EXPECT_EQ(q.front(), 99);
}

std::vector<int> contents(const FixedQueue<int>& q) {
  std::vector<int> out;
  for (std::size_t i = 0; i < q.size(); ++i) out.push_back(q.at(i));
  return out;
}

TEST(FixedQueue, EraseAtHeadMiddleAndTail) {
  FixedQueue<int> q(5);
  for (int i = 1; i <= 5; ++i) q.push(i);
  q.erase_at(0);
  EXPECT_EQ(contents(q), (std::vector<int>{2, 3, 4, 5}));
  q.erase_at(1);
  EXPECT_EQ(contents(q), (std::vector<int>{2, 4, 5}));
  q.erase_at(2);
  EXPECT_EQ(contents(q), (std::vector<int>{2, 4}));
  q.push(6);  // the freed tail slots are reusable
  q.push(7);
  q.push(8);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(contents(q), (std::vector<int>{2, 4, 6, 7, 8}));
}

TEST(FixedQueue, EraseAtAcrossTheWrap) {
  FixedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) q.push(i);
  q.pop();
  q.pop();
  q.push(4);
  q.push(5);  // slots: [4 5 2 3], head at slot 2
  EXPECT_EQ(contents(q), (std::vector<int>{2, 3, 4, 5}));
  q.erase_at(1);  // shift crosses the end of the buffer
  EXPECT_EQ(contents(q), (std::vector<int>{2, 4, 5}));
  EXPECT_EQ(q.back(), 5);
  q.push(6);
  EXPECT_EQ(contents(q), (std::vector<int>{2, 4, 5, 6}));
  q.erase_at(3);
  q.erase_at(0);
  EXPECT_EQ(contents(q), (std::vector<int>{4, 5}));
  EXPECT_EQ(q.front(), 4);
}

TEST(FixedQueue, EraseHeadMiddleAndBackOfAWrappedRing) {
  // Erasing near the head shifts the older side and advances the head;
  // near the back it shifts the younger side. Either way the order is
  // kept and the freed capacity is reusable across the wrap.
  FixedQueue<int> q(6);
  for (int i = 0; i < 6; ++i) q.push(i);
  for (int i = 0; i < 4; ++i) q.pop();
  for (int i = 6; i < 10; ++i) q.push(i);  // slots: [6 7 8 9 4 5], head at slot 4
  EXPECT_EQ(contents(q), (std::vector<int>{4, 5, 6, 7, 8, 9}));
  q.erase_at(0);  // the head
  EXPECT_EQ(contents(q), (std::vector<int>{5, 6, 7, 8, 9}));
  EXPECT_EQ(q.front(), 5);
  q.erase_at(1);  // near the head, across the wrap
  EXPECT_EQ(contents(q), (std::vector<int>{5, 7, 8, 9}));
  q.erase_at(2);  // middle
  EXPECT_EQ(contents(q), (std::vector<int>{5, 7, 9}));
  q.erase_at(2);  // the back
  EXPECT_EQ(contents(q), (std::vector<int>{5, 7}));
  EXPECT_EQ(q.back(), 7);
  for (int i = 10; i < 14; ++i) q.push(i);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(contents(q), (std::vector<int>{5, 7, 10, 11, 12, 13}));
  EXPECT_EQ(q.pop(), 5);
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.front(), 10);
}

TEST(FixedQueue, EraseHeadBeforeTheRingFillsKeepsPushing) {
  // Slots are constructed lazily up to the tail; erasing the head
  // moves the head, not the tail, so pushes still land on the next
  // unconstructed slot and later wrap onto the freed one.
  FixedQueue<std::string> q(3);
  q.push("a");
  q.push("b");
  q.erase_at(0);
  q.push("c");
  q.push("d");  // wraps onto slot 0
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.pop(), "b");
  EXPECT_EQ(q.pop(), "c");
  EXPECT_EQ(q.pop(), "d");
}

}  // namespace
}  // namespace mcsim
