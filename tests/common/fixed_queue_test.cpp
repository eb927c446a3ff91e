#include "common/fixed_queue.hpp"

#include <gtest/gtest.h>

#include <memory_resource>
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

/// Counts the buffers a ring takes, over the default resource.
class CountingResource : public std::pmr::memory_resource {
 public:
  std::size_t allocations = 0;

 private:
  void* do_allocate(std::size_t bytes, std::size_t align) override {
    ++allocations;
    return std::pmr::get_default_resource()->allocate(bytes, align);
  }
  void do_deallocate(void* p, std::size_t bytes, std::size_t align) override {
    std::pmr::get_default_resource()->deallocate(p, bytes, align);
  }
  bool do_is_equal(const std::pmr::memory_resource& o) const noexcept override {
    return this == &o;
  }
};

TEST(FixedQueue, GrowsAcrossTheWrapKeepingFifoOrder) {
  FixedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) q.push(i);
  q.pop();
  q.pop();
  q.push(4);
  q.push(5);  // slots: [4 5 2 3], head at slot 2
  ASSERT_TRUE(q.full());
  q.push(6);  // full: moves to a bigger buffer, oldest first
  EXPECT_EQ(q.capacity(), 16u);
  EXPECT_EQ(contents(q), (std::vector<int>{2, 3, 4, 5, 6}));
  EXPECT_EQ(q.front(), 2);
  EXPECT_EQ(q.back(), 6);
  EXPECT_EQ(q.at(2), 4);
  for (int i = 2; i < 5; ++i) EXPECT_EQ(q.pop(), i);
  for (int i = 7; i < 21; ++i) q.push(i);  // head at slot 3, the tail wraps to slot 2
  ASSERT_TRUE(q.full());
  EXPECT_EQ(q.capacity(), 16u);
  q.push(21);
  EXPECT_EQ(q.capacity(), 32u);
  EXPECT_EQ(q.front(), 5);
  EXPECT_EQ(q.back(), 21);
  for (int i = 5; i < 22; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, AnUnsizedRingGrowsOnItsFirstPush) {
  CountingResource arena;
  FixedQueue<std::string> q(0, &arena);
  EXPECT_EQ(arena.allocations, 0u);
  q.push("a");
  EXPECT_EQ(arena.allocations, 1u);  // the growth draws from the ring's resource
  EXPECT_EQ(q.capacity(), 16u);
  for (int i = 0; i < 16; ++i) q.push(std::to_string(i));
  EXPECT_EQ(arena.allocations, 2u);
  EXPECT_EQ(q.front(), "a");
  EXPECT_EQ(q.back(), "15");
  EXPECT_EQ(q.at(16), "15");
  q.erase_at(1);
  EXPECT_EQ(q.at(1), "1");
}

TEST(FixedQueue, ClearKeepsTheGrownCapacity) {
  CountingResource arena;
  FixedQueue<int> q(0, &arena);
  for (int i = 0; i < 20; ++i) q.push(i);
  ASSERT_EQ(q.capacity(), 32u);
  const std::size_t taken = arena.allocations;
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 32u);
  for (int i = 0; i < 32; ++i) q.push(i);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(arena.allocations, taken);
}

TEST(FixedQueue, ABoundedRingWhoseCallerChecksFullNeverReallocates) {
  CountingResource arena;
  FixedQueue<int> q(5, &arena);
  EXPECT_EQ(arena.allocations, 1u);
  int next = 0, expect = 0;
  for (int round = 0; round < 1000; ++round) {
    if (!q.full()) q.push(next++);
    if (round % 3 == 2) {
      EXPECT_EQ(q.pop(), expect++);
    }
  }
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.capacity(), 5u);
  EXPECT_EQ(arena.allocations, 1u);
}

TEST(FixedQueue, SwapExchangesBuffersOfOneResource) {
  CountingResource arena;
  FixedQueue<int> a(0, &arena), b(0, &arena);
  for (int i = 0; i < 3; ++i) a.push(i);
  a.swap(b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(contents(b), (std::vector<int>{0, 1, 2}));
  a.push(7);  // a now has b's old, empty buffer: it grows on its own
  EXPECT_EQ(arena.allocations, 2u);
  EXPECT_EQ(contents(a), (std::vector<int>{7}));
}

}  // namespace
}  // namespace mcsim
