#include "common/flat_memory.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mcsim {
namespace {

TEST(FlatMemory, FreshMemoryReadsZeroToTheLastWord) {
  FlatMemory mem(1 << 16);
  EXPECT_EQ(mem.size_bytes(), 1u << 16);
  for (Addr a = 0; a < mem.size_bytes(); a += kWordBytes) ASSERT_EQ(mem.read(a), 0u) << a;
}

TEST(FlatMemory, LastWordRoundTrips) {
  FlatMemory mem(1 << 16);
  const Addr last = mem.size_bytes() - kWordBytes;
  mem.write(last, 0xdeadbeef);
  mem.write(0, 1);
  EXPECT_EQ(mem.read(last), 0xdeadbeefu);
  EXPECT_EQ(mem.read(0), 1u);
  EXPECT_EQ(mem.read(last - kWordBytes), 0u);
}

TEST(FlatMemory, OutOfRangeAccessThrows) {
  FlatMemory mem(1 << 16);
  EXPECT_THROW(mem.read(mem.size_bytes()), std::out_of_range);
  EXPECT_THROW(mem.write(mem.size_bytes(), 1), std::out_of_range);
  EXPECT_THROW(mem.read(Addr{1} << 40), std::out_of_range);
}

}  // namespace
}  // namespace mcsim
