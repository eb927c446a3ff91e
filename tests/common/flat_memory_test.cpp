#include "common/flat_memory.hpp"

#include <gtest/gtest.h>

#include <array>
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

TEST(FlatMemory, TerabyteMemoryIsCheapAndRoundTripsAtBothEnds) {
  FlatMemory mem(std::uint64_t{1} << 40);
  EXPECT_EQ(mem.size_bytes(), std::uint64_t{1} << 40);
  const Addr last = mem.size_bytes() - kWordBytes;
  EXPECT_EQ(mem.read(last), 0u);
  EXPECT_EQ(mem.pages_allocated(), 0u);
  mem.write(0, 7);
  mem.write(last, 9);
  EXPECT_EQ(mem.read(0), 7u);
  EXPECT_EQ(mem.read(last), 9u);
  EXPECT_EQ(mem.pages_allocated(), 2u);
  EXPECT_THROW(mem.read(mem.size_bytes()), std::out_of_range);
}

TEST(FlatMemory, WritesAcrossAPageBoundaryDoNotAlias) {
  FlatMemory mem(1 << 16);
  const Addr boundary = FlatMemory::kPageBytes;
  mem.write(boundary - kWordBytes, 1);
  mem.write(boundary, 2);
  EXPECT_EQ(mem.pages_allocated(), 2u);
  EXPECT_EQ(mem.read(boundary - kWordBytes), 1u);
  EXPECT_EQ(mem.read(boundary), 2u);
  // The same page offset one page up is a different word.
  EXPECT_EQ(mem.read(boundary + boundary - kWordBytes), 0u);
  EXPECT_EQ(mem.read(kWordBytes), 0u);
  mem.write(boundary, 3);
  EXPECT_EQ(mem.read(boundary - kWordBytes), 1u);
  EXPECT_EQ(mem.read(boundary), 3u);
}

TEST(FlatMemory, ReadingUnwrittenPagesAllocatesNothing) {
  FlatMemory mem(1 << 20);
  for (Addr a = 0; a < mem.size_bytes(); a += FlatMemory::kPageBytes) ASSERT_EQ(mem.read(a), 0u);
  std::array<Word, 16> line{};
  mem.read_words(0x1000, line);
  EXPECT_EQ(mem.pages_allocated(), 0u);
  mem.write(0x2004, 5);
  EXPECT_EQ(mem.read(0x2004), 5u);
  EXPECT_EQ(mem.read(0x3004), 0u);  // the memo holds 0x2000's page, not this one
  EXPECT_EQ(mem.pages_allocated(), 1u);
}

TEST(FlatMemory, LineSpansRoundTripWithinAPage) {
  FlatMemory mem(1 << 16);
  const std::array<Word, 16> in = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const Addr line = FlatMemory::kPageBytes - sizeof in;  // the page's last line
  mem.write_words(line, in);
  std::array<Word, 16> out{};
  mem.read_words(line, out);
  EXPECT_EQ(out, in);
  EXPECT_EQ(mem.read(line + 4 * kWordBytes), 5u);
  EXPECT_EQ(mem.read(FlatMemory::kPageBytes), 0u);
  EXPECT_EQ(mem.pages_allocated(), 1u);
  EXPECT_THROW(mem.read_words(mem.size_bytes() - kWordBytes, out), std::out_of_range);
}

}  // namespace
}  // namespace mcsim
