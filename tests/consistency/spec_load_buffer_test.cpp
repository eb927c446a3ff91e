#include "consistency/spec_load_buffer.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mcsim {
namespace {

SpecLoadBuffer::Entry entry(std::uint64_t seq, Addr line, bool acq,
                            std::uint64_t tag = SpecLoadBuffer::kNoTag) {
  SpecLoadBuffer::Entry e;
  e.seq = seq;
  e.addr = line;
  e.line = line;
  e.acq = acq;
  e.store_tag = tag;
  return e;
}

/// Retire with no veto; returns how many entries retired.
std::size_t retire(SpecLoadBuffer& b) {
  return b.retire_ready([](const SpecLoadBuffer::Entry&) { return true; },
                        [](const SpecLoadBuffer::Entry&) {});
}

TEST(SpecLoadBuffer, HeadRetiresWhenDoneAndTagNull) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, /*acq=*/true));
  EXPECT_EQ(retire(b), 0u);  // acq and not done
  b.mark_done(1, 42);
  EXPECT_EQ(retire(b), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(SpecLoadBuffer, NonAcquireRetiresWithoutCompleting) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, /*acq=*/false));
  EXPECT_EQ(retire(b), 1u);
}

TEST(SpecLoadBuffer, StoreTagBlocksRetirementUntilNullified) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, /*acq=*/false, /*tag=*/7));
  EXPECT_EQ(retire(b), 0u);
  b.nullify_store_tag(7);
  EXPECT_EQ(retire(b), 1u);
}

TEST(SpecLoadBuffer, FifoRetirementBlocksYoungerBehindOlder) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, /*acq=*/true));   // pending acquire
  b.insert(entry(2, 0x200, /*acq=*/false));  // ready, but behind
  EXPECT_EQ(retire(b), 0u);
  b.mark_done(1, 0);
  EXPECT_EQ(retire(b), 2u);
}

TEST(SpecLoadBuffer, RetireReportsSeqsInOrderUntilVetoed) {
  SpecLoadBuffer b(4);
  for (std::uint64_t s = 1; s <= 3; ++s) b.insert(entry(s, 0x100 * s, /*acq=*/false));
  std::vector<std::uint64_t> seen;
  auto veto_third = [](const SpecLoadBuffer::Entry& e) { return e.seq != 3; };
  auto report = [&seen](const SpecLoadBuffer::Entry& e) { seen.push_back(e.seq); };
  EXPECT_EQ(b.retire_ready(veto_third, report), 2u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(b.size(), 1u);  // the vetoed head stays
}

TEST(SpecLoadBuffer, MatchOnDoneEntryRequestsSquash) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true));
  b.insert(entry(2, 0x200, true));
  b.mark_done(2, 5);
  auto r = b.on_line_event(LineEventKind::kInvalidate, 0x200);
  EXPECT_TRUE(r.squash);
  EXPECT_EQ(r.squash_seq, 2u);
  EXPECT_TRUE(r.reissue.empty());
}

TEST(SpecLoadBuffer, MatchOnPendingEntryRequestsReissue) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true));
  auto r = b.on_line_event(LineEventKind::kInvalidate, 0x100);
  EXPECT_FALSE(r.squash);
  ASSERT_EQ(r.reissue.size(), 1u);
  EXPECT_EQ(r.reissue[0], 1u);
}

TEST(SpecLoadBuffer, OldestDoneMatchWins) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true));
  b.insert(entry(2, 0x100, true));
  b.mark_done(1, 9);
  b.mark_done(2, 9);
  auto r = b.on_line_event(LineEventKind::kReplacement, 0x100);
  EXPECT_TRUE(r.squash);
  EXPECT_EQ(r.squash_seq, 1u);
}

TEST(SpecLoadBuffer, PendingMatchBeforeDoneMatchReissuesThenSquashes) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true));  // pending
  b.insert(entry(2, 0x100, true));  // done
  b.mark_done(2, 9);
  auto r = b.on_line_event(LineEventKind::kUpdate, 0x100);
  // The older pending entry reissues; the younger done entry squashes
  // (which also disposes of anything after it).
  ASSERT_EQ(r.reissue.size(), 1u);
  EXPECT_EQ(r.reissue[0], 1u);
  EXPECT_TRUE(r.squash);
  EXPECT_EQ(r.squash_seq, 2u);
}

TEST(SpecLoadBuffer, NoMatchNoAction) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true));
  auto r = b.on_line_event(LineEventKind::kInvalidate, 0x300);
  EXPECT_FALSE(r.squash);
  EXPECT_TRUE(r.reissue.empty());
}

TEST(SpecLoadBuffer, SquashFromRemovesSuffix) {
  SpecLoadBuffer b(8);
  for (std::uint64_t s = 1; s <= 5; ++s) b.insert(entry(s, 0x100 * s, false));
  b.squash_from(3);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_NE(b.find(2), nullptr);
  EXPECT_EQ(b.find(3), nullptr);
  EXPECT_EQ(b.find(5), nullptr);
}

TEST(SpecLoadBuffer, MarkReissuedClearsDone) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true));
  b.mark_done(1, 7);
  b.mark_reissued(1);
  EXPECT_EQ(retire(b), 0u);  // done cleared again
  b.mark_done(1, 8);
  EXPECT_EQ(retire(b), 1u);
}

TEST(SpecLoadBuffer, DumpShowsPaperFields) {
  SpecLoadBuffer b(4);
  b.insert(entry(1, 0x100, true, 9));
  std::string d = b.dump();
  EXPECT_NE(d.find("acq=1"), std::string::npos);
  EXPECT_NE(d.find("done=0"), std::string::npos);
  EXPECT_NE(d.find("st_tag=9"), std::string::npos);
}

TEST(SpecLoadBuffer, CapacityEnforced) {
  SpecLoadBuffer b(2);
  b.insert(entry(1, 0x100, false, 5));
  b.insert(entry(2, 0x200, false, 5));
  EXPECT_TRUE(b.full());
}

}  // namespace
}  // namespace mcsim
