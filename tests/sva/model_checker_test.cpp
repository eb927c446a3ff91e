// Unit tests for the per-model execution checkers on hand-built access
// logs: a legal execution passes every model, and each of the three
// checks (replay, delay arcs, reads-from) catches its own kind of
// corruption — including the model-sensitivity that makes the checkers
// differential (the same reordered log is a violation under SC and
// legal under PC).
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sva/model_checker.hpp"

namespace mcsim {
namespace {

using sva::check_execution;
using sva::CheckResult;
using sva::CheckViolation;
using sva::classes_of;
using CM = ConsistencyModel;

AccessRecord rec(std::uint64_t seq, std::uint64_t pc, Addr addr, AccessKind k,
                 SyncKind s, Word v, Cycle at) {
  AccessRecord r;
  r.seq = seq;
  r.pc = pc;
  r.addr = addr;
  r.kind = k;
  r.sync = s;
  r.value = v;
  r.performed_at = at;
  return r;
}

/// The store-buffering pair: st [0x10]=1 ; ld [0x14]  ||  st [0x14]=1 ; ld [0x10].
std::vector<Program> sb_programs() {
  ProgramBuilder p0;
  p0.li(1, 1);
  p0.store(1, ProgramBuilder::abs(0x10));
  p0.load(2, ProgramBuilder::abs(0x14));
  p0.halt();
  ProgramBuilder p1;
  p1.li(1, 1);
  p1.store(1, ProgramBuilder::abs(0x14));
  p1.load(2, ProgramBuilder::abs(0x10));
  p1.halt();
  return {p0.build(), p1.build()};
}

TEST(ModelChecker, CleanExecutionPassesEveryModel) {
  std::vector<Program> progs = sb_programs();
  std::vector<std::vector<AccessRecord>> logs = {
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 1, 10),
       rec(2, 2, 0x14, AccessKind::kLoad, SyncKind::kNone, 1, 30)},
      {rec(1, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 1, 20),
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 1, 40)},
  };
  for (CM m : {CM::kSC, CM::kPC, CM::kWC, CM::kRC}) {
    CheckResult r = check_execution(m, progs, logs);
    EXPECT_TRUE(r.ok()) << to_string(m) << ": " << r.describe();
    EXPECT_EQ(r.reads_checked, 2u);
    EXPECT_GT(r.arcs_checked, 0u);
  }
}

TEST(ModelChecker, ReorderedStoreLoadIsScViolationButPcLegal) {
  // P0's load performs before its earlier store: the classic
  // store-buffer reordering. SC forbids the arc; PC/WC/RC allow it.
  std::vector<Program> progs = sb_programs();
  std::vector<std::vector<AccessRecord>> logs = {
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 1, 30),
       rec(2, 2, 0x14, AccessKind::kLoad, SyncKind::kNone, 0, 10)},
      {rec(1, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 1, 20),
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 0, 15)},
  };
  CheckResult sc = check_execution(CM::kSC, progs, logs);
  ASSERT_FALSE(sc.ok());
  EXPECT_EQ(sc.violations[0].kind, CheckViolation::Kind::kDelayArc);
  for (CM m : {CM::kPC, CM::kWC, CM::kRC}) {
    CheckResult r = check_execution(m, progs, logs);
    EXPECT_TRUE(r.ok()) << to_string(m) << ": " << r.describe();
  }
}

TEST(ModelChecker, EqualTimestampsAreNotABackwardsArc) {
  // Intra-cycle order is unobservable: same-cycle accesses satisfy
  // every arc, in either direction.
  std::vector<Program> progs = sb_programs();
  std::vector<std::vector<AccessRecord>> logs = {
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 1, 10),
       rec(2, 2, 0x14, AccessKind::kLoad, SyncKind::kNone, 0, 10)},
      {rec(1, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 1, 20),
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 1, 40)},
  };
  CheckResult r = check_execution(CM::kSC, progs, logs);
  EXPECT_TRUE(r.ok()) << r.describe();
}

TEST(ModelChecker, UnjustifiableLoadValueIsFlagged) {
  std::vector<Program> progs = sb_programs();
  std::vector<std::vector<AccessRecord>> logs = {
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 1, 10),
       rec(2, 2, 0x14, AccessKind::kLoad, SyncKind::kNone, 1, 30)},
      {rec(1, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 1, 20),
       // Nobody ever wrote 7 to 0x10.
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 7, 40)},
  };
  CheckResult r = check_execution(CM::kSC, progs, logs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, CheckViolation::Kind::kReadValue);
  EXPECT_NE(r.violations[0].detail.find("justified"), std::string::npos);
}

TEST(ModelChecker, StoreValueDisagreementIsAReplayMismatch) {
  std::vector<Program> progs = sb_programs();
  std::vector<std::vector<AccessRecord>> logs = {
      // The program stores r1 == 1; the log claims 2 hit memory.
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 2, 10),
       rec(2, 2, 0x14, AccessKind::kLoad, SyncKind::kNone, 0, 30)},
      {rec(1, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 1, 20),
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 2, 40)},
  };
  CheckResult r = check_execution(CM::kSC, progs, logs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, CheckViolation::Kind::kReplayMismatch);
}

TEST(ModelChecker, MissingRecordIsAReplayMismatch) {
  std::vector<Program> progs = sb_programs();
  std::vector<std::vector<AccessRecord>> logs = {
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 1, 10)},  // load lost
      {rec(1, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 1, 20),
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 1, 40)},
  };
  CheckResult r = check_execution(CM::kSC, progs, logs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, CheckViolation::Kind::kReplayMismatch);
}

TEST(ModelChecker, ForwardedLoadValueIsJustified) {
  // A load bound from this processor's own in-flight store: legal under
  // PC (no store->load arc) even though the store performs much later —
  // and the same log under SC fails on the arc, not on the value.
  ProgramBuilder b;
  b.li(1, 1);
  b.store(1, ProgramBuilder::abs(0x10));
  b.load(2, ProgramBuilder::abs(0x10));
  b.halt();
  std::vector<Program> progs = {b.build()};
  std::vector<std::vector<AccessRecord>> logs = {
      {rec(1, 1, 0x10, AccessKind::kStore, SyncKind::kNone, 1, 100),
       rec(2, 2, 0x10, AccessKind::kLoad, SyncKind::kNone, 1, 5)},
  };
  CheckResult pc = check_execution(CM::kPC, progs, logs);
  EXPECT_TRUE(pc.ok()) << pc.describe();
  CheckResult sc = check_execution(CM::kSC, progs, logs);
  ASSERT_FALSE(sc.ok());
  EXPECT_EQ(sc.violations[0].kind, CheckViolation::Kind::kDelayArc);
}

TEST(ModelChecker, LostRmwUpdateIsFlagged) {
  // Two unsynchronized fetch&adds of 1: the later RMW read must observe
  // the earlier one's new value.
  auto make = [] {
    ProgramBuilder b;
    b.li(2, 1);
    b.fetch_add(1, ProgramBuilder::abs(0x10), 2);
    b.halt();
    return b.build();
  };
  std::vector<Program> progs = {make(), make()};
  std::vector<std::vector<AccessRecord>> ok_logs = {
      {rec(1, 1, 0x10, AccessKind::kRmw, SyncKind::kNone, 0, 10)},
      {rec(1, 1, 0x10, AccessKind::kRmw, SyncKind::kNone, 1, 20)},
  };
  EXPECT_TRUE(check_execution(CM::kSC, progs, ok_logs).ok());
  std::vector<std::vector<AccessRecord>> lost = ok_logs;
  lost[1][0].value = 0;  // P1's read pretends P0's increment never happened
  CheckResult r = check_execution(CM::kSC, progs, lost);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, CheckViolation::Kind::kReadValue);
}

TEST(ModelChecker, MaxViolationsTruncatesReporting) {
  ProgramBuilder b;
  for (int i = 0; i < 4; ++i) b.store(0, ProgramBuilder::abs(0x10 + 4 * i));
  b.halt();
  std::vector<Program> progs = {b.build()};
  // Four stores performing in exactly reverse program order: six
  // backwards store->store arcs under SC.
  std::vector<std::vector<AccessRecord>> logs = {{
      rec(1, 0, 0x10, AccessKind::kStore, SyncKind::kNone, 0, 40),
      rec(2, 1, 0x14, AccessKind::kStore, SyncKind::kNone, 0, 30),
      rec(3, 2, 0x18, AccessKind::kStore, SyncKind::kNone, 0, 20),
      rec(4, 3, 0x1c, AccessKind::kStore, SyncKind::kNone, 0, 10),
  }};
  CheckResult r = check_execution(CM::kSC, progs, logs, /*max_violations=*/2);
  EXPECT_EQ(r.violations.size(), 2u);
}

TEST(ModelChecker, ProcessorCountMismatchIsRejected) {
  std::vector<Program> progs = sb_programs();
  CheckResult r = check_execution(CM::kSC, progs, {{}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.violations[0].kind, CheckViolation::Kind::kReplayMismatch);
}

TEST(ModelChecker, ClassesOfCoversTheFigure1Alphabet) {
  auto classes = [](AccessKind k, SyncKind s) {
    const sva::AccessClasses c = classes_of(k, s);
    return std::vector<AccessClass>(c.begin(), c.end());
  };
  EXPECT_EQ(classes(AccessKind::kLoad, SyncKind::kNone),
            (std::vector<AccessClass>{AccessClass::kLoad}));
  EXPECT_EQ(classes(AccessKind::kLoad, SyncKind::kAcquire),
            (std::vector<AccessClass>{AccessClass::kAcquire}));
  EXPECT_EQ(classes(AccessKind::kStore, SyncKind::kNone),
            (std::vector<AccessClass>{AccessClass::kStore}));
  EXPECT_EQ(classes(AccessKind::kStore, SyncKind::kRelease),
            (std::vector<AccessClass>{AccessClass::kRelease}));
  EXPECT_EQ(classes(AccessKind::kRmw, SyncKind::kNone),
            (std::vector<AccessClass>{AccessClass::kLoad, AccessClass::kStore}));
  EXPECT_EQ(classes(AccessKind::kRmw, SyncKind::kAcquire),
            (std::vector<AccessClass>{AccessClass::kAcquire, AccessClass::kStore}));
  EXPECT_EQ(classes(AccessKind::kRmw, SyncKind::kRelease),
            (std::vector<AccessClass>{AccessClass::kLoad, AccessClass::kRelease}));
}

}  // namespace
}  // namespace mcsim
