// The periodic-sleep walkers (common/period.hpp) against a reference:
// the comparers must accept exactly what recording both periods and
// fitting the two records accepts, and the shifter must compose. The
// reference records each value with its kind; the walkers keep values
// only, so a change of shape must show in a plain value (a size, a flag,
// an id) that the walk visits before what it governs.
#include "common/period.hpp"

#include <gtest/gtest.h>

#include <random>

#include "common/stats.hpp"

namespace mcsim {
namespace {

/// The reference's kinds: the moving ones in PeriodWalk::Moving's order.
enum class Kind : std::uint8_t { kSeq, kToken, kCycle, kPlain, kCounter };
using Shift = PeriodWalk::Shift;
constexpr std::uint64_t kNone = PeriodWalk::kNone;

/// The reference's record: values in walk order, each with its kind.
struct Record {
  std::vector<std::uint64_t> values;
  std::vector<Kind> kinds;
};

/// A walker that keeps each value's kind, for the reference.
class KindRecorder {
 public:
  static constexpr bool stopped() { return false; }
  explicit KindRecorder(Record& out) : out_(out) {}
  template <typename T>
  void plain(const T& v) { push(static_cast<std::uint64_t>(v), Kind::kPlain); }
  void seq(std::uint64_t v) { push(v, Kind::kSeq); }
  void token(std::uint64_t v) { push(v, Kind::kToken); }
  void cycle(std::uint64_t v) { push(v, Kind::kCycle); }
  void counter(std::uint64_t v) { push(v, Kind::kCounter); }

 private:
  void push(std::uint64_t v, Kind k) {
    out_.values.push_back(v);
    out_.kinds.push_back(k);
  }
  Record& out_;
};

std::vector<std::uint64_t> values(const PeriodWalk::Record& r) {
  return {r.data.get(), r.data.get() + r.size};
}

// ---- reference: fit two complete records ---------------------------

/// Does `b` equal `a` moved by one period of shift.by? On success sets
/// shift.from to the smallest moved value of each kind.
bool ref_fit_state(const Record& a, const Record& b, Shift& shift) {
  if (a.kinds != b.kinds) return false;
  std::array<std::uint64_t, PeriodWalk::kMovingKinds> min_moved;
  min_moved.fill(kNone);
  std::array<std::uint64_t, PeriodWalk::kMovingKinds> max_stayed{};
  std::array<bool, PeriodWalk::kMovingKinds> stayed{};
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    const std::uint64_t va = a.values[i];
    const std::uint64_t vb = b.values[i];
    const Kind kind = a.kinds[i];
    if (kind == Kind::kPlain || kind == Kind::kCounter || va == kNone) {
      if (va != vb) return false;
      continue;
    }
    const auto k = static_cast<std::size_t>(kind);
    if (shift.by[k] != 0 && vb == va + shift.by[k]) {
      min_moved[k] = std::min(min_moved[k], vb);
    } else if (vb == va) {
      max_stayed[k] = std::max(max_stayed[k], va);
      stayed[k] = true;
    } else {
      return false;
    }
  }
  for (std::size_t k = 0; k < PeriodWalk::kMovingKinds; ++k) {
    if (stayed[k] && min_moved[k] != kNone && max_stayed[k] >= min_moved[k] - shift.by[k])
      return false;
    shift.from[k] = min_moved[k];
  }
  return true;
}

/// Did every counter grow by the same amount from c0 to c1 as from c1
/// to c2, with the plain values of c0, c1 and c2 equal? On success
/// `deltas` holds the c1 -> c2 growth per walk position (0 for a plain
/// value).
bool ref_fit_counters(const Record& c0, const Record& c1, const Record& c2,
                      std::vector<std::uint64_t>& deltas) {
  if (c0.kinds != c1.kinds || c1.kinds != c2.kinds) return false;
  deltas.assign(c1.values.size(), 0);
  for (std::size_t i = 0; i < c1.values.size(); ++i) {
    if (c1.kinds[i] != Kind::kCounter) {
      if (c0.values[i] != c1.values[i] || c1.values[i] != c2.values[i]) return false;
      continue;
    }
    const std::uint64_t d = c2.values[i] - c1.values[i];
    if (c1.values[i] < c0.values[i] || c2.values[i] < c1.values[i] ||
        c1.values[i] - c0.values[i] != d)
      return false;
    deltas[i] = d;
  }
  return true;
}

// ---- driving a walker over a record's values ------------------------

/// Visit r's values in order, each through its kind's walker call, as a
/// component's walk() would.
template <typename Walk>
void walk(Walk& w, Record& r) {
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    std::uint64_t& v = r.values[i];
    switch (r.kinds[i]) {
      case Kind::kPlain:
        w.plain(v);
        break;
      case Kind::kSeq:
        if constexpr (requires { w.seq(v); }) w.seq(v);
        break;
      case Kind::kToken:
        if constexpr (requires { w.token(v); }) w.token(v);
        break;
      case Kind::kCycle:
        if constexpr (requires { w.cycle(v); }) w.cycle(v);
        break;
      case Kind::kCounter:
        if constexpr (requires { w.counter(v); }) w.counter(v);
        break;
    }
  }
}

/// The walker's record of `r`: its values only.
PeriodWalk::Record record(Record r) {
  PeriodWalk::Record out;
  {
    PeriodWalk::Recorder rec(out);
    walk(rec, r);
  }
  EXPECT_EQ(values(out), r.values);
  return out;
}

bool compare_state(const Record& s1, Record s2, const std::array<std::uint64_t, 3>& by,
                   Shift& shift) {
  const PeriodWalk::Record r1 = record(s1);
  PeriodWalk::StateComparer c(r1, by);
  walk(c, s2);
  return c.finish(shift);
}

bool compare_counters(const Record& c0, const Record& c1, Record c2,
                      std::vector<std::uint64_t>& deltas) {
  const PeriodWalk::Record r0 = record(c0), r1 = record(c1);
  PeriodWalk::CounterComparer c(r0, r1, deltas);
  walk(c, c2);
  return c.finish();
}

// ---- random record pairs -------------------------------------------

struct StatePair {
  Record s1, s2;
  std::array<std::uint64_t, 3> by{};
};

bool is_moving(Kind k) { return k == Kind::kSeq || k == Kind::kToken || k == Kind::kCycle; }

/// A state and its image one period on: each moving value at or above
/// its kind's threshold moves by `by`, the rest (and kNone) stay.
StatePair random_state(std::mt19937_64& rng) {
  StatePair p;
  std::array<std::uint64_t, 3> from{};
  for (std::size_t k = 0; k < 3; ++k) {
    p.by[k] = rng() % 6;  // 0: nothing of this kind may move
    from[k] = rng() % 1000;
  }
  const std::size_t n = rng() % 60;
  for (std::size_t i = 0; i < n; ++i) {
    const auto kind = static_cast<Kind>(rng() % 4);  // no counters in a state walk
    std::uint64_t a = rng() % 2000;
    std::uint64_t b = a;
    if (is_moving(kind)) {
      const auto k = static_cast<std::size_t>(kind);
      if (rng() % 8 == 0) {
        a = b = kNone;
      } else if (a >= from[k]) {
        b = a + p.by[k];
      }
    }
    p.s1.values.push_back(a);
    p.s1.kinds.push_back(kind);
    p.s2.values.push_back(b);
    p.s2.kinds.push_back(kind);
  }
  return p;
}

/// Positions of s1 whose kind satisfies `pred`.
template <typename Pred>
std::vector<std::size_t> positions(const Record& r, Pred pred) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    if (pred(i)) out.push_back(i);
  }
  return out;
}

enum class StateMutation {
  kNone,
  kPlainDiffers,
  kWrongDelta,
  kStayedAboveMoved,
  kNoneMoves,
  kExtraValue,
  kMissingValue,
};

/// Apply `m` to the pair; false if the pair has no place for it.
bool mutate(StatePair& p, StateMutation m, std::mt19937_64& rng) {
  Record& a = p.s1;
  Record& b = p.s2;
  const auto pick = [&rng](const std::vector<std::size_t>& v) { return v[rng() % v.size()]; };
  switch (m) {
    case StateMutation::kNone:
      return true;
    case StateMutation::kPlainDiffers: {
      const auto at = positions(a, [&](std::size_t i) { return a.kinds[i] == Kind::kPlain; });
      if (at.empty()) return false;
      ++b.values[pick(at)];
      return true;
    }
    case StateMutation::kWrongDelta: {
      const auto at = positions(
          a, [&](std::size_t i) { return is_moving(a.kinds[i]) && a.values[i] != kNone; });
      if (at.empty()) return false;
      const std::size_t i = pick(at);
      b.values[i] = a.values[i] + p.by[static_cast<std::size_t>(a.kinds[i])] + 1 + rng() % 3;
      return true;
    }
    case StateMutation::kStayedAboveMoved: {
      // A value of a kind that moved stays, at or above a moved one.
      const auto moved = positions(a, [&](std::size_t i) {
        return is_moving(a.kinds[i]) && a.values[i] != kNone && b.values[i] != a.values[i];
      });
      if (moved.empty()) return false;
      const std::size_t i = pick(moved);
      const std::uint64_t v = a.values[i] + rng() % 3;
      for (Record* r : {&a, &b}) {
        r->values.push_back(v);
        r->kinds.push_back(a.kinds[i]);
      }
      return true;
    }
    case StateMutation::kNoneMoves: {
      const auto at = positions(a, [&](std::size_t i) { return is_moving(a.kinds[i]); });
      if (at.empty()) return false;
      const std::size_t i = pick(at);
      a.values[i] = kNone;
      b.values[i] = kNone + 1 + rng() % 5;  // wraps: as if moved by a small Δ
      return true;
    }
    case StateMutation::kExtraValue:
      b.values.push_back(rng() % 2000);
      b.kinds.push_back(static_cast<Kind>(rng() % 4));
      return true;
    case StateMutation::kMissingValue:
      if (b.values.empty()) return false;
      b.values.pop_back();
      b.kinds.pop_back();
      return true;
  }
  return false;
}

class StateComparerVsFit : public ::testing::TestWithParam<StateMutation> {};

TEST_P(StateComparerVsFit, AgreesOnRandomPairs) {
  const StateMutation m = GetParam();
  std::mt19937_64 rng(0x5eed + static_cast<int>(m));
  int tried = 0, accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    StatePair p = random_state(rng);
    if (!mutate(p, m, rng)) continue;
    ++tried;
    Shift want;
    want.by = p.by;
    const bool ref = ref_fit_state(p.s1, p.s2, want);
    Shift got;
    const bool ok = compare_state(p.s1, p.s2, p.by, got);
    ASSERT_EQ(ok, ref) << "iteration " << iter;
    if (ok) {
      ++accepted;
      EXPECT_EQ(got.from, want.from) << "iteration " << iter;
    }
  }
  EXPECT_GT(tried, 1000);
  // Every mutation breaks periodicity; the unmutated pairs are periodic.
  if (m == StateMutation::kNone)
    EXPECT_EQ(accepted, tried);
  else
    EXPECT_EQ(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Mutations, StateComparerVsFit,
                         ::testing::Values(StateMutation::kNone, StateMutation::kPlainDiffers,
                                           StateMutation::kWrongDelta,
                                           StateMutation::kStayedAboveMoved,
                                           StateMutation::kNoneMoves, StateMutation::kExtraValue,
                                           StateMutation::kMissingValue));

TEST(StateComparer, FindsTheThreshold) {
  Record s1{{5, 7, kNone, 3, 42}, {Kind::kSeq, Kind::kSeq, Kind::kSeq, Kind::kCycle, Kind::kPlain}};
  Record s2{{5, 9, kNone, 4, 42}, s1.kinds};
  Shift shift;
  ASSERT_TRUE(compare_state(s1, s2, {2, 0, 1}, shift));
  EXPECT_EQ(shift.from[0], 9u);     // 5 stayed, 7 moved to 9
  EXPECT_EQ(shift.from[1], kNone);  // no token
  EXPECT_EQ(shift.from[2], 4u);
  // A stayed seq at or above a moved one leaves no threshold.
  s1.values[0] = s2.values[0] = 7;
  EXPECT_FALSE(compare_state(s1, s2, {2, 0, 1}, shift));
}

TEST(Recorder, GrowsItsBufferOnlyWhenAWalkOutgrowsIt) {
  PeriodWalk::Record r;
  std::vector<std::uint64_t> want;
  {
    PeriodWalk::Recorder rec(r);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      rec.seq(3 * i);
      want.push_back(3 * i);
    }
  }
  EXPECT_EQ(values(r), want);
  EXPECT_GE(r.capacity, 1000u);
  const std::uint64_t* buffer = r.data.get();
  {
    PeriodWalk::Recorder rec(r);
    rec.plain(7);
  }
  EXPECT_EQ(values(r), std::vector<std::uint64_t>{7});
  EXPECT_EQ(r.data.get(), buffer);  // reused, not reallocated
}

// ---- shape changes --------------------------------------------------

/// A core-like state whose walk describes its own shape the way the
/// components' walks do: a size before a list (the ROB), a terminator
/// after a chain (an entry's consumers, as Core's kNoNode), a flag
/// before the fields it governs (an MSHR's `valid`). Its plain values
/// are small, so they often equal a seq or a cycle stamp.
struct ToyState {
  static constexpr std::uint64_t kEnd = ~0u;
  struct Entry {
    std::uint64_t seq = 0;
    std::uint64_t value = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> consumers;  ///< operand, seq
  };
  struct Mshr {
    bool valid = false;
    std::uint64_t line = 0;
    std::uint64_t alloc_at = 0;
  };
  std::vector<Entry> rob;
  std::array<Mshr, 4> mshrs;

  template <typename Walk>
  void walk(Walk& w) {
    w.plain(rob.size());
    for (Entry& e : rob) {
      w.seq(e.seq);
      w.plain(e.value);
      for (auto& [operand, consumer] : e.consumers) {
        w.plain(operand);
        w.seq(consumer);
      }
      w.plain(kEnd);
    }
    for (Mshr& m : mshrs) {
      w.plain(m.valid);
      if (!m.valid) continue;
      w.plain(m.line);
      w.cycle(m.alloc_at);
    }
  }
};

struct ToyPair {
  ToyState s1, s2;
  std::array<std::uint64_t, 3> by{};
};

ToyState::Entry random_entry(std::uint64_t seq, std::mt19937_64& rng) {
  ToyState::Entry e;
  e.seq = seq;
  e.value = rng() % 4;
  for (std::size_t n = rng() % 3; n > 0; --n) e.consumers.emplace_back(rng() % 3, seq + 1 + n);
  return e;
}

/// A toy state and its image a period on: every seq moves by by[kSeq];
/// the MSHRs' stamps lie in the past and stay.
ToyPair random_toy(std::mt19937_64& rng) {
  ToyPair p;
  p.by = {1 + rng() % 4, 0, 1 + rng() % 4};
  std::uint64_t seq = rng() % 4;
  for (std::size_t n = rng() % 5; n > 0; --n) {
    p.s1.rob.push_back(random_entry(seq, rng));
    seq += 1 + rng() % 3;
  }
  for (ToyState::Mshr& m : p.s1.mshrs) m = {rng() % 2 == 0, rng() % 4, rng() % 4};
  p.s2 = p.s1;
  for (ToyState::Entry& e : p.s2.rob) {
    e.seq += p.by[0];
    for (auto& c : e.consumers) c.second += p.by[0];
  }
  return p;
}

enum class ShapeChange { kNone, kExtraRobEntry, kLongerChain, kMshrValidFlips };

/// Apply `m` to S2; false if the pair has no place for it.
bool change_shape(ToyPair& p, ShapeChange m, std::mt19937_64& rng) {
  std::vector<ToyState::Entry>& rob = p.s2.rob;
  switch (m) {
    case ShapeChange::kNone:
      return true;
    case ShapeChange::kExtraRobEntry:
      rob.push_back(random_entry(rob.empty() ? p.by[0] : rob.back().seq + 1, rng));
      return true;
    case ShapeChange::kLongerChain: {
      if (rob.empty()) return false;
      ToyState::Entry& e = rob[rng() % rob.size()];
      e.consumers.emplace_back(rng() % 3, e.seq + 1);
      return true;
    }
    case ShapeChange::kMshrValidFlips: {
      ToyState::Mshr& m = p.s2.mshrs[rng() % p.s2.mshrs.size()];
      m.valid = !m.valid;
      return true;
    }
  }
  return false;
}

class StateComparerShape : public ::testing::TestWithParam<ShapeChange> {};

TEST_P(StateComparerShape, AgreesWithTheKindedReference) {
  const ShapeChange m = GetParam();
  std::mt19937_64 rng(0x5a9e + static_cast<int>(m));
  int tried = 0, accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    ToyPair p = random_toy(rng);
    if (!change_shape(p, m, rng)) continue;
    ++tried;
    Record ref1, ref2;
    KindRecorder k1(ref1), k2(ref2);
    p.s1.walk(k1);
    p.s2.walk(k2);
    Shift want;
    want.by = p.by;
    const bool ref = ref_fit_state(ref1, ref2, want);
    PeriodWalk::Record s1;
    {
      PeriodWalk::Recorder rec(s1);
      p.s1.walk(rec);
    }
    PeriodWalk::StateComparer cmp(s1, p.by);
    p.s2.walk(cmp);
    Shift got;
    const bool ok = cmp.finish(got);
    ASSERT_EQ(ok, ref) << "iteration " << iter;
    if (ok) {
      ++accepted;
      EXPECT_EQ(got.from, want.from) << "iteration " << iter;
    }
  }
  EXPECT_GT(tried, 1000);
  if (m == ShapeChange::kNone)
    EXPECT_EQ(accepted, tried);
  else
    EXPECT_EQ(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Changes, StateComparerShape,
                         ::testing::Values(ShapeChange::kNone, ShapeChange::kExtraRobEntry,
                                           ShapeChange::kLongerChain,
                                           ShapeChange::kMshrValidFlips));

TEST(StateComparer, StopsAtTheFirstMismatch) {
  Record s1{{4, 1, 2}, {Kind::kPlain, Kind::kSeq, Kind::kPlain}};
  Record s2{{5, 1, 2}, s1.kinds};
  const PeriodWalk::Record r1 = record(s1);
  PeriodWalk::StateComparer cmp(r1, {0, 0, 0});
  cmp.plain(s2.values[0]);
  EXPECT_TRUE(cmp.stopped());
  Shift shift;
  EXPECT_FALSE(cmp.finish(shift));
}

// ---- counters -------------------------------------------------------

struct CounterTriple {
  Record c0, c1, c2;
};

void push(Record& r, std::uint64_t v, Kind k) {
  r.values.push_back(v);
  r.kinds.push_back(k);
}

/// Counters as StatSet::walk visits them — their number, id, value
/// pairs, then a trailing plain value (a histogram's max) — growing
/// equally per period.
CounterTriple random_counters(std::mt19937_64& rng) {
  CounterTriple t;
  const std::size_t n = rng() % 30;
  for (Record* r : {&t.c0, &t.c1, &t.c2}) push(*r, n, Kind::kPlain);
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    id += 1 + rng() % 4;
    const std::uint64_t v = rng() % 1000;
    const std::uint64_t d = rng() % 4 == 0 ? 0 : rng() % 10;
    for (Record* r : {&t.c0, &t.c1, &t.c2}) push(*r, id, Kind::kPlain);
    push(t.c0, v, Kind::kCounter);
    push(t.c1, v + d, Kind::kCounter);
    push(t.c2, v + 2 * d, Kind::kCounter);
  }
  const std::uint64_t max = rng() % 100;
  for (Record* r : {&t.c0, &t.c1, &t.c2}) push(*r, max, Kind::kPlain);
  return t;
}

enum class CounterMutation {
  kNone,
  kUnequalGrowth,
  kDecreases,
  kPlainDiffers,
  kPlainDiffersAtS0,  ///< e.g. a histogram's max rose from S0 to S1 only
  kTouchedAfterS0,    ///< a new counter appears in c1 and c2
  kTouchedAfterS1,  ///< a new counter appears in c2 only
};

bool mutate(CounterTriple& t, CounterMutation m, std::mt19937_64& rng) {
  const auto counters =
      positions(t.c1, [&](std::size_t i) { return t.c1.kinds[i] == Kind::kCounter; });
  const auto pick = [&rng](const std::vector<std::size_t>& v) { return v[rng() % v.size()]; };
  switch (m) {
    case CounterMutation::kNone:
      return true;
    case CounterMutation::kUnequalGrowth:
      if (counters.empty()) return false;
      t.c2.values[pick(counters)] += 1 + rng() % 3;
      return true;
    case CounterMutation::kDecreases: {
      if (counters.empty()) return false;
      const std::size_t i = pick(counters);
      const std::uint64_t variant = rng() % 3;
      if (variant == 0) {
        t.c2.values[i] = t.c1.values[i]++;  // falls by one from c1 to c2
      } else if (variant == 1) {
        // Grows by the same amount twice, the second time past 2^64.
        t.c0.values[i] = 0;
        t.c1.values[i] = (1ull << 63) + rng() % 1000;
        t.c2.values[i] = 2 * t.c1.values[i];
      } else {
        // Falls from c0 to c1, then grows by the same amount modulo
        // 2^64 without wrapping (every value is below 2000).
        t.c0.values[i] = t.c1.values[i] + 2000;
        t.c2.values[i] = t.c1.values[i] - 2000;
      }
      return true;
    }
    case CounterMutation::kPlainDiffers:
      ++t.c2.values.back();
      return true;
    case CounterMutation::kPlainDiffersAtS0: {
      const auto plains =
          positions(t.c0, [&](std::size_t i) { return t.c0.kinds[i] == Kind::kPlain; });
      t.c0.values[pick(plains)] -= 1 + rng() % 3;
      return true;
    }
    case CounterMutation::kTouchedAfterS0:
    case CounterMutation::kTouchedAfterS1: {
      // Insert an (id, value) pair at a pair boundary; the count grows.
      const std::size_t pairs = (t.c2.values.size() - 2) / 2;
      const std::size_t at = 1 + 2 * (rng() % (pairs + 1));
      std::vector<Record*> grown{&t.c2};
      if (m == CounterMutation::kTouchedAfterS0) grown.push_back(&t.c1);
      for (Record* r : grown) {
        ++r->values[0];
        r->values.insert(r->values.begin() + at, {1000 + at, 1});
        r->kinds.insert(r->kinds.begin() + at, {Kind::kPlain, Kind::kCounter});
      }
      return true;
    }
  }
  return false;
}

class CounterComparerVsFit : public ::testing::TestWithParam<CounterMutation> {};

TEST_P(CounterComparerVsFit, AgreesOnRandomTriples) {
  const CounterMutation m = GetParam();
  std::mt19937_64 rng(0xc0ffee + static_cast<int>(m));
  int tried = 0, accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    CounterTriple t = random_counters(rng);
    if (!mutate(t, m, rng)) continue;
    ++tried;
    std::vector<std::uint64_t> want;
    const bool ref = ref_fit_counters(t.c0, t.c1, t.c2, want);
    std::vector<std::uint64_t> got;
    const bool ok = compare_counters(t.c0, t.c1, t.c2, got);
    ASSERT_EQ(ok, ref) << "iteration " << iter;
    if (!ok) continue;
    ++accepted;
    // The comparer keeps a delta per counter, the reference per position.
    std::vector<std::uint64_t> want_counters;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (t.c1.kinds[i] == Kind::kCounter) want_counters.push_back(want[i]);
    }
    EXPECT_EQ(got, want_counters) << "iteration " << iter;
  }
  EXPECT_GT(tried, 1000);
  if (m == CounterMutation::kNone)
    EXPECT_EQ(accepted, tried);
  else
    EXPECT_EQ(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Mutations, CounterComparerVsFit,
                         ::testing::Values(CounterMutation::kNone, CounterMutation::kUnequalGrowth,
                                           CounterMutation::kDecreases,
                                           CounterMutation::kPlainDiffers,
                                           CounterMutation::kPlainDiffersAtS0,
                                           CounterMutation::kTouchedAfterS0,
                                           CounterMutation::kTouchedAfterS1));

TEST(CounterComparer, WalksAStatSetsTouchedCounters) {
  const StatId a = StatNames::intern("period_test.a");
  const StatId b = StatNames::intern("period_test.b");
  const StatId c = StatNames::intern("period_test.c");
  StatSet s("x");
  s.add(b, 5);  // touched out of id order: the walk still visits a, b
  s.add(a, 1);
  s.sample("period_test.lat", 3);
  const auto step = [&] {
    s.add(a, 2);
    s.add(b, 1);
    s.sample("period_test.lat", 3);
  };
  const auto rec = [&s](PeriodWalk::Record& r) {
    PeriodWalk::Recorder w(r);
    s.walk(w);
  };
  PeriodWalk::Record c0, c1;
  rec(c0);
  ASSERT_GE(c0.size, 5u);
  EXPECT_EQ(c0.data[0], 2u);  // the number of touched counters first
  EXPECT_EQ(c0.data[1], a.value());
  EXPECT_EQ(c0.data[3], b.value());
  step();
  rec(c1);
  step();
  std::vector<std::uint64_t> deltas;
  PeriodWalk::CounterComparer same(c0, c1, deltas);
  s.walk(same);
  ASSERT_TRUE(same.finish());
  ASSERT_GE(deltas.size(), 2u);
  EXPECT_EQ(deltas[0], 2u);
  EXPECT_EQ(deltas[1], 1u);

  // A counter touched since the records changes the walk's shape.
  s.add(c);
  PeriodWalk::CounterComparer grown(c0, c1, deltas);
  s.walk(grown);
  EXPECT_TRUE(grown.stopped());
  EXPECT_FALSE(grown.finish());

  // clear() forgets what was touched.
  s.clear();
  PeriodWalk::Record empty;
  rec(empty);
  // No counters, no samples; the buffer is reused, not shrunk.
  EXPECT_EQ(values(empty), (std::vector<std::uint64_t>{0, 0}));
}

TEST(CounterComparer, RejectsACounterFirstTouchedBetweenS0AndS1) {
  const StatId a = StatNames::intern("period_test.a");
  const StatId late = StatNames::intern("period_test.late");
  StatSet s("x");
  s.add(a);
  const auto rec = [&s](PeriodWalk::Record& r) {
    PeriodWalk::Recorder w(r);
    s.walk(w);
  };
  PeriodWalk::Record c0, c1;
  rec(c0);
  s.add(a);
  s.add(late);  // first touched after S0, then grows like `a`
  rec(c1);
  s.add(a);
  s.add(late);
  std::vector<std::uint64_t> deltas;
  PeriodWalk::CounterComparer cmp(c0, c1, deltas);
  s.walk(cmp);
  EXPECT_FALSE(cmp.finish());
  // Even with c0 padded to c1's length, c0's count of touched counters
  // differs from c1's, and a plain value of c0 must equal c1's.
  PeriodWalk::Record padded;
  {
    PeriodWalk::Recorder w(padded);
    for (std::uint64_t v : values(c0)) w.plain(v);
    for (std::size_t i = c0.size; i < c1.size; ++i) w.plain(0);
  }
  PeriodWalk::CounterComparer cmp2(padded, c1, deltas);
  s.walk(cmp2);
  EXPECT_FALSE(cmp2.finish());
}

// ---- the shifter ----------------------------------------------------

TEST(Shifter, OneShiftByKPeriodsIsKShiftsByOne) {
  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    Record r;
    std::vector<std::uint64_t> deltas;
    const std::size_t n = rng() % 50;
    for (std::size_t i = 0; i < n; ++i) {
      const auto kind = static_cast<Kind>(rng() % 5);
      push(r, rng() % 8 == 0 && is_moving(kind) ? kNone : rng() % 2000, kind);
      if (kind == Kind::kCounter) deltas.push_back(rng() % 7);
    }
    Shift shift;
    for (std::size_t k = 0; k < 3; ++k) {
      shift.by[k] = rng() % 6;
      shift.from[k] = rng() % 4 == 0 ? kNone : rng() % 1000;
    }
    const std::uint64_t periods = 1 + rng() % 9;
    Record once = r;
    PeriodWalk::Shifter jump(shift, periods, deltas);
    walk(jump, once);
    Record stepped = r;
    for (std::uint64_t p = 0; p < periods; ++p) {
      PeriodWalk::Shifter one(shift, 1, deltas);
      walk(one, stepped);
    }
    ASSERT_EQ(once.values, stepped.values) << "iteration " << iter;
  }
}

TEST(Shifter, ContinuesAComparedPeriod) {
  std::mt19937_64 rng(78);
  for (int iter = 0; iter < 500; ++iter) {
    StatePair p = random_state(rng);
    const Record& s1 = p.s1;
    Shift shift;
    ASSERT_TRUE(compare_state(s1, p.s2, p.by, shift)) << "iteration " << iter;
    // Shifting S2 by the threshold found moves exactly what moved from
    // S1 to S2, by the same amount, and the comparer accepts the result.
    shift.by = p.by;
    Record s3 = p.s2;
    PeriodWalk::Shifter one(shift, 1, {});
    walk(one, s3);
    for (std::size_t i = 0; i < s3.values.size(); ++i)
      ASSERT_EQ(s3.values[i] - p.s2.values[i], p.s2.values[i] - s1.values[i]) << iter;
    Shift again;
    EXPECT_TRUE(compare_state(p.s2, s3, p.by, again)) << "iteration " << iter;
  }
}

}  // namespace
}  // namespace mcsim
