// Periodic state: the support behind a spinning core's sleep (see
// Core::settle and docs/INTERNALS.md §2, "Periodic cores").
//
// A core spinning on a cached flag recomputes, every loop iteration, the
// state it already had one iteration earlier — shifted: every dynamic
// instruction id (seq) and cache request token is larger by a fixed
// amount, and every cycle stamp by the period. Counters grow by a fixed
// amount. A component's walk(w), a template on the walker, visits all
// of that state, each value tagged with how it moves. Recorder stores a
// period's values; StateComparer and CounterComparer check the next
// period against that record as they visit it, so it is never stored;
// Shifter advances each value by k periods in place, which is how a
// sleeping core is settled in O(state) rather than O(k).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mcsim {

struct PeriodWalk {
  /// How a value moves from one period to the next.
  enum class Kind : std::uint8_t {
    kSeq,      ///< dynamic instruction id
    kToken,    ///< cache request token
    kCycle,    ///< cycle stamp
    kPlain,    ///< repeats exactly
    kCounter,  ///< statistic: grows by the same amount every period
  };
  static constexpr std::size_t kMovingKinds = 3;  ///< kSeq, kToken, kCycle
  /// All-ones is every moving kind's "none" (kNoProducer, kNoTag,
  /// kCycleNever); it never moves.
  static constexpr std::uint64_t kNone = ~0ull;

  /// Values in walk order, each with its kind.
  struct Record {
    std::vector<std::uint64_t> values;
    std::vector<Kind> kinds;
  };

  /// One period's movement: a seq, token or cycle value at or above
  /// from[kind] moves by by[kind]; a value below it stays.
  struct Shift {
    std::array<std::uint64_t, kMovingKinds> from{};
    std::array<std::uint64_t, kMovingKinds> by{};
  };

  class Recorder;
  class Comparer;
  class StateComparer;
  class CounterComparer;
  class Shifter;
};

// Every walker's kCompared is true if its values are compared across
// periods, so state whose order is never observed (the LSU's in-flight
// tokens) must be visited in a canonical order.

class PeriodWalk::Recorder {
 public:
  static constexpr bool kCompared = true;
  explicit Recorder(Record& out) : out_(out) {
    out.values.clear();
    out.kinds.clear();
  }
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

/// The comparers' cursor over the Record they compare against: a visit
/// of the wrong kind, or past its end, fails the walk, and after a
/// failure every visit fails at once.
class PeriodWalk::Comparer {
 public:
  static constexpr bool kCompared = true;
  template <typename T>
  void plain(const T& v) {
    const std::uint64_t* a = next(Kind::kPlain);
    if (a != nullptr && *a != static_cast<std::uint64_t>(v)) fail();
  }

 protected:
  Comparer(const Record& r, bool ok) : r_(r), size_(r.values.size()) {
    if (!ok) fail();
  }
  /// The next recorded value, if its kind is `k`.
  const std::uint64_t* next(Kind k) {
    if (pos_ < size_ && r_.kinds[pos_] == k) return &r_.values[pos_++];
    fail();
    return nullptr;
  }
  /// Past the end for good: every later visit fails, and so does matched().
  void fail() {
    size_ = 0;
    pos_ = 1;
  }
  bool matched() const { return pos_ == size_; }

  const Record& r_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Is the live state one period after `s1` equal to `s1` moved by one
/// period of `by`? Plain values must be equal; a moving value either
/// stays or moves by exactly its kind's `by`, and every value that stays
/// must be below every value that moves, so one threshold per kind
/// separates them. kNone never moves, and the kinds must repeat.
class PeriodWalk::StateComparer : public Comparer {
 public:
  StateComparer(const Record& s1, const std::array<std::uint64_t, kMovingKinds>& by)
      : Comparer(s1, true), by_(by) {}
  void seq(std::uint64_t v) { moving<Kind::kSeq>(v); }
  void token(std::uint64_t v) { moving<Kind::kToken>(v); }
  void cycle(std::uint64_t v) { moving<Kind::kCycle>(v); }

  /// Did the walk match all of `s1`? On success sets shift.from to the
  /// smallest moved value of each kind (kNone if none moved).
  bool finish(Shift& shift) const {
    if (!matched()) return false;
    for (std::size_t k = 0; k < kMovingKinds; ++k) {
      // What stays must lie below what moves (compared in `s1`, where the
      // moved values had not moved yet), or no threshold separates them.
      if (min_moved_[k] != kNone && stayed_end_[k] > min_moved_[k] - by_[k]) return false;
    }
    shift.from = min_moved_;
    return true;
  }

 private:
  template <Kind K>
  void moving(std::uint64_t v) {
    constexpr auto k = static_cast<std::size_t>(K);
    const std::uint64_t* a = next(K);
    if (a == nullptr) return;
    if (*a == kNone) {
      if (v != *a) fail();
    } else if (by_[k] != 0 && v == *a + by_[k]) {
      min_moved_[k] = std::min(min_moved_[k], v);
    } else if (v == *a) {
      stayed_end_[k] = std::max(stayed_end_[k], *a + 1);
    } else {
      fail();
    }
  }

  std::array<std::uint64_t, kMovingKinds> by_;
  std::array<std::uint64_t, kMovingKinds> min_moved_{kNone, kNone, kNone};
  std::array<std::uint64_t, kMovingKinds> stayed_end_{};  ///< 1 + largest stayed; 0: none
};

/// Did every live counter grow by the same amount since `c1` as from
/// `c0` to `c1`, never falling, with the plain values equal to `c1`'s
/// and the kinds those of both records? Appends each counter's growth
/// since `c1`, in walk order, to `deltas` (cleared first).
class PeriodWalk::CounterComparer : public Comparer {
 public:
  CounterComparer(const Record& c0, const Record& c1, std::vector<std::uint64_t>& deltas)
      : Comparer(c1, c0.kinds == c1.kinds), c0_(c0.values.data()), deltas_(deltas) {
    deltas.clear();
  }
  void counter(std::uint64_t v) {
    const std::uint64_t* c1 = next(Kind::kCounter);
    if (c1 == nullptr) return;
    const std::uint64_t v0 = c0_[pos_ - 1], v1 = *c1;
    const std::uint64_t d = v - v1;
    if (v1 < v0 || v < v1 || v1 - v0 != d) return fail();
    deltas_.push_back(d);
  }
  bool finish() const { return matched(); }

 private:
  const std::uint64_t* c0_;
  std::vector<std::uint64_t>& deltas_;
};

/// Advance `periods` periods: each seq, token and cycle value at or
/// above its kind's threshold by `periods` times its Δ, counter i (in
/// walk order) by periods * deltas[i]. Plain values stay.
class PeriodWalk::Shifter {
 public:
  static constexpr bool kCompared = false;
  Shifter(const Shift& shift, std::uint64_t periods, std::span<const std::uint64_t> deltas)
      : from_(shift.from), periods_(periods), deltas_(deltas) {
    for (std::size_t k = 0; k < kMovingKinds; ++k) step_[k] = periods * shift.by[k];
  }
  template <typename T>
  void plain(const T&) {}
  void seq(std::uint64_t& v) { moving<Kind::kSeq>(v); }
  void token(std::uint64_t& v) { moving<Kind::kToken>(v); }
  void cycle(std::uint64_t& v) { moving<Kind::kCycle>(v); }
  void counter(std::uint64_t& v) {
    assert(pos_ < deltas_.size() && "the counters' shape changed since the probe");
    v += periods_ * deltas_[pos_++];
  }

 private:
  template <Kind K>
  void moving(std::uint64_t& v) {
    // from_ is kNone for a kind of which nothing moved; kNone stays.
    if (v != kNone && v >= from_[static_cast<std::size_t>(K)])
      v += step_[static_cast<std::size_t>(K)];
  }

  std::array<std::uint64_t, kMovingKinds> from_;
  std::array<std::uint64_t, kMovingKinds> step_;
  std::uint64_t periods_;
  std::span<const std::uint64_t> deltas_;
  std::size_t pos_ = 0;
};

/// The records one probe needs: the counters at S0 and S1, the state at
/// S1 (S2 is compared live). A machine lends them to one probing core
/// at a time, so memory follows the cores probing at once, not all cores.
struct PeriodRecords {
  PeriodWalk::Record counters[2];
  PeriodWalk::Record state;
};

class PeriodRecordPool {
 public:
  std::unique_ptr<PeriodRecords> take() {
    if (free_.empty()) return std::make_unique<PeriodRecords>();
    std::unique_ptr<PeriodRecords> r = std::move(free_.back());
    free_.pop_back();
    return r;
  }
  void give(std::unique_ptr<PeriodRecords> r) { free_.push_back(std::move(r)); }

 private:
  std::vector<std::unique_ptr<PeriodRecords>> free_;
};

}  // namespace mcsim
