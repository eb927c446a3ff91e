// Periodic state: the support behind a spinning core's sleep (see
// Core::settle and docs/INTERNALS.md §2, "Periodic cores").
//
// A core spinning on a cached flag recomputes, every loop iteration, the
// state it already had one iteration earlier — shifted: every dynamic
// instruction id (seq) and cache request token is larger by a fixed
// amount, and every cycle stamp by the period. Counters grow by a fixed
// amount. A component's walk(w), a template on the walker, visits all
// of that state, each value through the call that names how it moves.
// Recorder stores a period's values, and only the values;
// StateComparer and CounterComparer check the next period against that
// record as they visit it, so it is never stored;
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
  /// The kinds of value that move by a fixed Δ per period, as indices: a
  /// dynamic instruction id (seq), a cache request token, a cycle stamp.
  enum Moving : std::size_t { kSeq, kToken, kCycle, kMovingKinds };
  /// All-ones is every moving kind's "none" (kNoProducer, kNoTag,
  /// kCycleNever); it never moves.
  static constexpr std::uint64_t kNone = ~0ull;

  /// Values in walk order, no kinds: a walk visits every size, flag or id
  /// that decides what it visits next as a plain value first, so records
  /// of one length whose plain values match have the same shape. The
  /// buffer is kept across probes, grows only when a walk outgrows it
  /// and is never zero-filled.
  struct Record {
    std::unique_ptr<std::uint64_t[]> data;
    std::size_t size = 0;
    std::size_t capacity = 0;
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

class PeriodWalk::Recorder {
 public:
  static constexpr bool stopped() { return false; }
  explicit Recorder(Record& out) : out_(out), cur_(out.data.get()), end_(cur_ + out.capacity) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder() { out_.size = static_cast<std::size_t>(cur_ - out_.data.get()); }
  template <typename T>
  void plain(const T& v) { push(static_cast<std::uint64_t>(v)); }
  void seq(std::uint64_t v) { push(v); }
  void token(std::uint64_t v) { push(v); }
  void cycle(std::uint64_t v) { push(v); }
  void counter(std::uint64_t v) { push(v); }

 private:
  void push(std::uint64_t v) {
    if (cur_ == end_) [[unlikely]] grow();
    *cur_++ = v;
  }
  [[gnu::noinline]] void grow() {
    const auto used = static_cast<std::size_t>(cur_ - out_.data.get());
    out_.capacity = std::max<std::size_t>(256, 2 * out_.capacity);
    auto data = std::make_unique_for_overwrite<std::uint64_t[]>(out_.capacity);
    std::copy_n(out_.data.get(), used, data.get());
    out_.data = std::move(data);
    cur_ = out_.data.get() + used;
    end_ = out_.data.get() + out_.capacity;
  }

  Record& out_;
  std::uint64_t* cur_;
  std::uint64_t* end_;
};

/// The comparers' cursor over the Record they compare against. A
/// mismatch, or a visit past its end, stops the walk for good: once a
/// walker is stopped(), a walk may return early.
class PeriodWalk::Comparer {
 public:
  bool stopped() const { return stopped_; }

 protected:
  explicit Comparer(const Record& r) : begin_(r.data.get()), cur_(begin_), end_(begin_ + r.size) {}
  /// The next recorded value; past the end, nullptr.
  const std::uint64_t* next() {
    if (cur_ != end_) [[likely]] return cur_++;
    stop();
    return nullptr;
  }
  void stop() {
    stopped_ = true;
    end_ = cur_;
  }
  bool matched() const { return !stopped_ && cur_ == end_; }

  const std::uint64_t* begin_;
  const std::uint64_t* cur_;
  const std::uint64_t* end_;
  bool stopped_ = false;
};

/// Is the live state one period after `s1` equal to `s1` moved by one
/// period of `by`? Plain values must be equal; a moving value either
/// stays or moves by exactly its kind's `by`, and every value that stays
/// must be below every value that moves, so one threshold per kind
/// separates them. kNone never moves.
class PeriodWalk::StateComparer : public Comparer {
 public:
  StateComparer(const Record& s1, const std::array<std::uint64_t, kMovingKinds>& by)
      : Comparer(s1), by_(by) {}
  template <typename T>
  void plain(const T& v) {
    const std::uint64_t* a = next();
    if (a != nullptr && *a != static_cast<std::uint64_t>(v)) stop();
  }
  void seq(std::uint64_t v) { moving<kSeq>(v); }
  void token(std::uint64_t v) { moving<kToken>(v); }
  void cycle(std::uint64_t v) { moving<kCycle>(v); }

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
  template <std::size_t K>
  void moving(std::uint64_t v) {
    const std::uint64_t* a = next();
    if (a == nullptr) return;
    if (*a == kNone) {
      if (v != *a) stop();
    } else if (by_[K] != 0 && v == *a + by_[K]) {
      min_moved_[K] = std::min(min_moved_[K], v);
    } else if (v == *a) {
      stayed_end_[K] = std::max(stayed_end_[K], *a + 1);
    } else {
      stop();
    }
  }

  std::array<std::uint64_t, kMovingKinds> by_;
  std::array<std::uint64_t, kMovingKinds> min_moved_{kNone, kNone, kNone};
  std::array<std::uint64_t, kMovingKinds> stayed_end_{};  ///< 1 + largest stayed; 0: none
};

/// Did every live counter grow by the same amount since `c1` as from
/// `c0` to `c1`, never falling, with the plain values equal in all three
/// (so `c0` has the shape of `c1`)? Appends each counter's growth since
/// `c1`, in walk order, to `deltas` (cleared first).
class PeriodWalk::CounterComparer : public Comparer {
 public:
  CounterComparer(const Record& c0, const Record& c1, std::vector<std::uint64_t>& deltas)
      : Comparer(c1), c0_(c0.data.get()), deltas_(deltas) {
    deltas.clear();
    if (c0.size != c1.size) stop();
  }
  template <typename T>
  void plain(const T& v) {
    const std::uint64_t* a = next();
    if (a != nullptr && (*a != static_cast<std::uint64_t>(v) || at_c0(a) != *a)) stop();
  }
  void counter(std::uint64_t v) {
    const std::uint64_t* a = next();
    if (a == nullptr) return;
    const std::uint64_t v0 = at_c0(a), v1 = *a, d = v - v1;
    if (v1 < v0 || v < v1 || v1 - v0 != d) return stop();
    deltas_.push_back(d);
  }
  bool finish() const { return matched(); }

 private:
  /// c0's value at the position of c1's `a`.
  std::uint64_t at_c0(const std::uint64_t* a) const { return c0_[a - begin_]; }

  const std::uint64_t* c0_;
  std::vector<std::uint64_t>& deltas_;
};

/// Advance `periods` periods: each seq, token and cycle value at or
/// above its kind's threshold by `periods` times its Δ, counter i (in
/// walk order) by periods * deltas[i]. Plain values stay.
class PeriodWalk::Shifter {
 public:
  static constexpr bool stopped() { return false; }
  Shifter(const Shift& shift, std::uint64_t periods, std::span<const std::uint64_t> deltas)
      : from_(shift.from), periods_(periods), deltas_(deltas) {
    for (std::size_t k = 0; k < kMovingKinds; ++k) step_[k] = periods * shift.by[k];
  }
  template <typename T>
  void plain(const T&) {}
  void seq(std::uint64_t& v) { moving<kSeq>(v); }
  void token(std::uint64_t& v) { moving<kToken>(v); }
  void cycle(std::uint64_t& v) { moving<kCycle>(v); }
  void counter(std::uint64_t& v) {
    assert(pos_ < deltas_.size() && "the counters' shape changed since the probe");
    v += periods_ * deltas_[pos_++];
  }

 private:
  template <std::size_t K>
  void moving(std::uint64_t& v) {
    // from_ is kNone for a kind of which nothing moved; kNone stays.
    if (v != kNone && v >= from_[K]) v += step_[K];
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
