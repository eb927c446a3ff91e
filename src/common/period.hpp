// Periodic state: the support behind a spinning core's sleep (see
// Core::settle and docs/INTERNALS.md §2, "Periodic cores").
//
// A core spinning on a cached flag recomputes, every loop iteration, the
// state it already had one iteration earlier — shifted: every dynamic
// instruction id (seq) and cache request token is larger by a fixed
// amount, and every cycle stamp by the period. Counters grow by a fixed
// amount. PeriodWalk is one walk over all of that state, tagged value by
// value with how it moves, used two ways: recording appends each value
// to a Record, so two records a period apart can be compared exactly
// (fit_state, fit_counters); shifting advances each value by k periods
// in place, which is how a sleeping core is settled in O(state) rather
// than O(k).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mcsim {

class PeriodWalk {
 public:
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
    void clear() {
      values.clear();
      kinds.clear();
    }
  };

  /// One period's movement: a seq, token or cycle value at or above
  /// from[kind] moves by by[kind]; a value below it stays.
  struct Shift {
    std::array<std::uint64_t, kMovingKinds> from{};
    std::array<std::uint64_t, kMovingKinds> by{};
  };

  static PeriodWalk recorder(Record& out) {
    out.clear();
    PeriodWalk w;
    w.out_ = &out;
    return w;
  }
  /// Advance `periods` periods: moving values by `shift`, counter i (in
  /// walk order, every call counted) by periods * deltas[i].
  static PeriodWalk shifter(const Shift& shift, std::uint64_t periods,
                            std::span<const std::uint64_t> deltas) {
    PeriodWalk w;
    w.shift_ = shift;
    w.periods_ = periods;
    w.deltas_ = deltas;
    return w;
  }

  bool recording() const { return out_ != nullptr; }

  template <typename T>
  void plain(const T& v) {
    if (out_ != nullptr) push(static_cast<std::uint64_t>(v), Kind::kPlain);
    ++pos_;
  }
  void seq(std::uint64_t& v) { moving(v, Kind::kSeq); }
  void token(std::uint64_t& v) { moving(v, Kind::kToken); }
  void cycle(std::uint64_t& v) { moving(v, Kind::kCycle); }
  void counter(std::uint64_t& v) {
    if (out_ != nullptr)
      push(v, Kind::kCounter);
    else
      v += periods_ * deltas_[pos_];
    ++pos_;
  }

  /// Does `b` equal `a` moved by one period of `shift.by`? Plain values
  /// must be equal; a moving value either stays or moves by exactly its
  /// kind's `by`, and every value that stays must be below every value
  /// that moves, so one threshold per kind separates them. On success
  /// sets shift.from to the smallest moved value in `b`. A state walk
  /// records no counters (a counter here must simply repeat).
  static bool fit_state(const Record& a, const Record& b, Shift& shift);

  /// Did every counter grow by the same amount from c0 to c1 as from c1
  /// to c2, with the plain values of c1 and c2 equal? On success
  /// `deltas` holds the c1 -> c2 growth per walk position (0 for a
  /// plain value).
  static bool fit_counters(const Record& c0, const Record& c1, const Record& c2,
                           std::vector<std::uint64_t>& deltas);

 private:
  PeriodWalk() = default;

  void push(std::uint64_t v, Kind k) {
    out_->values.push_back(v);
    out_->kinds.push_back(k);
  }
  void moving(std::uint64_t& v, Kind k) {
    const auto i = static_cast<std::size_t>(k);
    if (out_ != nullptr)
      push(v, k);
    else if (v != kNone && v >= shift_.from[i])
      v += periods_ * shift_.by[i];
    ++pos_;
  }

  Record* out_ = nullptr;
  Shift shift_{};
  std::uint64_t periods_ = 0;
  std::span<const std::uint64_t> deltas_;
  std::size_t pos_ = 0;
};

/// The records one probe needs: counters at three period boundaries,
/// state at the last two. A machine lends them to one probing core at
/// a time, so memory follows the cores probing at once, not all cores.
struct PeriodRecords {
  PeriodWalk::Record counters[3];
  PeriodWalk::Record state[2];
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
