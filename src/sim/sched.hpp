// Active-set scheduler over a dense, fixed universe of component ids,
// popped in (cycle, id) order.
//
// Every machine component (network, directory bank, cache, core)
// holds AT MOST ONE armed wakeup at a time; arm() overwrites any
// previous arming for the same component, and arming at kCycleNever
// cancels it. The (cycle, id) key order makes pop order within one
// cycle reproduce the naive loop's fixed stage order exactly, as long
// as ids are assigned in stage order (network < directory banks <
// caches < cores — see Machine's id scheme).
//
// Two structures hold the armings:
//
//  * a calendar wheel of kWheelSlots one-cycle slots covering
//    [base, base + kWheelSlots), where `base` is the latest cycle
//    popped so far. Each slot is a bitset over the universe plus a
//    count, and one occupancy word marks the non-empty slots. Arming
//    sets one bit; the earliest slot is a rotate plus a count-trailing-
//    zeros of the occupancy word; and the lowest set bit of that slot
//    is the lowest id due then, so same-cycle pops come out in id
//    order without a comparison;
//  * an indexed binary min-heap keyed by (cycle, id), for every other
//    arming: more than kWheelSlots - 1 cycles ahead, or below `base`
//    (only unit tests arm into the past).
//
// pop()/top() take the smaller of the two candidates under (cycle,
// id), so the order is exactly the heap-only order. Every popped cycle
// is the global minimum, so no wheel arming is ever below a new base,
// and the slots never alias. At the machine's default configuration
// every arming lands in the wheel (at most net_latency + dir_latency
// cycles ahead), which makes arm and pop O(1).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory_resource>
#include <vector>

#include "common/types.hpp"

namespace mcsim {

class Scheduler {
 public:
  using CompId = std::uint32_t;
  static constexpr std::uint32_t kWheelSlots = 64;

  /// Every table is sized for `universe` components here, from `arena`.
  explicit Scheduler(std::size_t universe,
                     std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : universe_(universe),
        words_((universe + 63) / 64),
        heap_(arena),
        pos_(universe, kNotArmed, arena),
        when_(universe, kCycleNever, arena),
        bits_(words_ * kWheelSlots, 0, arena) {
    heap_.reserve(universe);
  }

  /// Drop every arming.
  void clear() {
    heap_.clear();
    std::fill(pos_.begin(), pos_.end(), kNotArmed);
    std::fill(when_.begin(), when_.end(), kCycleNever);
    std::fill(bits_.begin(), bits_.end(), 0);
    count_.fill(0);
    first_word_.fill(0);
    occupied_ = 0;
    in_wheel_ = 0;
    base_ = 0;
  }

  std::size_t universe() const { return universe_; }
  std::size_t armed_count() const { return heap_.size() + in_wheel_; }
  bool empty() const { return heap_.empty() && in_wheel_ == 0; }

  /// Set component `c`'s single wakeup to `at`, replacing any previous
  /// one; `at == kCycleNever` cancels the arming. Re-arming to the
  /// value already held is a no-op.
  void arm(CompId c, Cycle at) {
    assert(c < universe_);
    const Cycle prev = when_[c];
    if (prev == at) return;
    when_[c] = at;
    const bool to_wheel = at != kCycleNever && at - base_ < kWheelSlots;
    if (prev != kCycleNever) {
      if (pos_[c] == kNotArmed) {
        wheel_clear(c, prev);
      } else if (at != kCycleNever && !to_wheel) {  // heap -> heap, in place
        const std::uint32_t i = pos_[c];
        heap_[i].at = at;
        if (at < prev) sift_up(i);
        else sift_down(i);
        return;
      } else {
        remove_at(pos_[c]);
        pos_[c] = kNotArmed;
      }
    }
    if (at == kCycleNever) return;
    if (to_wheel) {
      wheel_set(c, at);
      return;
    }
    pos_[c] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(Slot{at, c});
    sift_up(pos_[c]);
  }

  void cancel(CompId c) { arm(c, kCycleNever); }

  /// The cycle `c` is armed for; kCycleNever when unarmed.
  Cycle armed_at(CompId c) const {
    assert(c < universe_);
    return when_[c];
  }

  /// Earliest armed cycle across all components; kCycleNever when
  /// nothing is armed. O(1).
  Cycle next_cycle() const {
    const Cycle h = heap_.empty() ? kCycleNever : heap_.front().at;
    if (occupied_ == 0) return h;
    const Cycle w = wheel_next();
    return w < h ? w : h;
  }

  /// The component holding the earliest wakeup — ties broken by lowest
  /// id, which is the machine's stage order. Must be non-empty.
  CompId top() const {
    assert(!empty());
    if (occupied_ == 0) return heap_.front().comp;
    const Cycle w = wheel_next();
    const CompId wc = wheel_first(slot_of(w));
    if (!heap_.empty() && before(heap_.front(), Slot{w, wc})) return heap_.front().comp;
    return wc;
  }

  /// Structural self-check for tests: the heap property holds, the
  /// pos_/when_ indexes agree with the heap array, and the wheel's
  /// bits, counts and occupancy word agree with when_. O(universe).
  bool validate() const;

  /// Pop the top component; it becomes unarmed. Must be non-empty.
  CompId pop() {
    assert(!empty());
    CompId c = 0;
    Cycle at = kCycleNever;
    const bool wheel = occupied_ != 0;
    if (wheel) {
      at = wheel_next();
      c = wheel_first(slot_of(at));
    }
    if (!wheel || (!heap_.empty() && before(heap_.front(), Slot{at, c}))) {
      c = heap_.front().comp;
      at = heap_.front().at;
      pos_[c] = kNotArmed;
      remove_at(0);
    } else {
      wheel_clear(c, at);
    }
    when_[c] = kCycleNever;
    if (at > base_) base_ = at;
    return c;
  }

 private:
  struct Slot {
    Cycle at;
    CompId comp;
  };
  static constexpr std::uint32_t kNotArmed = 0xffffffffu;

  static bool before(const Slot& a, const Slot& b) {
    return a.at != b.at ? a.at < b.at : a.comp < b.comp;
  }

  static std::uint32_t slot_of(Cycle at) {
    return static_cast<std::uint32_t>(at & (kWheelSlots - 1));
  }
  std::uint64_t* slot_bits(std::uint32_t s) { return bits_.data() + s * words_; }
  const std::uint64_t* slot_bits(std::uint32_t s) const { return bits_.data() + s * words_; }

  /// Earliest occupied wheel cycle. Wheel must be non-empty.
  Cycle wheel_next() const {
    const std::uint32_t off = static_cast<std::uint32_t>(
        std::countr_zero(std::rotr(occupied_, static_cast<int>(slot_of(base_)))));
    return base_ + off;
  }

  /// Lowest id set in slot `s`, scanning from the slot's first
  /// possibly-non-zero word. Slot must be non-empty.
  CompId wheel_first(std::uint32_t s) const {
    const std::uint64_t* b = slot_bits(s);
    std::uint32_t w = first_word_[s];
    while (b[w] == 0) ++w;
    first_word_[s] = w;
    return w * 64 + static_cast<CompId>(std::countr_zero(b[w]));
  }

  void wheel_set(CompId c, Cycle at) {
    const std::uint32_t s = slot_of(at);
    const std::uint32_t w = c / 64;
    slot_bits(s)[w] |= std::uint64_t{1} << (c % 64);
    if (count_[s]++ == 0) {
      occupied_ |= std::uint64_t{1} << s;
      first_word_[s] = w;
    } else if (w < first_word_[s]) {
      first_word_[s] = w;
    }
    ++in_wheel_;
  }

  void wheel_clear(CompId c, Cycle at) {
    const std::uint32_t s = slot_of(at);
    slot_bits(s)[c / 64] &= ~(std::uint64_t{1} << (c % 64));
    if (--count_[s] == 0) occupied_ &= ~(std::uint64_t{1} << s);
    --in_wheel_;
  }

  void place(std::uint32_t i, Slot s) {
    pos_[s.comp] = i;
    heap_[i] = s;
  }

  void sift_up(std::uint32_t i) {
    Slot s = heap_[i];
    while (i != 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(s, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, s);
  }

  void sift_down(std::uint32_t i) {
    Slot s = heap_[i];
    const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t kid = 2 * i + 1;
      if (kid >= n) break;
      if (kid + 1 < n && before(heap_[kid + 1], heap_[kid])) ++kid;
      if (!before(heap_[kid], s)) break;
      place(i, heap_[kid]);
      i = kid;
    }
    place(i, s);
  }

  /// Remove the slot at heap index `i` (caller fixes the victim's
  /// pos_/when_ beforehand).
  void remove_at(std::uint32_t i) {
    const Slot last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;  // removed the tail itself
    place(i, last);
    // The swapped-in slot may need to move either direction.
    if (i != 0 && before(heap_[i], heap_[(i - 1) / 2])) sift_up(i);
    else sift_down(i);
  }

  std::size_t universe_;
  std::size_t words_;                ///< 64-bit words per slot bitset

  // --- overflow heap -------------------------------------------------
  std::pmr::vector<Slot> heap_;      ///< reserved for every component
  std::pmr::vector<std::uint32_t> pos_;  ///< comp -> heap index, kNotArmed
  std::pmr::vector<Cycle> when_;     ///< comp -> armed cycle, kCycleNever

  // --- calendar wheel ------------------------------------------------
  std::pmr::vector<std::uint64_t> bits_;  ///< kWheelSlots bitsets, slot-major
  std::array<std::uint32_t, kWheelSlots> count_{};  ///< armings per slot
  /// Per slot, a word index at or below its lowest non-zero word.
  mutable std::array<std::uint32_t, kWheelSlots> first_word_{};
  std::uint64_t occupied_ = 0;       ///< bit s: slot s is non-empty
  std::size_t in_wheel_ = 0;
  Cycle base_ = 0;                   ///< latest popped cycle
};

}  // namespace mcsim
