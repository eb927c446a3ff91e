#include "sim/sched.hpp"

namespace mcsim {

bool Scheduler::validate() const {
  // Heap property under the (cycle, id) order.
  for (std::uint32_t i = 1; i < heap_.size(); ++i) {
    if (before(heap_[i], heap_[(i - 1) / 2])) return false;
  }
  // Every heap slot is indexed, only armed components are indexed, and
  // every armed component outside the heap has exactly its own wheel
  // bit, inside [base, base + kWheelSlots).
  std::size_t in_heap = 0, in_wheel = 0;
  for (CompId c = 0; c < universe_; ++c) {
    const std::uint64_t mask = std::uint64_t{1} << (c % 64);
    std::uint32_t bits_set = 0;
    for (std::uint32_t s = 0; s < kWheelSlots; ++s) {
      if ((slot_bits(s)[c / 64] & mask) != 0) ++bits_set;
    }
    if (when_[c] == kCycleNever) {
      if (pos_[c] != kNotArmed || bits_set != 0) return false;
      continue;
    }
    if (pos_[c] != kNotArmed) {
      ++in_heap;
      if (pos_[c] >= heap_.size() || bits_set != 0) return false;
      const Slot& s = heap_[pos_[c]];
      if (s.comp != c || s.at != when_[c]) return false;
      continue;
    }
    ++in_wheel;
    if (when_[c] < base_ || when_[c] - base_ >= kWheelSlots) return false;
    if (bits_set != 1 || (slot_bits(slot_of(when_[c]))[c / 64] & mask) == 0) return false;
  }
  if (in_heap != heap_.size() || in_wheel != in_wheel_) return false;
  // Per-slot counts, the occupancy word, and the first-word hints.
  for (std::uint32_t s = 0; s < kWheelSlots; ++s) {
    std::uint32_t n = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      n += static_cast<std::uint32_t>(std::popcount(slot_bits(s)[w]));
      if (slot_bits(s)[w] != 0 && w < first_word_[s]) return false;
    }
    if (n != count_[s]) return false;
    if (((occupied_ >> s) & 1) != (n != 0 ? 1u : 0u)) return false;
  }
  return true;
}

}  // namespace mcsim
