// Bounded FIFO over a circular buffer with stable indices for iteration.
//
// Hardware structures in the simulator (reorder buffer, store buffer,
// speculative-load buffer, MSHR files...) are fixed-capacity FIFOs that
// are also scanned associatively; this container supports both uses.
// Its storage is taken once, at construction: a block of its own, or a
// part of its owner's slab (common/slab.hpp). A slot's element is
// constructed the first time the ring reaches it, so capacity that is
// never used costs no construction time and its memory stays untouched.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>

#include "common/slab.hpp"

namespace mcsim {

template <typename T>
class FixedQueue {
 public:
  explicit FixedQueue(std::size_t capacity) : capacity_(capacity), slots_(capacity) {}
  FixedQueue(std::size_t capacity, Slab& slab) : capacity_(capacity), slots_(capacity, slab) {}

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Push to the tail. Caller must check !full().
  T& push(T value) {
    assert(!full());
    // Until every slot is constructed the tail never wraps, and it is at
    // most one past the last constructed slot.
    const std::size_t pos = wrap(head_ + size_);
    assert(pos <= slots_.size());
    ++size_;
    if (pos == slots_.size()) return slots_.emplace_back(std::move(value));
    return slots_[pos] = std::move(value);
  }

  /// Pop from the head. Caller must check !empty().
  T pop() {
    assert(!empty());
    T out = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return out;
  }

  T& front() {
    assert(!empty());
    return slots_[head_];
  }
  const T& front() const {
    assert(!empty());
    return slots_[head_];
  }
  T& back() {
    assert(!empty());
    return at(size_ - 1);
  }
  const T& back() const {
    assert(!empty());
    return at(size_ - 1);
  }

  /// i-th element from the head (0 == head). Caller must check i < size().
  T& at(std::size_t i) {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }
  const T& at(std::size_t i) const {
    assert(i < size_);
    return slots_[wrap(head_ + i)];
  }

  /// Remove the i-th element from the head (entries that complete out
  /// of order), shifting the shorter side by one place: the older
  /// elements toward the tail, or the younger ones toward the head. So
  /// erasing the head is O(1). Either way the tail never moves outward,
  /// so the slots up to it stay constructed. Caller must check i < size().
  void erase_at(std::size_t i) {
    assert(i < size_);
    if (i < size_ - 1 - i) {
      for (std::size_t j = i; j > 0; --j) at(j) = std::move(at(j - 1));
      head_ = wrap(head_ + 1);
    } else {
      for (std::size_t j = i + 1; j < size_; ++j) at(j - 1) = std::move(at(j));
    }
    --size_;
  }

  /// Drop the newest n elements (used by pipeline squash).
  void pop_back_n(std::size_t n) {
    assert(n <= size_);
    size_ -= n;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Slot of ring position p, for p < 2 * capacity (head + offset).
  std::size_t wrap(std::size_t p) const { return p < capacity_ ? p : p - capacity_; }

  std::size_t capacity_;
  SlabVector<T> slots_;  ///< never fills past capacity_, so never moves
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcsim
