// FIFO over a circular buffer with stable indices for iteration.
//
// Hardware structures in the simulator (reorder buffer, store buffer,
// speculative-load buffer, MSHR files...) are fixed-capacity FIFOs that
// are also scanned associatively; this container supports both uses.
// Their owners check full() before every push, so the ring keeps the
// buffer it was built with. The event queues whose depth is not known
// up front (crossbar lanes, a directory line's wait queue) push without
// checking: a push into a full ring moves it to a buffer twice the size,
// once per doubling, and clear() keeps the capacity, so steady traffic
// allocates nothing.
//
// The buffer comes from the memory resource the ring is built with (its
// owner's arena, see docs/INTERNALS.md §1). A slot's element is
// constructed the first time the ring reaches it, so capacity that is
// never used costs no construction time and its memory stays untouched.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory_resource>
#include <utility>
#include <vector>

namespace mcsim {

template <typename T>
class FixedQueue {
 public:
  explicit FixedQueue(std::size_t capacity = 0,
                      std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : capacity_(capacity), slots_(arena) {
    slots_.reserve(capacity);
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Push to the tail; a full ring grows first.
  T& push(T value) {
    if (full()) grow();
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

  /// Drop every element; the buffer is kept for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Exchange contents in O(1). Both rings must draw from one resource:
  /// a polymorphic allocator does not travel with its buffer.
  void swap(FixedQueue& o) {
    assert(slots_.get_allocator() == o.slots_.get_allocator());
    slots_.swap(o.slots_);
    std::swap(capacity_, o.capacity_);
    std::swap(head_, o.head_);
    std::swap(size_, o.size_);
  }

 private:
  /// Slot of ring position p, for p < 2 * capacity (head + offset).
  std::size_t wrap(std::size_t p) const { return p < capacity_ ? p : p - capacity_; }

  /// Move to a buffer of twice the capacity (16 at first), in ring
  /// order from its first slot.
  void grow() {
    const std::size_t capacity = std::max<std::size_t>(16, 2 * capacity_);
    std::pmr::vector<T> next(slots_.get_allocator());
    next.reserve(capacity);
    for (std::size_t i = 0; i < size_; ++i) next.push_back(std::move(at(i)));
    slots_.swap(next);
    capacity_ = capacity;
    head_ = 0;
  }

  std::size_t capacity_;
  /// Reserved for capacity_ and never filled past it, so it moves only
  /// when grow() replaces it.
  std::pmr::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcsim
