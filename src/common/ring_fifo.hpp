// Growable FIFO over a power-of-two circular buffer.
//
// The event queues on the contended path (the crossbar's delivery
// lanes, a directory line's wait queue) are FIFOs whose depth is not
// known up front. A std::deque allocates and frees a block every few
// elements as the window slides; this ring grows by doubling and then
// keeps its buffer, so steady traffic allocates nothing, clear() keeps
// the capacity for reuse, and moving or swapping a whole queue is O(1).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace mcsim {

template <typename T>
class RingFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    assert(!empty());
    return buf_[head_];
  }
  const T& front() const {
    assert(!empty());
    return buf_[head_];
  }
  const T& back() const {
    assert(!empty());
    return (*this)[size_ - 1];
  }
  /// i-th element from the head (0 == front). Caller checks i < size().
  T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    assert(!empty());
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

  /// Drop every element; the buffer is kept for reuse.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;  ///< capacity is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcsim
