// One heap block per component, carved into its config-sized buffers.
//
// A component sums Slab::bytes<T>(n) over its buffers, builds a Slab of
// that size at construction, and hands each buffer its part with
// take<T>(n) in declaration order; it asserts full() once its members
// are built, so a part counted but not taken, or taken but not counted,
// fails at the first construction. The slab hands out raw storage only.
//
// SlabVector is the contiguous container over such a part, or over a
// block of its own: filling it to the capacity it was built with
// allocates nothing and moves nothing, so it may hold objects others
// point at (a directory's banks). Only a vector of trivially copyable
// elements may outgrow that capacity: it then moves to a heap buffer of
// twice the size, once per doubling, and keeps it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace mcsim {

class Slab {
 public:
  static constexpr std::size_t kAlign = alignof(std::max_align_t);

  /// Bytes `n` T's occupy in a slab, padded so the next part is aligned.
  template <typename T>
  static constexpr std::size_t bytes(std::size_t n) {
    static_assert(alignof(T) <= kAlign, "a slab part is aligned to max_align_t");
    return (n * sizeof(T) + kAlign - 1) / kAlign * kAlign;
  }

  Slab() = default;
  explicit Slab(std::size_t bytes)
      : block_(bytes == 0 ? nullptr : std::make_unique_for_overwrite<std::byte[]>(bytes)),
        size_(bytes) {}

  /// Uninitialised room for `n` T's: the next part of the block.
  template <typename T>
  T* take(std::size_t n) {
    const std::size_t b = bytes<T>(n);
    assert(used_ + b <= size_ && "a slab handed out more than it was sized for");
    T* p = reinterpret_cast<T*>(block_.get() + used_);
    used_ += b;
    return p;
  }

  /// Every byte has been handed out.
  bool full() const { return used_ == size_; }

 private:
  std::unique_ptr<std::byte[]> block_;
  std::size_t size_ = 0;
  std::size_t used_ = 0;
};

template <typename T>
class SlabVector {
 public:
  /// Room for `capacity` in a block of its own, one allocation.
  explicit SlabVector(std::size_t capacity)
      : own_(Slab::bytes<T>(capacity)), items_(own_.take<T>(capacity)), capacity_(capacity) {}
  /// Room for `capacity` in a part of its owner's slab.
  SlabVector(std::size_t capacity, Slab& slab)
      : items_(slab.take<T>(capacity)), capacity_(capacity) {}
  ~SlabVector() { clear(); }
  SlabVector(const SlabVector&) = delete;
  SlabVector& operator=(const SlabVector&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  T* begin() { return items_; }
  T* end() { return items_ + size_; }
  const T* begin() const { return items_; }
  const T* end() const { return items_ + size_; }
  T& operator[](std::size_t i) {
    assert(i < size_);
    return items_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return items_[i];
  }
  T& front() {
    assert(!empty());
    return items_[0];
  }
  const T& front() const {
    assert(!empty());
    return items_[0];
  }
  T& back() {
    assert(!empty());
    return items_[size_ - 1];
  }

  /// Build an element at the end.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (full()) {
        const T v(std::forward<Args>(args)...);  // may refer into the buffer grow() frees
        grow(size_ + 1);
        return *std::construct_at(items_ + size_++, v);
      }
    }
    assert(!full() && "only trivially copyable elements may outgrow their capacity");
    T* p = std::construct_at(items_ + size_, std::forward<Args>(args)...);
    ++size_;
    return *p;
  }
  void push_back(const T& v) { emplace_back(v); }
  void pop_back() {
    assert(!empty());
    std::destroy_at(items_ + --size_);
  }

  /// Insert before `pos`, moving the later elements up one place.
  T* insert(T* pos, const T& v) {
    assert(pos >= begin() && pos <= end());
    const std::size_t i = static_cast<std::size_t>(pos - begin());
    if (i == size_) return &emplace_back(v);
    emplace_back(std::move(back()));
    std::move_backward(begin() + i, end() - 2, end() - 1);
    items_[i] = v;
    return begin() + i;
  }

  /// Remove [first, last), moving the later elements down.
  T* erase(T* first, T* last) {
    assert(begin() <= first && first <= last && last <= end());
    T* new_end = std::move(last, end(), first);
    std::destroy(new_end, end());
    size_ -= static_cast<std::size_t>(last - first);
    return first;
  }

  /// `n` copies of `v`, replacing the contents.
  void assign(std::size_t n, const T& v) {
    clear();
    if (n > capacity_) grow(n);
    std::uninitialized_fill_n(items_, n, v);
    size_ = n;
  }

  void clear() {
    std::destroy(begin(), end());
    size_ = 0;
  }

 private:
  /// Move to a heap buffer with room for at least `n` elements.
  void grow(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t capacity = std::max(n, 2 * capacity_);
    std::unique_ptr<T[]> heap = std::make_unique_for_overwrite<T[]>(capacity);
    std::copy(begin(), end(), heap.get());
    heap_ = std::move(heap);
    items_ = heap_.get();
    capacity_ = capacity;
  }

  Slab own_;
  T* items_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::unique_ptr<T[]> heap_;  ///< the buffer once it outgrew its first one
};

}  // namespace mcsim
