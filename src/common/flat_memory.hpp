// Flat word-addressed backing store for the simulated physical memory.
//
// The words live in one anonymous private mapping. The kernel zero-fills
// its pages on first touch, so construction costs one mmap whatever the
// size, and pages a run never touches cost no resident memory.
#pragma once

#include <sys/mman.h>

#include <cstdint>
#include <new>
#include <stdexcept>

#include "common/types.hpp"

namespace mcsim {

class FlatMemory {
 public:
  explicit FlatMemory(std::uint64_t bytes) : num_words_(bytes / kWordBytes) {
    if (num_words_ == 0) return;
    void* p = ::mmap(nullptr, map_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    words_ = static_cast<Word*>(p);
  }
  ~FlatMemory() {
    if (words_ != nullptr) ::munmap(words_, map_bytes());
  }
  FlatMemory(const FlatMemory&) = delete;
  FlatMemory& operator=(const FlatMemory&) = delete;

  /// Out-of-range accesses throw std::out_of_range: the mapping is not
  /// guarded by the sanitizers, so this check is the only one.
  Word read(Addr a) const { return words_[index(a)]; }
  void write(Addr a, Word v) { words_[index(a)] = v; }
  std::uint64_t size_bytes() const { return num_words_ * kWordBytes; }

 private:
  std::uint64_t index(Addr a) const {
    const std::uint64_t i = a / kWordBytes;
    if (i >= num_words_) throw std::out_of_range("FlatMemory: address out of range");
    return i;
  }
  std::size_t map_bytes() const { return static_cast<std::size_t>(num_words_ * kWordBytes); }

  std::uint64_t num_words_;
  Word* words_ = nullptr;
};

}  // namespace mcsim
