// Sparse word-addressed backing store for the simulated physical memory.
//
// The words live in 4 KiB pages, held in a hash keyed by page number. A
// page is allocated, zero-filled, on its first write; reading a page
// that was never written returns 0 and allocates nothing. Construction
// and destruction therefore cost O(pages written) whatever the size,
// and the table's size does not depend on it. A one-page memo makes a
// run of accesses to one page a compare. Pages are ordinary heap
// memory, so the sanitizers see them.
//
// Not safe for concurrent use, readers included: a read updates the memo.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "common/types.hpp"

namespace mcsim {

class FlatMemory {
 public:
  static constexpr std::uint64_t kPageBytes = 4096;
  static constexpr std::uint64_t kPageWords = kPageBytes / kWordBytes;
  static_assert(kPageBytes % kMaxLineBytes == 0, "a line never straddles a page");

  explicit FlatMemory(std::uint64_t bytes) : num_words_(bytes / kWordBytes) {}
  FlatMemory(const FlatMemory&) = delete;
  FlatMemory& operator=(const FlatMemory&) = delete;

  /// Out-of-range accesses throw std::out_of_range.
  Word read(Addr a) const {
    const std::uint64_t i = index(a);
    const Word* page = find_page(i / kPageWords);
    return page == nullptr ? 0 : page[i % kPageWords];
  }
  void write(Addr a, Word v) {
    const std::uint64_t i = index(a);
    page_for_write(i / kPageWords)[i % kPageWords] = v;
  }

  /// The out.size() consecutive words from `a`, with one page lookup.
  /// They must lie in one page, as a cache line always does.
  void read_words(Addr a, std::span<Word> out) const {
    const std::uint64_t i = span_index(a, out.size());
    const Word* page = find_page(i / kPageWords);
    if (page == nullptr)
      std::ranges::fill(out, Word{0});
    else
      std::copy_n(page + i % kPageWords, out.size(), out.begin());
  }
  void write_words(Addr a, std::span<const Word> in) {
    const std::uint64_t i = span_index(a, in.size());
    std::ranges::copy(in, page_for_write(i / kPageWords) + i % kPageWords);
  }

  std::uint64_t size_bytes() const { return num_words_ * kWordBytes; }
  /// Pages allocated so far: the pages ever written.
  std::size_t pages_allocated() const { return pages_.size(); }

 private:
  using Page = std::array<Word, kPageWords>;

  std::uint64_t index(Addr a) const {
    const std::uint64_t i = a / kWordBytes;
    if (i >= num_words_) throw std::out_of_range("FlatMemory: address out of range");
    return i;
  }
  /// index(a) after checking that all `n` words from `a` are in range.
  std::uint64_t span_index(Addr a, std::size_t n) const {
    assert(n > 0);
    const std::uint64_t i = index(a);
    index(a + (n - 1) * kWordBytes);
    assert(i / kPageWords == (i + n - 1) / kPageWords && "a word span straddles a page");
    return i;
  }
  /// Page `pn`'s words, or nullptr when it was never written.
  const Word* find_page(std::uint64_t pn) const {
    if (memo_ != nullptr && memo_page_ == pn) return memo_;
    const auto it = pages_.find(pn);
    if (it == pages_.end()) return nullptr;
    memo_page_ = pn;
    // The memo serves write() too; only non-const members write through it.
    memo_ = const_cast<Word*>(it->second.data());
    return memo_;
  }
  /// Page `pn`'s words, allocated zero-filled on first use.
  Word* page_for_write(std::uint64_t pn) {
    if (memo_ == nullptr || memo_page_ != pn) {
      // Nodes never move, so the memo survives a rehash.
      memo_page_ = pn;
      memo_ = pages_.try_emplace(pn).first->second.data();
    }
    return memo_;
  }

  std::uint64_t num_words_;
  std::unordered_map<std::uint64_t, Page> pages_;
  mutable std::uint64_t memo_page_ = 0;
  mutable Word* memo_ = nullptr;  ///< page memo_page_'s words, or nullptr
};

}  // namespace mcsim
