// SharerSet: the directory's per-line sharer tracking, generalized
// beyond the historical single-uint64_t bit-vector so the machine
// scales past 64 processors.
//
// Three encodings (DASH lineage), selected per MemConfig::dir_scheme:
//
//   full-map       one bit per processor, arbitrary P via a word array.
//                  Exact: candidates == true sharers.
//   limited-ptr    Dir_i_B: up to `pointers` explicit sharer ids; the
//                  (i+1)-th distinct sharer degrades the entry to
//                  BROADCAST (candidates = all processors) until the
//                  next clear().
//   coarse-vector  one bit per cluster of `cluster` processors; a bit
//                  covers every processor of its cluster.
//
// The invariant every encoding maintains is CONSERVATIVE SUPERSET: the
// candidate set always contains every true sharer. remove() drops a
// processor only where the encoding can do so precisely (full-map
// always; limited-ptr while not broadcasting); the coarse vector and a
// broadcasting limited-ptr entry keep the candidate instead. Spurious
// invalidations/updates to non-sharers are protocol-safe — caches
// acknowledge them for non-resident lines — so schemes trade fan-out
// traffic, never correctness.
//
// Iteration order is ascending processor id for every encoding
// (limited-ptr keeps its pointer list sorted), so message fan-out
// order — and therefore network timing — is deterministic and matches
// the historical bit-scan exactly where the encodings agree.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace mcsim {

/// The scheme knobs a SharerSet is built from (from MemConfig).
struct SharerSetParams {
  DirScheme scheme = DirScheme::kFullMap;
  std::uint32_t num_procs = 0;
  std::uint32_t pointers = 4;  ///< limited-ptr capacity before broadcast
  std::uint32_t cluster = 4;   ///< coarse-vector processors per bit

  static SharerSetParams from(const MemConfig& mem, std::uint32_t num_procs) {
    return SharerSetParams{mem.dir_scheme, num_procs, mem.dir_pointers,
                           mem.dir_cluster};
  }
};

class SharerSet {
 public:
  SharerSet() = default;
  explicit SharerSet(const SharerSetParams& p);

  /// Record `proc` as a sharer (candidate set grows to cover it).
  void add(ProcId proc);
  /// Precise removal where the encoding allows it; conservative no-op
  /// (candidate kept) for coarse bits and broadcasting entries.
  void remove(ProcId proc);
  /// Drop every candidate and any broadcast state.
  void clear();

  /// True when `proc` is a candidate (superset membership).
  bool test(ProcId proc) const;
  /// No candidates at all.
  bool empty() const;
  /// A limited-pointer entry that overflowed into broadcast mode.
  bool broadcasting() const { return broadcast_; }
  /// Number of candidate processors (coarse counts whole clusters,
  /// broadcast counts every processor).
  std::uint32_t count() const;
  /// Candidates other than `skip` (the fan-out size of an
  /// invalidation/update round requested by `skip`).
  std::uint32_t count_other(ProcId skip) const;

  /// Candidate bits for processors 0..63, as the historical uint64_t
  /// mask (introspection; exact for full-map machines with P <= 64).
  std::uint64_t low_mask() const;

  /// Visit every candidate in ascending processor order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit(static_cast<ProcId>(num_procs_), fn);  // skip id no proc has
  }
  /// Visit every candidate except `skip`, ascending (fan-out loops).
  template <typename Fn>
  void for_each_other(ProcId skip, Fn&& fn) const {
    visit(skip, fn);
  }

 private:
  template <typename Fn>
  void visit(ProcId skip, Fn&& fn) const;
  /// The bit words; up to 64 bits live inline, so a small machine's
  /// entry allocates nothing.
  std::span<std::uint64_t> words() {
    return nwords_ <= 1 ? std::span<std::uint64_t>(&word_, nwords_) : std::span(wide_);
  }
  std::span<const std::uint64_t> words() const {
    return nwords_ <= 1 ? std::span<const std::uint64_t>(&word_, nwords_) : std::span(wide_);
  }
  std::uint32_t cluster_of(ProcId p) const { return p / cluster_; }
  std::uint32_t cluster_procs(std::uint32_t c) const;
  bool any_bit() const;

  DirScheme scheme_ = DirScheme::kFullMap;
  std::uint32_t num_procs_ = 0;
  std::uint32_t cluster_ = 1;
  std::uint32_t max_ptrs_ = 0;
  bool broadcast_ = false;
  /// Full-map: one bit per processor. Coarse: one bit per cluster.
  /// None for limited-ptr. In word_ when one word holds them all, else
  /// in wide_.
  std::uint32_t nwords_ = 0;
  std::uint64_t word_ = 0;
  std::vector<std::uint64_t> wide_;
  /// Limited-ptr: sorted sharer ids (ascending), size <= max_ptrs_.
  std::vector<ProcId> ptrs_;
};

template <typename Fn>
void SharerSet::visit(ProcId skip, Fn&& fn) const {
  if (scheme_ == DirScheme::kLimitedPtr) {
    if (broadcast_) {
      for (ProcId p = 0; p < num_procs_; ++p)
        if (p != skip) fn(p);
    } else {
      for (ProcId p : ptrs_)
        if (p != skip) fn(p);
    }
    return;
  }
  const std::span<const std::uint64_t> bits = words();
  if (scheme_ == DirScheme::kCoarseVector) {
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const std::uint32_t c = static_cast<std::uint32_t>(w * 64) +
                                static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        const std::uint32_t lo = c * cluster_;
        const std::uint32_t hi = std::min(lo + cluster_, num_procs_);
        for (ProcId p = lo; p < hi; ++p)
          if (p != skip) fn(p);
      }
    }
    return;
  }
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const ProcId p = static_cast<ProcId>(w * 64) +
                       static_cast<ProcId>(std::countr_zero(word));
      word &= word - 1;
      if (p != skip) fn(p);
    }
  }
}

}  // namespace mcsim
