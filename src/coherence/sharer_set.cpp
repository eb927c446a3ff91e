#include "coherence/sharer_set.hpp"

#include <cassert>

namespace mcsim {

namespace {
std::size_t words_for(std::uint32_t bits) { return (bits + 63) / 64; }
}  // namespace

SharerSet::SharerSet(const SharerSetParams& p)
    : scheme_(p.scheme), num_procs_(p.num_procs) {
  switch (scheme_) {
    case DirScheme::kFullMap:
      cluster_ = 1;
      nwords_ = static_cast<std::uint32_t>(words_for(num_procs_));
      break;
    case DirScheme::kLimitedPtr:
      cluster_ = 1;
      max_ptrs_ = p.pointers;
      ptrs_.reserve(max_ptrs_);
      break;
    case DirScheme::kCoarseVector:
      cluster_ = p.cluster == 0 ? 1 : p.cluster;
      nwords_ = static_cast<std::uint32_t>(words_for((num_procs_ + cluster_ - 1) / cluster_));
      break;
  }
  if (nwords_ > 1) wide_.resize(nwords_, 0);
}

std::uint32_t SharerSet::cluster_procs(std::uint32_t c) const {
  const std::uint32_t lo = c * cluster_;
  return lo >= num_procs_ ? 0 : std::min(cluster_, num_procs_ - lo);
}

bool SharerSet::any_bit() const {
  for (std::uint64_t w : words())
    if (w != 0) return true;
  return false;
}

void SharerSet::add(ProcId proc) {
  assert(proc < num_procs_ && "sharer id out of range");
  switch (scheme_) {
    case DirScheme::kFullMap:
      words()[proc / 64] |= std::uint64_t{1} << (proc % 64);
      break;
    case DirScheme::kLimitedPtr: {
      if (broadcast_) return;
      auto it = std::lower_bound(ptrs_.begin(), ptrs_.end(), proc);
      if (it != ptrs_.end() && *it == proc) return;
      if (ptrs_.size() < max_ptrs_) {
        ptrs_.insert(it, proc);
      } else {
        // Dir_i_B overflow: the entry degrades to broadcast; explicit
        // pointers are no longer meaningful.
        broadcast_ = true;
        ptrs_.clear();
      }
      break;
    }
    case DirScheme::kCoarseVector: {
      const std::uint32_t c = cluster_of(proc);
      words()[c / 64] |= std::uint64_t{1} << (c % 64);
      break;
    }
  }
}

void SharerSet::remove(ProcId proc) {
  assert(proc < num_procs_ && "sharer id out of range");
  switch (scheme_) {
    case DirScheme::kFullMap:
      words()[proc / 64] &= ~(std::uint64_t{1} << (proc % 64));
      break;
    case DirScheme::kLimitedPtr: {
      if (broadcast_) return;  // conservative: keep every candidate
      auto it = std::lower_bound(ptrs_.begin(), ptrs_.end(), proc);
      if (it != ptrs_.end() && *it == proc) ptrs_.erase(it);
      break;
    }
    case DirScheme::kCoarseVector:
      // A cluster bit covers other processors too; dropping it could
      // lose a true sharer. Keep the candidate (conservative no-op).
      break;
  }
}

void SharerSet::clear() {
  broadcast_ = false;
  ptrs_.clear();
  for (std::uint64_t& w : words()) w = 0;
}

bool SharerSet::test(ProcId proc) const {
  if (proc >= num_procs_) return false;
  switch (scheme_) {
    case DirScheme::kFullMap:
      return (words()[proc / 64] >> (proc % 64)) & 1u;
    case DirScheme::kLimitedPtr:
      return broadcast_ || std::binary_search(ptrs_.begin(), ptrs_.end(), proc);
    case DirScheme::kCoarseVector: {
      const std::uint32_t c = cluster_of(proc);
      return (words()[c / 64] >> (c % 64)) & 1u;
    }
  }
  return false;
}

bool SharerSet::empty() const {
  if (scheme_ == DirScheme::kLimitedPtr) return !broadcast_ && ptrs_.empty();
  return !any_bit();
}

std::uint32_t SharerSet::count() const {
  switch (scheme_) {
    case DirScheme::kFullMap: {
      std::uint32_t n = 0;
      for (std::uint64_t w : words()) n += static_cast<std::uint32_t>(std::popcount(w));
      return n;
    }
    case DirScheme::kLimitedPtr:
      return broadcast_ ? num_procs_ : static_cast<std::uint32_t>(ptrs_.size());
    case DirScheme::kCoarseVector: {
      std::uint32_t n = 0;
      const std::span<const std::uint64_t> bits = words();
      for (std::size_t w = 0; w < bits.size(); ++w) {
        std::uint64_t word = bits[w];
        while (word != 0) {
          const std::uint32_t c = static_cast<std::uint32_t>(w * 64) +
                                  static_cast<std::uint32_t>(std::countr_zero(word));
          word &= word - 1;
          n += cluster_procs(c);
        }
      }
      return n;
    }
  }
  return 0;
}

std::uint32_t SharerSet::count_other(ProcId skip) const {
  const std::uint32_t n = count();
  return test(skip) ? n - 1 : n;
}

std::uint64_t SharerSet::low_mask() const {
  std::uint64_t mask = 0;
  for_each([&](ProcId p) {
    if (p < 64) mask |= std::uint64_t{1} << p;
  });
  return mask;
}

}  // namespace mcsim
