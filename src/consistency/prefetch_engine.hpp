// Hardware-controlled non-binding prefetch engine (paper §3).
//
// The load/store unit offers the line address of every address-ready
// access that is *delayed by consistency constraints*; the engine
// buffers them (the §3.2 "prefetch buffer"), deduplicates by line, and
// retires one prefetch per cycle into the cache whenever the port is
// free. Read prefetches for loads, read-exclusive prefetches for
// stores and RMWs.
//
// Non-binding: the line lands in the coherent cache, so correctness is
// never affected. Under an update-based protocol read-exclusive
// prefetches are impossible (§3.1) and exclusive offers are dropped.
// Binding mode exists only for the §6 related-work ablation: the
// engine then refuses any offer for an access the consistency model
// has not already cleared — which is exactly why binding prefetch
// cannot help.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "coherence/cache.hpp"

namespace mcsim {

class PrefetchEngine {
 public:
  /// The buffer from `arena`.
  PrefetchEngine(PrefetchMode mode, CoherenceKind protocol, std::size_t capacity,
                 std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : mode_(mode), protocol_(protocol), queue_(capacity, arena) {}

  PrefetchMode mode() const { return mode_; }
  bool enabled() const { return mode_ != PrefetchMode::kOff; }
  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Offer a delayed access's target line. `exclusive` selects a
  /// read-exclusive prefetch. `allowed_now` tells the engine whether
  /// the access could already issue under the consistency model — a
  /// binding prefetcher may only act in that case. Returns true if the
  /// offer was queued (callers use this to offer each access once).
  bool offer(Addr line, bool exclusive, bool allowed_now, StatSet& stats);

  /// Software-prefetch instructions bypass the mode check (they are
  /// explicit program requests), but still respect the protocol rule.
  bool offer_software(Addr line, bool exclusive, StatSet& stats);

  /// Retire at most one prefetch into the cache. Call only when the
  /// cache port is free. Returns true if a probe was made.
  bool drain(CoherentCache& cache, Cycle now);

  void clear() { queue_.clear(); }

  /// Visit the queued prefetches for a PeriodWalk.
  template <typename Walk>
  void walk(Walk& w) const {
    w.plain(queue_.size());
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      w.plain(queue_.at(i).line);
      w.plain(queue_.at(i).exclusive);
    }
  }

 private:
  struct Pending {
    Addr line;
    bool exclusive;
  };

  bool enqueue(Addr line, bool exclusive);

  PrefetchMode mode_;
  CoherenceKind protocol_;
  /// The §3.2 prefetch buffer. Software prefetches queue here even with
  /// the hardware engine off, so it exists in every mode.
  FixedQueue<Pending> queue_;
};

}  // namespace mcsim
