// The speculative-load buffer (paper §4.2, Figure 4).
//
// One FIFO entry per load issued before the consistency model would
// allow it to perform. Fields per the paper: load address, `acq`
// (entry must stay until the load completes), `done` (load has
// completed), and `store tag` (the earlier store this load would have
// had to wait for; nullified when that store performs).
//
// Detection: invalidations, updates, and replacements reported by the
// cache are matched associatively against the addresses in the buffer.
// A match against a done entry means a possibly-consumed value is
// stale: the load and everything after it must be squashed and
// refetched. A match against a not-done entry merely forces the load
// to reissue (its initial return value will be dropped).
//
// Retirement: the head entry retires once its store tag is null and,
// if `acq` is set, the load has completed. FIFO retirement is what
// makes "all previous acquires completed" fall out for free.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/fixed_queue.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "coherence/types.hpp"

namespace mcsim {

class SpecLoadBuffer {
 public:
  static constexpr std::uint64_t kNoTag = ~0ull;

  struct Entry {
    std::uint64_t seq = 0;        ///< dynamic instruction id of the load
    Addr addr = 0;                ///< word address
    Addr line = 0;                ///< cache-line address (match granularity)
    bool acq = false;
    bool done = false;
    std::uint64_t store_tag = kNoTag;  ///< seq of the gating store, or kNoTag
    bool is_rmw_read = false;     ///< Appendix A read-exclusive entry
    bool nonspec = false;         ///< (re)issued with the issue gate open
    Word value = 0;               ///< speculated value once done
    Cycle done_at = 0;            ///< cycle the value bound (profiling: wasted work)
  };

  /// Storage from `arena`.
  explicit SpecLoadBuffer(std::size_t capacity,
                          std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : entries_(capacity, arena), reissue_(arena) {
    reissue_.reserve(capacity);
  }

  bool full() const { return entries_.full(); }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Loads issue oldest first, so entries arrive in seq order.
  void insert(const Entry& e) {
    assert((entries_.empty() || entries_.back().seq < e.seq) && "entries arrive in seq order");
    entries_.push(e);
  }

  /// The load (or RMW read) completed with `value` at cycle `now`.
  void mark_done(std::uint64_t seq, Word value, Cycle now = 0);

  /// A store with dynamic id `store_seq` performed: null out matching tags.
  void nullify_store_tag(std::uint64_t store_seq);

  /// Retire every ready head entry, calling `on_retire(entry)` for each
  /// in order; returns how many retired. The retirement instant is when
  /// a speculative load stops being speculative — coherence monitoring
  /// guarantees its value still equals the memory value now, which is
  /// what makes "as if it performed at retirement" the sound
  /// serialization point (not for a `nonspec` entry, which monitoring
  /// ignores). `may_retire(entry)` lets the owner veto a
  /// head entry whose delay condition lives outside the buffer — e.g. a
  /// WC sync load waiting on earlier plain accesses that hold no FIFO
  /// slot open.
  template <typename MayRetire, typename OnRetire>
  std::size_t retire_ready(MayRetire&& may_retire, OnRetire&& on_retire) {
    std::size_t n = 0;
    while (!entries_.empty()) {
      const Entry& head = entries_.front();
      if (head.store_tag != kNoTag) break;
      if (head.acq && !head.done) break;
      if (!may_retire(head)) break;
      on_retire(head);
      entries_.pop();
      ++n;
    }
    return n;
  }

  /// What the detection mechanism demands after a coherence transaction
  /// on `line`.
  /// `reissue` lives in the buffer (at most one seq per entry, so it
  /// never allocates) and is valid until the next on_line_event call.
  struct MatchResult {
    bool squash = false;
    std::uint64_t squash_seq = 0;           ///< oldest done (consumed) match
    std::span<const std::uint64_t> reissue; ///< not-done matches older than that
  };
  MatchResult on_line_event(LineEventKind kind, Addr line);

  /// Remove every entry with seq >= `seq` (pipeline squash). Returns
  /// how many entries were dropped.
  std::size_t squash_from(std::uint64_t seq);

  /// Reset a reissued load's entry: done cleared, value dropped.
  void mark_reissued(std::uint64_t seq);

  /// The load (re)issued at a moment the consistency model already
  /// allowed it to perform: it is no longer speculative, so the
  /// detection mechanism must leave it alone (its next return value
  /// binds exactly as a conventional blocking load's would). Without
  /// this, a contended line can starve the oldest load forever — every
  /// fill is discarded by a concurrent invalidation and reissued.
  void mark_nonspec(std::uint64_t seq);

  const Entry* find(std::uint64_t seq) const;

  /// Figure-5 style rendering: one "acq done st_tag addr" row per entry,
  /// head first.
  std::string dump() const;

  /// Structured rendering for deadlock post-mortems, head first.
  Json snapshot_json() const {
    Json arr = Json::array();
    for_each([&arr](const Entry& e) {
      Json j = Json::object();
      j.set("seq", Json::number(e.seq));
      j.set("addr", Json::number(static_cast<std::uint64_t>(e.addr)));
      j.set("acq", Json::boolean(e.acq));
      j.set("done", Json::boolean(e.done));
      if (e.store_tag != kNoTag) j.set("store_tag", Json::number(e.store_tag));
      if (e.is_rmw_read) j.set("rmw_read", Json::boolean(true));
      arr.push_back(std::move(j));
    });
    return arr;
  }

  /// Visit every entry for a PeriodWalk.
  template <typename Walk>
  void walk(Walk& w) {
    w.plain(entries_.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Entry& e = entries_.at(i);
      w.seq(e.seq);
      w.plain(e.addr);
      w.plain(e.line);
      // Plain fields packed, to keep a record short: a Word fits 32 bits.
      w.plain(e.value | std::uint64_t{e.acq} << 32 | std::uint64_t{e.done} << 33 |
              std::uint64_t{e.is_rmw_read} << 34 | std::uint64_t{e.nonspec} << 35);
      w.seq(e.store_tag);
      w.cycle(e.done_at);
    }
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) fn(entries_.at(i));
  }

 private:
  FixedQueue<Entry> entries_;
  std::pmr::vector<std::uint64_t> reissue_;  ///< on_line_event's result
};

}  // namespace mcsim
