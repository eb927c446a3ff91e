// Lockup-free private data cache with directory coherence.
//
// The cache sustains multiple outstanding misses through MSHRs
// [Kroft 81], merges demand references into outstanding (possibly
// prefetch-initiated) requests — the paper's §3.2 requirement — and
// reports invalidations, updates, and replacements to a processor-side
// observer, which is how the speculative-load buffer's detection
// mechanism (§4.2) sees coherence transactions.
//
// Timing: a probe at cycle T completes at T+1 on a hit; on a miss the
// completion is the arrival cycle of the directory's reply. One probe
// (demand or prefetch) per cycle — the port model behind the paper's
// "the cache will be more busy ... accesses the cache twice" remark.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/period.hpp"
#include "common/fixed_queue.hpp"
#include "common/stats.hpp"
#include "common/trace_event.hpp"
#include "common/types.hpp"
#include "coherence/types.hpp"
#include "interconnect/network.hpp"

namespace mcsim {

class CoherentCache {
 public:
  /// Every config-sized buffer comes from `arena`. The processor keeps
  /// at most `max_requests` demand requests in flight (answered or not):
  /// the waiter pool and the response queue are sized for that once.
  CoherentCache(ProcId id, const CacheConfig& cfg, const MemConfig& mem_cfg,
                Network& net, std::uint32_t num_procs, std::uint32_t max_requests,
                std::pmr::memory_resource* arena = std::pmr::get_default_resource());

  ProcId id() const { return id_; }
  CoherenceKind protocol() const { return protocol_; }

  /// Processor-side listener for coherence transactions (spec-load buffer).
  void set_observer(LineEventObserver* obs) { observer_ = obs; }

  /// Timeline sink for miss-duration events, rendered on `track`.
  void set_event_sink(TraceEventSink* sink, std::uint16_t track) {
    events_ = sink;
    track_ = track;
  }

  Addr line_of(Addr a) const { return a & ~static_cast<Addr>(cfg_.line_bytes - 1); }

  /// One probe per cycle; callers must check before probing.
  bool port_free(Cycle now) const { return port_used_at_ != now || !port_used_valid_; }

  /// Present a demand access or prefetch. Consumes the port (the tag
  /// array was probed) whatever the outcome.
  ProbeResult probe(const CacheRequest& req, Cycle now);

  /// Combine a request with an already-outstanding transaction on its
  /// line without a tag-array access (the §3.2 "combined with the
  /// prefetch request" path — used by an RMW joining its own
  /// speculative read-exclusive). Returns false when there is no MSHR
  /// for the line; the caller must then probe normally.
  bool merge_into_mshr(const CacheRequest& req);

  /// Drain network messages that arrived this cycle (fills,
  /// invalidations, recalls, updates). Call before the core ticks.
  void tick(Cycle now);

  /// Pop the next completion whose ready_at <= now. Completions pop in
  /// the order they were queued, which is also ready order: within a
  /// cycle the cache ticks before its core, so a fill queued at T (ready
  /// at T) always precedes a hit probed at T (ready at T+1).
  bool pop_response(Cycle now, CacheResponse& out);

  /// Withdraw the demand request `token` to `addr`: nothing waits for
  /// its reply any more. A queued reply is removed; otherwise the
  /// request's waiter leaves its line's MSHR, which stays outstanding,
  /// and no fill, upgrade or prefetch decision changes.
  void cancel(Addr addr, std::uint64_t token);

  /// Earliest future cycle at which this cache can act on its own
  /// (fast-forward scheduler); kCycleNever when it can only react to
  /// network traffic (MSHRs and word ops complete via messages, which
  /// the network's next_event covers). Deferred fills retry on the
  /// next tick; queued responses mature at their ready_at.
  Cycle next_event(Cycle now) const;

  /// Is a fill deferred for lack of a victim? It retries on the next
  /// tick, the only work this cache does without a message arriving.
  bool retry_pending() const { return !retry_fills_.empty(); }

  /// Register the machine-wide count of non-idle caches: this cache
  /// bumps it on every idle->busy transition and drops it on
  /// busy->idle, making Machine::done() O(1). Pass nullptr to detach
  /// (standalone caches in unit tests never register).
  void set_quiescence_counter(std::uint64_t* counter);

  /// Install a line directly (no messages, no timing): experiment
  /// setup for "assume the location is initially cached" scenarios like
  /// the paper's `read D (hit)`. The directory must be preloaded to
  /// match (Machine::preload_* keeps the pair consistent).
  void preload_line(Addr line, LineState st, std::span<const Word> data);

  // --- introspection (tests, trace, end-of-run state collection) -----
  LineState line_state(Addr a) const;
  /// Word value of a resident line; nullopt when not resident.
  std::optional<Word> peek_word(Addr a) const;
  bool mshr_active(Addr a) const { return find_mshr(line_of(a)) != nullptr; }
  std::size_t mshrs_in_use() const;
  /// O(1): pending-work counter kept in sync at every MSHR/response/
  /// retry-fill/word-op mutation; audited against the full scan under
  /// MCSIM_FF_AUDIT.
  bool idle() const;
  /// The scanned ground truth behind idle()'s counter.
  std::uint64_t debug_scan_busy() const;
  /// Room for requests in flight in the waiter pool and the response
  /// queue: max_requests each, from construction on.
  std::size_t waiter_capacity() const { return waiters_.capacity(); }
  std::size_t response_capacity() const { return responses_.capacity(); }

  /// Visit every resident line as (line, state, words), in set-major
  /// way order. Introspection only: end-of-run state goes through
  /// peek_word (Machine::read_word), not through this.
  template <typename Fn>
  void for_each_resident_line(Fn&& fn) const {
    for (std::size_t set = 0; set < cfg_.num_sets; ++set) {
      for (const Way& way : filled_ways(set)) {
        if (way.state != LineState::kInvalid) fn(way.line, way.state, line_words(way));
      }
    }
  }

  /// Outstanding MSHRs and word ops, for deadlock post-mortems.
  Json snapshot_json() const;

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

  // --- periodic-core support (see Core::settle) ----------------------
  /// Bumped by every MSHR allocation or merge, word op and handled
  /// message: cache state changed beyond what a hit changes.
  std::uint64_t activity() const { return activity_; }
  /// A word op or deferred fill is outstanding (state walk() leaves out).
  bool holds_transactions() const { return !word_ops_.empty() || !retry_fills_.empty(); }
  /// Log each way a demand probe touches, once, in first-touch order.
  /// start clears the log and logs; stop ends logging and keeps the log.
  void start_touch_log() {
    touched_.clear();
    touch_log_on_ = true;
  }
  void stop_touch_log() { touch_log_on_ = false; }
  /// Visit the state a core's hits read and write — the response ring,
  /// the port stamp, the MSHRs and the logged ways — for a PeriodWalk.
  template <typename Walk>
  void walk(Walk& w);

  // --- technique-efficacy profiling (--profile) ----------------------
  /// Per-prefetch outcome attribution: every prefetch-installed tag is
  /// resolved exactly once as useful / late / useless / killed (see
  /// common/profile.hpp). One branch per probe path when off.
  void set_profiling(bool on) { profile_ = on; }
  bool profiling() const { return profile_; }
  /// Prefetches issued but not yet resolved — the `pending_at_end`
  /// term of the conservation invariant when read after a run.
  std::size_t profile_pending() const { return pf_tags_.size(); }

 private:
  /// One tag-array entry; its words live in data_ at the same index.
  /// No initialisers: a way is written in full by its first fill, and
  /// nothing reads a way before that (see filled_).
  struct Way {
    LineState state;
    bool prefetched;  ///< filled by a prefetch, no demand use yet
    Addr line;
    Cycle last_use;
    Cycle fill_at;    ///< when the current contents were installed
  };
  static_assert(sizeof(Way) == 32, "keep a tag entry at half a host cache line");

  /// A merged access: the request's fields, widest first (32 bytes).
  struct Waiter {
    Waiter() = default;
    explicit Waiter(const CacheRequest& r)
        : token(r.token), addr(r.addr), store_value(r.store_value), rmw_cmp(r.rmw_cmp),
          rmw_src(r.rmw_src), op(r.op), rmw_op(r.rmw_op) {}
    std::uint64_t token = 0;
    Addr addr = 0;  ///< full word address of the merged access
    Word store_value = 0;
    Word rmw_cmp = 0;
    Word rmw_src = 0;
    CacheOp op = CacheOp::kLoad;
    RmwOp rmw_op = RmwOp::kTestAndSet;
  };
  static_assert(sizeof(Waiter) == 32);

  static constexpr std::uint32_t kNoWaiter = ~0u;
  /// A waiter in the cache's pool, linked into its MSHR's list or the
  /// free list.
  struct WaiterNode {
    Waiter w;
    std::uint32_t next = kNoWaiter;
  };

  struct Mshr {
    bool valid = false;
    Addr line = 0;
    bool want_ex = false;           ///< outstanding request is read-exclusive
    bool upgrade_after_fill = false;///< issue ReadExReq once the read fill lands
    bool prefetch_initiated = false;
    bool demand = false;            ///< a demand access joined (merge or miss)
    Cycle alloc_at = 0;             ///< miss start, for duration events
    /// Merged accesses, oldest first: a list through waiters_. Its
    /// length is for walk() and snapshots; no decision reads it.
    std::uint32_t first = kNoWaiter, last = kNoWaiter;
    std::uint32_t waiters = 0;
  };

  /// Update-protocol word-granular operations in flight (stores, RMWs).
  struct WordOp {
    bool is_rmw = false;
    RmwOp rmw_op = RmwOp::kTestAndSet;
    Word rmw_cmp = 0;
    Word rmw_src = 0;
    Addr word_addr = 0;
  };

  std::size_t set_index(Addr line) const {
    return static_cast<std::size_t>((line >> line_shift_) & (cfg_.num_sets - 1));
  }
  /// The ways of `set` ever filled: a prefix of its block of `ways`
  /// consecutive entries in ways_. Every way past it is invalid and
  /// uninitialised; a set never filled has no block and an empty span.
  std::span<Way> filled_ways(std::size_t set) {
    return {ways_ + (filled_[set] >> kFillBits) * cfg_.ways, filled_[set] & kFillMask};
  }
  std::span<const Way> filled_ways(std::size_t set) const {
    return {ways_ + (filled_[set] >> kFillBits) * cfg_.ways, filled_[set] & kFillMask};
  }
  Way* find_way(Addr line);
  const Way* find_way(Addr line) const;
  Mshr* find_mshr(Addr line);
  const Mshr* find_mshr(Addr line) const;
  Mshr* alloc_mshr(Addr line, Cycle now);
  /// find_mshr for a probe that may join the MSHR (counts as activity).
  Mshr* merge_target(Addr line);
  /// Join demand access `req` to `line`'s outstanding MSHR, if any; a
  /// store, LoadEx or RMW on a read MSHR asks for the upgrade after its
  /// fill. Returns the MSHR, or nullptr when there is none.
  Mshr* merge(const CacheRequest& req, Addr line);
  /// Apply a demand load, LoadEx, store or RMW (a CacheRequest or a
  /// Waiter) to resident `way`; returns the response value.
  template <typename Access>
  Word perform(Way& way, const Access& a);
  /// Close `m`, returning any waiters left on it to the pool.
  void close_mshr(Mshr& m, Cycle now);
  /// Append a waiter for demand access `req` to `m`'s list; a demand
  /// access has joined `m`.
  void add_waiter(Mshr& m, const CacheRequest& req);
  /// Append pool node `n` to `m`'s list.
  void link_waiter(Mshr& m, std::uint32_t n);
  /// Return `m`'s whole list to the pool.
  void free_waiters(Mshr& m);

  void use_port(Cycle now);
  /// A demand hit on `way`: stamp it for LRU and log it if logging.
  void touch(Way& way, Cycle now) {
    way.last_use = now;
    if (touch_log_on_) log_touch(way);
  }
  void log_touch(const Way& way);
  /// Pending-work accounting (valid MSHRs + responses + retry fills +
  /// word ops); 0<->nonzero transitions update the machine counter.
  void busy_inc();
  void busy_dec();
  void push_response(std::uint64_t token, Word value, Cycle ready, bool hit);
  void notify(LineEventKind kind, Addr line, Cycle now);

  /// Install `data` for `line` with state `st`; may evict. Returns the
  /// way, or nullptr when no victim is available this cycle (fill is
  /// retried from retry_fills_).
  Way* fill_line(Addr line, LineState st, const Word* data, Cycle now);
  void evict(Way& way, Cycle now);
  void handle_message(const Message& msg, Cycle now);

  /// `way`'s words in the data_ arena.
  std::size_t word_base(const Way& way) const {
    return static_cast<std::size_t>(&way - ways_) * words_per_line_;
  }
  std::span<const Word> line_words(const Way& way) const {
    return {data_ + word_base(way), words_per_line_};
  }
  Word read_word(const Way& way, Addr addr) const;
  void write_word(Way& way, Addr addr, Word v);

  /// One unresolved prefetch (profiling only). Decoupled from
  /// Way::prefetched so the legacy counters are untouched by
  /// profiling. Invariant: a tag is `resident` iff its line is in the
  /// cache with no demand use since the prefetch fill; otherwise its
  /// prefetch-initiated MSHR is still outstanding.
  struct PfTag {
    bool resident = false;
    bool exclusive = false;
    Cycle issue_at = 0;
    Cycle fill_at = 0;
  };
  // All pf_* helpers fire only on progress sites (probe successes,
  // message handling, evictions) — never on rejected/gated paths, which
  // a sleeping core skips under fast-forward — so profiler counters
  // stay cycle-identical under fast-forward (MCSIM_FF_AUDIT covers
  // them via stats_report()).
  void pf_issue(Addr line, bool ex, Cycle now);
  void pf_demand_touch(Addr line, Cycle now);
  void pf_fill(Addr line, Cycle now);
  void pf_kill(Addr line, bool update, Cycle now);
  void pf_evict(Addr line, Cycle now);
  void pf_counter_event(Cycle now);

  /// Home directory bank for `line` (same hash as
  /// DirectoryGroup::home_bank — see home_bank_of_line).
  EndpointId dir_for(Addr line) const {
    return static_cast<EndpointId>(
        num_procs_ + home_bank_of_line(line >> line_shift_, dir_banks_));
  }

  ProcId id_;
  CacheConfig cfg_;
  CoherenceKind protocol_;
  Network& net_;
  std::uint32_t num_procs_;
  std::uint32_t dir_banks_;
  LineEventObserver* observer_ = nullptr;
  TraceEventSink* events_ = nullptr;
  std::uint16_t track_ = 0;

  std::size_t words_per_line_;
  /// log2(line_bytes): a line number is a shift, not a division.
  std::uint32_t line_shift_;
  /// Per set, its block number above kFillBits bits of how many ways
  /// have ever been filled. A fill takes the first invalid way in index
  /// order, so the filled ways are a prefix; a set's first fill gives it
  /// the next unused block of ways_, so blocks follow first-fill order.
  std::pmr::vector<std::uint32_t> filled_;
  static constexpr std::uint32_t kFillBits = 8, kFillMask = (1u << kFillBits) - 1;
  static_assert(CacheConfig::kMaxWays <= kFillMask &&
                CacheConfig::kMaxSets - 1 <= ~0u >> kFillBits);
  std::uint32_t blocks_used_ = 0;  ///< blocks handed out so far
  std::pmr::vector<Mshr> mshrs_;
  /// Waiter pool shared by the MSHRs. Every linked waiter is a request
  /// its processor still waits for (a dropped one is withdrawn through
  /// cancel()), so the pool is reserved for max_requests and never grows.
  std::pmr::vector<WaiterNode> waiters_;
  std::uint32_t free_waiter_ = kNoWaiter;  ///< head of the free list
  /// Hands the tag and data arrays back to the arena they came from.
  struct ArenaFree {
    std::pmr::memory_resource* arena;
    std::size_t bytes;
    void operator()(std::byte* p) const { arena->deallocate(p, bytes); }
  };
  /// The tag array, then the data array, in one uninitialised block, so
  /// a cache costs O(lines filled), not O(capacity).
  std::unique_ptr<std::byte[], ArenaFree> arrays_;
  /// Tag array: num_sets blocks of `ways` entries, in first-fill order,
  /// so a cache touches pages for the sets it uses, not for num_sets.
  Way* ways_;
  /// Line words, words_per_line_ per way, in ways_ order.
  Word* data_;
  std::unordered_map<std::uint64_t, WordOp> word_ops_;  ///< update protocol, keyed by token
  /// ready_at non-decreasing; sized for max_requests, never grows.
  FixedQueue<CacheResponse> responses_;
  FixedQueue<Message> retry_fills_;
  FixedQueue<Message> retrying_;  ///< tick()'s scratch: the fills it retries

  bool port_used_valid_ = false;
  Cycle port_used_at_ = 0;

  std::uint64_t activity_ = 0;
  bool touch_log_on_ = false;
  std::vector<std::uint32_t> touched_;  ///< way indices, first-touch order

  std::uint64_t busy_ = 0;            ///< pending work items (idle() == 0)
  std::uint64_t* quiesce_ = nullptr;  ///< machine-wide busy-cache count

  bool profile_ = false;
  std::unordered_map<Addr, PfTag> pf_tags_;  ///< unresolved prefetches

  StatSet stats_;
};

}  // namespace mcsim
