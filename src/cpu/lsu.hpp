// Load/store unit (paper Figure 4): load/store reservation station,
// address unit, store buffer with forwarding, load queue, the
// speculative-load buffer (§4), and the prefetch engine (§3).
//
// This is where the consistency model is enforced: loads gate at the
// head of the load queue with load_may_issue(); stores gate at the
// store buffer (after the reorder buffer releases them at its head)
// with store_may_issue(). With speculative loads enabled the load
// gates disappear and the speculative-load buffer takes over
// detection; with prefetching enabled, gated accesses get their lines
// fetched early.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/access_record.hpp"
#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/json.hpp"
#include "common/period.hpp"
#include "common/stall.hpp"
#include "common/stats.hpp"
#include "common/trace_event.hpp"
#include "common/types.hpp"
#include "coherence/cache.hpp"
#include "consistency/policy.hpp"
#include "consistency/prefetch_engine.hpp"
#include "consistency/spec_load_buffer.hpp"
#include "cpu/operand.hpp"
#include "isa/instruction.hpp"

namespace mcsim {

/// Callbacks from the LSU into the core.
class LsuHost {
 public:
  virtual ~LsuHost() = default;
  /// A memory instruction performed. `value` is the load / RMW-old value.
  virtual void mem_completed(std::uint64_t seq, Word value, Cycle now) = 0;
  /// Appendix A: the speculative read-exclusive for an RMW returned a
  /// value; the core may bind the RMW's destination speculatively.
  virtual void rmw_spec_value(std::uint64_t seq, Word value, Cycle now) = 0;
  /// §4.2 correction mechanism: squash `seq` and everything younger,
  /// then refetch starting at `seq`'s instruction.
  virtual void request_squash_refetch(std::uint64_t seq, Cycle now) = 0;
};

/// Why a squash reached the LSU — profiling splits coherence-triggered
/// rollbacks (the §4.2 correction mechanism, attributed to the
/// triggering line-event kind in on_line_event) from ordinary pipeline
/// redirects (branch / RMW-value mispredicts, counted as
/// rb.cause.flush when they drop live speculative-load entries).
enum class SquashOrigin : std::uint8_t { kPipeline, kCoherence };

class LoadStoreUnit {
 public:
  /// With cfg.record_accesses the access log is reserved to
  /// `program_size` records: a program without loops performs at most
  /// one access per instruction.
  /// Every config-sized buffer comes from `arena`.
  LoadStoreUnit(ProcId id, const SystemConfig& cfg, std::size_t program_size,
                CoherentCache& cache, LsuHost& host, TraceEventSink* events = nullptr,
                std::pmr::memory_resource* arena = std::pmr::get_default_resource());

  bool can_dispatch() const { return ls_rs_.size() < cfg_.core.ls_rs_entries; }

  /// Decode handed us a memory instruction (load/store/RMW/fence/
  /// software prefetch) with renamed operands. `inst` must outlive the
  /// instruction's stay in the LSU (it is the program's own copy).
  void dispatch(std::uint64_t seq, std::size_t pc, const Instruction& inst, Operand base,
                Operand index, Operand data, Operand cmp);

  /// Operand order of dispatch(), for wake_operand().
  enum OperandSlot : std::uint8_t { kBase, kIndex, kData, kCmp };

  /// Producer `producer` completed with `value`: wake operand `slot` of
  /// the memory op `seq` if it still waits on it. A no-op once the op
  /// has left the LSU, or dropped that operand (a load keeps no data or
  /// compare operand past the reservation station).
  void wake_operand(std::uint64_t seq, OperandSlot slot, std::uint64_t producer, Word value);

  /// The reorder buffer reached this store/RMW at its head (precise
  /// interrupts): the store buffer may now issue it. `now` stamps the
  /// release instant for the store-release latency histogram.
  void release_store(std::uint64_t seq, Cycle now);

  /// Is the store's address translated (entry left the reservation
  /// station)? The ROB retires stores only once this holds.
  bool store_in_buffer(std::uint64_t seq) const;

  /// May the ROB retire this load/RMW? True once its speculative-load
  /// buffer entry (if any) has retired — a load with a live entry is
  /// still speculative and must stay squashable.
  bool load_retirable(std::uint64_t seq) const;

  /// Stage A (before commit): the address unit routes the reservation-
  /// station head to the load queue / store buffer; fences resolve.
  void tick_addr_unit(Cycle now);

  /// Stage B (after commit/execute/dispatch): issue at most one demand
  /// access (oldest-first among ready loads and stores), offer delayed
  /// accesses to the prefetch engine, drain one prefetch if the port is
  /// still free.
  void tick_issue(Cycle now);

  /// Route cache responses to completions. Call first each cycle.
  void drain_responses(Cycle now);

  /// Retire ready speculative-load buffer entries (call before commit).
  void retire_spec_entries(Cycle now);

  /// Coherence transaction seen by the cache (invalidate/update/replace).
  void on_line_event(LineEventKind kind, Addr line, Cycle now);

  /// Pipeline squash: drop every entry with seq >= `seq`.
  void squash_from(std::uint64_t seq, SquashOrigin origin = SquashOrigin::kPipeline);

  bool empty() const {
    return ls_rs_.empty() && load_q_.empty() && store_buf_.empty() && spec_buffer_.empty();
  }

  // --- fast-forward support ------------------------------------------
  /// Did any LSU state mutate since clear_progress()? The core clears
  /// the flag at the top of its tick and reads it afterwards: a tick
  /// that left both core and LSU untouched proves all following ticks
  /// no-op until an external event (cache response / line event), so
  /// the scheduler may skip them.
  bool progressed() const { return progress_; }
  void clear_progress() { progress_ = false; }

  /// Earliest ready_at of a pending store-to-load forwarding result
  /// (the only LSU-internal event with a future timestamp); kCycleNever
  /// when none. The queue is pushed with nondecreasing ready_at, so the
  /// front is the minimum.
  Cycle next_local_completion() const {
    return local_completions_.empty() ? kCycleNever : local_completions_.front().ready_at;
  }

  // --- periodic-core support (see Core::settle) ----------------------
  /// Queue occupancies packed into one word: a cheap signature for
  /// spotting a state that may repeat.
  std::uint64_t occupancy() const;
  std::uint64_t next_token() const { return next_token_; }
  /// Visit every piece of state a tick reads or writes for a PeriodWalk.
  template <typename Walk>
  void walk(Walk& w);

  const SpecLoadBuffer& spec_buffer() const { return spec_buffer_; }
  const PrefetchEngine& prefetch_engine() const { return prefetch_; }

  /// What Figure 1's delay arcs see for access `seq`: which classes of
  /// program-order-earlier access have not performed yet. A few compares
  /// against the per-class watermarks, never a scan of the queues.
  IssueContext context_for(std::uint64_t seq, SyncKind self_sync) const;

  // --- stall-cause classification (observability) --------------------
  // Called by the core once per non-retiring cycle for the ROB head's
  // blocked memory op; each is a cheap scan of the small queues. They
  // read only LSU and cache state, so a core that sleeps keeps its
  // classification until its cache or its own timer wakes it.

  /// Head memory op still in the reservation station.
  StallCause classify_rs_block(std::uint64_t seq) const;
  /// Head load dispatched to the load queue but not yet completed.
  StallCause classify_load_wait(std::uint64_t seq) const;
  /// Head store/RMW released but not yet performed.
  StallCause classify_store_wait(std::uint64_t seq) const;
  /// Core halted with an empty ROB but buffers still draining: charge
  /// the oldest remaining access; kIdle once everything has performed.
  StallCause classify_drain() const;

  /// Structured state snapshot for deadlock post-mortems.
  Json snapshot_json() const;

  /// Architectural access log (cfg.record_accesses), program order.
  std::vector<AccessRecord> access_log() const;

  /// Figure-5 renderings.
  std::string store_buffer_dump() const;
  std::string spec_buffer_dump() const { return spec_buffer_.dump(); }

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

 private:
  struct RsEntry {  // load/store reservation station
    std::uint64_t seq = 0;
    std::size_t pc = 0;
    const Instruction* inst = nullptr;
    Operand base, index, data, cmp;
    bool addr_operands_ready() const { return base.ready && index.ready; }
  };

  struct LoadEntry {
    std::uint64_t seq = 0;
    std::size_t pc = 0;
    SyncKind sync = SyncKind::kNone;
    Addr addr = 0;
    bool is_rmw_read = false;  ///< Appendix A speculative read-exclusive
    bool issued = false;
    bool reissue = false;      ///< detection asked for a reissue
    bool offered = false;      ///< already offered to the prefetch engine
    std::uint64_t token = 0;   ///< its request in the cache; 0 when none is
    Cycle ready_at = 0;        ///< when the address became available
  };

  struct StoreEntry {
    std::uint64_t seq = 0;
    std::size_t pc = 0;
    const Instruction* inst = nullptr;
    Addr addr = 0;
    Operand data, cmp;  ///< store value / RMW src, RMW compare
    SyncKind sync = SyncKind::kNone;
    bool is_rmw = false;
    bool released = false;
    bool issued = false;
    bool offered = false;
    bool spec_read_issued = false;  ///< Appendix-A read-exclusive in flight
    std::uint64_t token = 0;        ///< its request in the cache, once issued
    Cycle ready_at = 0;             ///< when the address became available
    Cycle released_at = 0;          ///< when the ROB head released it
  };

  struct LocalCompletion {  ///< store-to-load forwarding result
    std::uint64_t seq = 0;
    Word value = 0;
    Cycle ready_at = 0;
  };

  /// Seqs of one class's incomplete accesses, ascending, so the front
  /// is the class's watermark: its oldest access not yet performed.
  /// Seqs arrive in program order and mostly leave from the front; a
  /// squash drops a suffix.
  class SeqFifo {
   public:
    SeqFifo(std::size_t capacity, std::pmr::memory_resource* arena) : q_(capacity, arena) {}
    void push(std::uint64_t seq) {
      assert((q_.empty() || q_.back() <= seq) && "class members arrive in seq order");
      q_.push(seq);
    }
    /// Remove one occurrence of `seq`, which must be present.
    void erase(std::uint64_t seq);
    void squash_from(std::uint64_t seq) {
      while (!q_.empty() && q_.back() >= seq) q_.pop_back_n(1);
    }
    /// Has an access of this class older than `seq` not performed?
    bool any_before(std::uint64_t seq) const { return !q_.empty() && q_.front() < seq; }
    template <typename Walk>
    void walk(Walk& w) {
      w.plain(q_.size());
      for (std::size_t i = 0; i < q_.size(); ++i) w.seq(q_.at(i));
    }

   private:
    FixedQueue<std::uint64_t> q_;
  };

  StallCause classify_mem_wait(Addr addr) const;
  /// Index of `seq` in load_q_ / store_buf_, or the queue's size if absent.
  std::size_t load_index(std::uint64_t seq) const;
  std::size_t store_index(std::uint64_t seq) const;
  LoadEntry* find_load(std::uint64_t seq);
  const LoadEntry* find_load(std::uint64_t seq) const;
  StoreEntry* find_store(std::uint64_t seq);
  const StoreEntry* find_store(std::uint64_t seq) const;
  /// Every insertion into and removal from load_q_ / store_buf_ goes
  /// through these, so the class watermarks follow the queues.
  void push_load(const LoadEntry& e);
  void push_store(const StoreEntry& e);
  void erase_load_at(std::size_t i);
  void erase_store_at(std::size_t i);
  /// Withdraw `ld`'s request from the cache, if it has one in flight:
  /// the load is dropped or reissued and wants no reply.
  void withdraw(LoadEntry& ld);
  /// Has a load / store older than `seq` not performed? Both queues are
  /// filled in seq order, so their fronts are the watermarks.
  bool load_before(std::uint64_t seq) const {
    return !load_q_.empty() && load_q_.front().seq < seq;
  }
  bool store_before(std::uint64_t seq) const {
    return !store_buf_.empty() && store_buf_.front().seq < seq;
  }
  void record(std::uint64_t seq, std::size_t pc, Addr addr, AccessKind kind, SyncKind sync,
              Word value, Cycle now);

  /// Newest earlier store to the same word, for forwarding. Returns
  /// nullptr when none; `blocked` is set when an RMW matches (no
  /// forwarding possible — the old value is unknown until it performs).
  StoreEntry* forwarding_source(const LoadEntry& ld, bool& blocked);

  void issue_load(LoadEntry& ld, Cycle now);
  void issue_store(StoreEntry& st, Cycle now);
  void insert_spec_entry(const LoadEntry& ld, Cycle now);
  void offer_prefetches(Cycle now);
  /// Mark an in-tick state mutation (see progressed()). Every site
  /// that changes persistent LSU state during the core's tick must
  /// call this; missing one breaks the fast-forward quiescence proof
  /// (caught by the MCSIM_FF_AUDIT lockstep and the equivalence tests).
  void note_progress() { progress_ = true; }
  /// Record a Figure-5 pipeline event on this core's track.
  void instant(TraceEventSink::NameId name, Cycle now, TraceEventSink::Arg a0 = {},
               TraceEventSink::Arg a1 = {}) {
    if (events_ != nullptr && events_->enabled())
      events_->instant(name, static_cast<std::uint16_t>(id_), now, a0, a1);
  }

  ProcId id_;
  const SystemConfig& cfg_;
  CoherentCache& cache_;
  LsuHost& host_;
  TraceEventSink* events_;

  FixedQueue<RsEntry> ls_rs_;
  FixedQueue<LoadEntry> load_q_;      ///< seqs ascending
  FixedQueue<StoreEntry> store_buf_;  ///< seqs ascending
  SpecLoadBuffer spec_buffer_;
  PrefetchEngine prefetch_;
  /// Watermarks of the classes the queue fronts do not give: sync and
  /// acquire accesses in load_q_ and store_buf_ (an Appendix-A RMW is in
  /// both, once each), RMWs in store_buf_ (they read too), and the acq
  /// entries of speculative sync loads still in the speculative-load
  /// buffer (RMW read entries excluded: their RMW is in store_buf_).
  SeqFifo sync_;
  SeqFifo acquires_;
  SeqFifo rmws_;
  SeqFifo slb_acquires_;
  /// One per forwarded load still in the load queue.
  FixedQueue<LocalCompletion> local_completions_;
  std::uint64_t next_token_ = 1;
  bool progress_ = true;  ///< state mutated this tick (starts armed)
  /// Reserved when cfg.record_accesses (see the constructor).
  std::pmr::vector<AccessRecord> records_;

  StatSet stats_;
};

}  // namespace mcsim
