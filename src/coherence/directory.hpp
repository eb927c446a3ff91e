// Directory controller + memory module, banked (DASH-style substrate).
//
// Sharer tracking is a SharerSet (full-map / limited-pointer /
// coarse-vector per MemConfig::dir_scheme); stable states Uncached /
// Shared(sharers) / Dirty(owner). Multi-step transactions (recalls,
// invalidation gathers, update fan-outs) hold a per-line transient
// entry; requests that arrive for a busy line are deferred in FIFO
// order and replayed when the transaction completes, so the protocol is
// free of NACK retries and deterministic.
//
// DirectoryGroup shards lines across `dir_banks` Directory banks by a
// splitmix64 hash of the line number (home_bank_of_line — a plain
// modulo would home every 0x40-strided hot line to bank 0); bank b is
// network endpoint num_procs + b,
// so on a ring/mesh every bank is a distinct home node. One bank plus
// the full-map scheme is cycle-identical to the historical centralized
// uint64_t-bit-vector directory.
//
// For writes the directory collects every invalidation acknowledgment
// BEFORE answering the requester, which makes a store "performed with
// respect to all processors" exactly when its reply arrives — the
// definition of performed the paper uses (§2).
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/flat_memory.hpp"
#include "common/json.hpp"
#include "common/profile.hpp"
#include "common/stats.hpp"
#include "common/trace_event.hpp"
#include "common/types.hpp"
#include "coherence/sharer_set.hpp"
#include "coherence/types.hpp"
#include "interconnect/network.hpp"

namespace mcsim {

/// One directory bank: the coherence controller for every line whose
/// home is this bank. Owned by DirectoryGroup; standalone construction
/// is for unit tests only.
class Directory {
 public:
  /// Its transactions, wait queues and statistics come from `arena`.
  Directory(std::uint32_t num_procs, std::uint32_t bank, std::uint32_t num_banks,
            const CacheConfig& cache_cfg, const MemConfig& mem_cfg, Network& net,
            FlatMemory& mem, SharingLedger& ledger,
            std::pmr::memory_resource* arena = std::pmr::get_default_resource());

  /// Service every message that arrived this cycle.
  void tick(Cycle now);

  bool idle() const { return open_txns_ == 0; }

  /// Fast-forward contract: the directory is purely reactive — tick()
  /// only drains its network inbox, and pending transactions advance
  /// solely via messages. Undrained inbox traffic is reported by
  /// Network::next_event (it counts inboxed messages), so on its own
  /// the directory never schedules a wake-up.
  Cycle next_event(Cycle /*now*/) const { return kCycleNever; }

  /// Timeline sink for transaction-duration events, rendered on `track`.
  void set_event_sink(TraceEventSink* sink, std::uint16_t track) {
    events_ = sink;
    track_ = track;
  }

  /// In-flight transactions, for deadlock post-mortems.
  Json snapshot_json() const;

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

  // --- technique-efficacy profiling (--profile) ----------------------
  void set_profiling(bool on) { profile_ = on; }
  bool profiling() const { return profile_; }

  enum class State : std::uint8_t { kUncached, kShared, kDirty };

  /// Experiment setup: register `proc` as sharer/owner of a line that
  /// was preloaded into its cache (see CoherentCache::preload_line).
  void preload(Addr line, State st, ProcId proc);

  // --- introspection for protocol tests ------------------------------
  State line_state(Addr line) const;
  /// Candidate-sharer bits for processors 0..63 (historical mask API;
  /// exact under full-map with P <= 64).
  std::uint64_t sharers(Addr line) const;
  ProcId owner(Addr line) const;
  bool line_busy(Addr line) const {
    auto it = entries_.find(align(line));
    return it != entries_.end() && it->second.txn != kNoTxn;
  }
  std::uint32_t bank() const { return bank_; }

 private:
  static constexpr std::uint32_t kNoTxn = 0xffffffffu;

  struct Entry {
    State state = State::kUncached;
    SharerSet sharers;  ///< conservative candidate-sharer set
    ProcId owner = kNoProc;
    std::uint32_t txn = kNoTxn;  ///< txns_ slot while the line is busy
  };

  /// A request that arrived while its line was busy, with its arrival
  /// cycle (the profiler's queue_wait runs from arrival to replay).
  struct Deferred {
    Message msg;
    Cycle arrived = 0;
  };

  /// One in-progress multi-step transaction.
  struct Txn {
    explicit Txn(std::pmr::memory_resource* arena) : deferred(0, arena) {}
    enum class Kind : std::uint8_t {
      kGatherInvAcks,     ///< invalidating sharers for a ReadExReq
      kRecallForRead,     ///< recalling dirty data to answer a ReadReq
      kRecallForEx,       ///< recalling + invalidating owner for a ReadExReq
      kGatherUpdateAcks,  ///< update protocol: fanning out a new value
    };
    Kind kind = Kind::kGatherInvAcks;
    bool open = false;         ///< false: the slot is on the free list
    std::uint32_t next_free = kNoTxn;  ///< the free list's next slot
    Message request;           ///< the original requester message
    std::uint32_t acks_left = 0;
    Cycle started_at = 0;      ///< for transaction-duration trace events
    /// Requests for this line that arrived while it was busy, in
    /// arrival order. The queue outlives the transaction: when a replay
    /// re-busies the line, the rest moves to the next one whole.
    FixedQueue<Deferred> deferred;
  };

  Addr align(Addr a) const { return a & ~static_cast<Addr>(line_bytes_ - 1); }
  Entry& entry(Addr line);

  /// Copy one line between memory and a message payload, in place.
  void read_line(Addr line, Message::LineData& out) const;
  void write_line(Addr line, const Message::LineData& data);

  void handle(const Message& msg, Cycle now);
  /// Serve a request for a line that is not busy (`e` is its entry).
  /// Never defers: at most it opens a transaction on the line.
  void handle_request(Entry& e, const Message& msg, Cycle now);
  /// Start a transaction on `e`'s line in a reused txns_ slot. The
  /// reference is valid until the next open_txn.
  Txn& open_txn(Entry& e, Txn::Kind kind, const Message& req, Cycle now);
  void finish_txn(Entry& e, Cycle now);
  /// A message from this bank.
  Message message(MsgType type, EndpointId dst, Addr line) const;
  /// Send `req`'s requester its line from memory as a `type` reply.
  void reply_line(MsgType type, const Message& req, Cycle now);
  void reply_read(Entry& e, const Message& req, Cycle now);
  void reply_read_ex(Entry& e, const Message& req, Cycle now);
  /// Open a recall of `e`'s dirty line from its owner, for a read or,
  /// when `exclusive`, for a ReadExReq (the owner then drops its copy).
  void recall(Entry& e, const Message& req, bool exclusive, Cycle now);
  /// Open a `kind` transaction for `req` and send `copy`, addressed to
  /// each in turn, to every sharer but the requester, counting the acks
  /// to gather.
  Txn& fan_out(Entry& e, Txn::Kind kind, const Message& req, const Message& copy, Cycle now);
  /// Profile one invalidation (or, when `update`, update) round of
  /// `fanout` messages.
  void note_round(bool update, Addr line, std::uint32_t fanout, Cycle now);
  /// Confirm update-protocol request `req` to its writer: UpdateDone for
  /// a store, RmwReply carrying `old` for an RMW.
  void finish_word_op(const Message& req, Word old, Cycle now);
  void send(Message&& msg, Cycle now) { net_.send(std::move(msg), now, service_delay_); }

  std::uint32_t num_procs_;
  std::uint32_t bank_;
  std::uint32_t num_banks_;
  std::uint32_t line_bytes_;
  std::uint32_t service_delay_;
  SharerSetParams sharer_params_;
  EndpointId self_;
  Network& net_;
  FlatMemory& mem_;
  SharingLedger& ledger_;
  // Never iterated, so unordered lookup is safe and cheap. One lookup
  // per message finds both the line's state and its open transaction.
  std::unordered_map<Addr, Entry> entries_;
  /// Transaction slots, reused through a free list (a stack, from
  /// free_txn_) together with their wait-queue buffers, so a
  /// steady-state transaction allocates nothing. Reserved for one open
  /// transaction per processor homed here. Every wait queue, replay_'s
  /// too, draws from the same arena, so their buffers can swap.
  std::pmr::vector<Txn> txns_;
  std::uint32_t free_txn_ = kNoTxn;
  std::uint32_t open_txns_ = 0;
  /// The wait queue being replayed by finish_txn (its buffer swaps with
  /// the closing slot's, so it is reused too).
  FixedQueue<Deferred> replay_;
  TraceEventSink* events_ = nullptr;
  std::uint16_t track_ = 0;
  bool profile_ = false;
  StatSet stats_;
};

/// The machine's directory/memory system: the flat backing store plus
/// mem_cfg.dir_banks Directory banks, lines hashed across banks
/// (home = home_bank_of_line). All of Machine's directory
/// interaction goes through this; per-line queries route to the home
/// bank. The sharing ledger is shared by every bank (one machine-wide
/// contended-lines table and one MCSIM_FF_AUDIT fingerprint); per-bank
/// attribution comes from each bank's own StatSet ("dir" at one bank,
/// "dir<b>" otherwise) and from the home-bank column the group adds to
/// ledger emissions.
class DirectoryGroup {
 public:
  /// The banks come from `arena`.
  DirectoryGroup(std::uint32_t num_procs, const CacheConfig& cache_cfg,
                 const MemConfig& mem_cfg, Network& net,
                 std::pmr::memory_resource* arena = std::pmr::get_default_resource());

  void tick(Cycle now) {
    for (Directory& b : banks_) b.tick(now);
  }

  FlatMemory& memory() { return mem_; }
  const FlatMemory& memory() const { return mem_; }

  bool idle() const {
    for (const Directory& b : banks_)
      if (!b.idle()) return false;
    return true;
  }

  /// Purely reactive, like every bank (see Directory::next_event).
  Cycle next_event(Cycle /*now*/) const { return kCycleNever; }

  std::uint32_t num_banks() const { return static_cast<std::uint32_t>(banks_.size()); }
  Directory& bank(std::uint32_t b) { return banks_[b]; }
  const Directory& bank(std::uint32_t b) const { return banks_[b]; }

  /// Home bank of the line containing `a` (see home_bank_of_line for
  /// why this is a splitmix64 hash, not a plain modulo).
  std::uint32_t home_bank(Addr a) const {
    return home_bank_of_line(a / line_bytes_,
                             static_cast<std::uint32_t>(banks_.size()));
  }

  /// Per-bank timeline tracks: bank b renders on `first_track` + b.
  void set_event_sink(TraceEventSink* sink, std::uint16_t first_track) {
    for (std::uint32_t b = 0; b < num_banks(); ++b)
      banks_[b].set_event_sink(sink, static_cast<std::uint16_t>(first_track + b));
  }

  void set_profiling(bool on) {
    for (Directory& b : banks_) b.set_profiling(on);
  }

  const SharingLedger& ledger() const { return ledger_; }

  /// The ledger's contended-lines table, one JSON row per line with its
  /// home bank: the one renderer for post-mortems and bench profiles.
  Json contended_lines_json(std::size_t n) const;

  /// In-flight transactions across all banks (each row carries its
  /// bank), for deadlock post-mortems.
  Json snapshot_json() const;

  void preload(Addr line, Directory::State st, ProcId proc) {
    home(line).preload(line, st, proc);
  }
  Directory::State line_state(Addr line) const { return home(line).line_state(line); }
  std::uint64_t sharers(Addr line) const { return home(line).sharers(line); }
  ProcId owner(Addr line) const { return home(line).owner(line); }
  bool line_busy(Addr line) const { return home(line).line_busy(line); }

 private:
  Directory& home(Addr a) { return banks_[home_bank(a)]; }
  const Directory& home(Addr a) const { return banks_[home_bank(a)]; }

  std::uint32_t line_bytes_;
  FlatMemory mem_;
  SharingLedger ledger_;
  std::pmr::vector<Directory> banks_;  ///< reserved: the banks never move
};

}  // namespace mcsim
