// Dynamically scheduled processor core, modeled after Johnson's design
// (paper Figure 3): in-order fetch with branch prediction, decode with
// register renaming into a reorder buffer, out-of-order execution,
// in-order retirement with precise interrupts, and the load/store unit
// of Figure 4.
//
// The reorder buffer implements the paper's store policies: a store is
// released to the store buffer when it reaches the ROB head; under SC
// it additionally stays at the head until it performs, so stores issue
// one at a time. RMWs always retire only once performed (Appendix A).
// Loads with a live speculative-load buffer entry cannot retire — they
// are still squashable.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/json.hpp"
#include "common/period.hpp"
#include "common/stall.hpp"
#include "common/stats.hpp"
#include "common/trace_event.hpp"
#include "common/types.hpp"
#include "coherence/cache.hpp"
#include "cpu/branch_predictor.hpp"
#include "cpu/lsu.hpp"
#include "cpu/operand.hpp"
#include "isa/program.hpp"

namespace mcsim {

class Core : public LsuHost, public LineEventObserver {
 public:
  /// Every config-sized buffer, the LSU's included, comes from `arena`.
  Core(ProcId id, const SystemConfig& cfg, const Program& program, CoherentCache& cache,
       TraceEventSink* events = nullptr,
       std::pmr::memory_resource* arena = std::pmr::get_default_resource());

  /// Advance one cycle. The cache must have ticked already. Any cycles
  /// skipped since the previous tick are settled first, and a core
  /// asleep in a periodic spin wakes.
  void tick(Cycle now);

  /// Bring the cycles skipped since the previous tick — a span the
  /// scheduler let this core sleep through — up to `now`. Only the
  /// core's cache acts on the core, and the cache's tick settles its
  /// core first, so nothing outside the core touched it meanwhile.
  ///
  /// A frozen core (its last tick made no progress) charges the span to
  /// the cause that tick classified: a stall cause reads only core, LSU
  /// and cache state, so every skipped tick would have charged it. O(1).
  ///
  /// A periodic core (asleep in a spin whose state repeats every
  /// `period` ticks while its cache sends nothing) advances k = n /
  /// period whole periods in closed form — seqs, tokens and cycle stamps
  /// shift, counters grow by k periods' worth — and ticks the n mod
  /// period remainder live. O(state + period).
  ///
  /// A no-op for a core ticked every cycle. Call with the current cycle
  /// before reading the stats of a core that may be asleep.
  void settle(Cycle now);

  /// Earliest future cycle at which tick() could change any state,
  /// for the fast-forward scheduler. `now` when the previous tick made
  /// progress (the pipeline is live, so the next tick may act too);
  /// otherwise the core is frozen until either a pending store-to-load
  /// forwarding result matures (its ready_at) or an external event
  /// arrives (cache response or coherence transaction — covered by the
  /// cache's and network's own next_event). kCycleNever when neither.
  /// A core asleep in a periodic spin answers max_cycles: its skipped
  /// ticks are not no-ops, but settle() reproduces them on wake, and a
  /// machine whose only live work is such a spin still runs to the
  /// watchdog without being taken for wedged.
  Cycle next_event(Cycle now) const {
    if (period_.phase == Period::kAsleep) return cfg_.max_cycles;
    if (progress_ || lsu_.progressed()) return now;
    return lsu_.next_local_completion();
  }

  /// Let this core fall asleep in a periodic spin, borrowing probe
  /// records from `pool` (Machine::run() does this for its active-set
  /// loop when no trace events, profile or access log observe
  /// individual ticks). nullptr turns it off and wakes a sleeping core,
  /// so settle first.
  void allow_periodic_sleep(PeriodRecordPool* pool);
  /// Ticks settled in closed form by periodic sleep (introspection: not
  /// a statistic, so stats reports stay identical to the naive loop's).
  std::uint64_t periodic_ticks_settled() const { return period_ticks_settled_; }
  /// A probe's two state passes, to time them: record the live state into
  /// `s1`, then compare it against `s1` moved by no period (true).
  bool probe_state(PeriodWalk::Record& s1);

  bool halted() const { return halted_; }
  /// Halted and every buffered access has performed.
  bool drained() const { return halted_ && rob_.empty() && lsu_.empty(); }
  Cycle halt_cycle() const { return halt_cycle_; }

  Word reg(RegId r) const { return regfile_[r]; }
  std::uint64_t instructions_retired() const { return retired_; }

  LoadStoreUnit& lsu() { return lsu_; }
  const LoadStoreUnit& lsu() const { return lsu_; }

  // --- LsuHost --------------------------------------------------------
  void mem_completed(std::uint64_t seq, Word value, Cycle now) override;
  void rmw_spec_value(std::uint64_t seq, Word value, Cycle now) override;
  void request_squash_refetch(std::uint64_t seq, Cycle now) override;

  // --- LineEventObserver (wired to this core's cache) -----------------
  void on_line_event(LineEventKind kind, Addr line, Cycle now) override;

  /// Figure-5 rendering of the reorder buffer, head first.
  std::string rob_dump() const;

  /// Per-cause cycle counts; kBusy counts retiring cycles, so the
  /// entries sum to exactly the cycles from the first tick() through
  /// the last tick() or settle().
  const StallBreakdown& stall_cycles() const { return stall_; }

  /// Close the open stall episode at end-of-run so its duration event
  /// reaches the trace. Safe to call when tracing is off.
  void flush_stall_episode(Cycle now);

  /// Structured ROB + LSU state for deadlock post-mortems.
  Json snapshot_json() const;

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

  /// Wake-chain nodes ever allocated: the high-water mark of tagged
  /// operands waiting at once (a free list recycles them).
  std::size_t wake_nodes_allocated() const { return wake_nodes_.size(); }

 private:
  static constexpr std::uint32_t kNoNode = ~0u;

  struct RobEntry {
    std::uint64_t seq = 0;
    const Instruction* inst = nullptr;  ///< in program_, at pc_of(*this)
    std::array<Word, 2> src{};  ///< ALU/branch source values, once ready
    Word result = 0;
    /// This entry's consumer chain in wake_nodes_, oldest consumer first.
    std::uint32_t consumers = kNoNode;
    std::uint32_t consumers_tail = kNoNode;
    std::uint8_t waiting = 0; ///< ALU/branch sources still in a consumer chain
    bool executed = false;    ///< ALU/branch has been executed
    bool value_ready = false; ///< rd value available (speculative for RMW)
    bool performed = false;   ///< memory access performed
    bool released = false;    ///< store/RMW released to the store buffer
    bool spec_value = false;  ///< result is an Appendix-A speculative RMW value
    bool predicted_taken = false;
  };

  struct FetchedInst {
    std::size_t pc = 0;
    bool predicted_taken = false;
  };

  /// A source operand waiting on its producer's value: one link in the
  /// producer's consumer chain, or in the free list.
  struct WakeNode {
    std::uint64_t consumer = 0;  ///< seq of the waiting ROB entry
    std::uint32_t next = kNoNode;
    /// Index into an ALU/branch consumer's src, or kLsuOperand plus a
    /// LoadStoreUnit::OperandSlot for a memory op's operand.
    std::uint8_t operand = 0;
  };
  static constexpr std::uint8_t kLsuOperand = 2;

  static constexpr std::uint64_t kNoProducer = ~0ull;
  /// rename_[r]: the youngest in-flight producer of r (kNoProducer when
  /// the register file holds r), and its value once that is available.
  struct RenameEntry {
    std::uint64_t seq = kNoProducer;
    bool ready = false;
    Word value = 0;
  };

  /// The pipeline's cycle: everything tick() does besides settling.
  void tick_live(Cycle now);
  void do_commit(Cycle now);
  void do_execute(Cycle now);
  void do_dispatch(Cycle now);
  void do_fetch(Cycle now);
  /// Why is the ROB head not retiring this cycle? (const; no side effects)
  StallCause classify_stall() const;
  void account_cycle(bool retired_any, Cycle now);
  void squash_from(std::uint64_t seq, std::size_t refetch_pc, Cycle now,
                   SquashOrigin origin = SquashOrigin::kPipeline);

  /// Bisect for `seq`; nullptr when it is not in the ROB.
  RobEntry* rob_find(std::uint64_t seq);
  std::size_t pc_of(const RobEntry& e) const {
    return static_cast<std::size_t>(e.inst - program_.instructions().data());
  }
  /// A renamed source register: its operand and, when the operand is
  /// tagged, the producer's ROB entry, so the wait needs no second lookup.
  struct Source {
    Operand op;
    RobEntry* producer = nullptr;
  };
  Source resolve(RegId reg);
  /// Give a dispatched ALU/branch entry its source `i`: the value, or a
  /// wait in its producer's consumer chain for a tagged operand.
  void add_source(RobEntry& e, std::uint8_t i, const Source& s);
  /// Hand a memory op to the LSU; its tagged operands wait in their
  /// producers' consumer chains.
  void dispatch_to_lsu(const RobEntry& e, std::size_t pc, const Instruction& in);
  /// Append `consumer`'s operand to the chain of its in-flight producer.
  void wait_on(RobEntry& producer, std::uint64_t consumer, std::uint8_t operand);
  /// Return e's whole consumer chain to the free list.
  void free_chain(RobEntry& e);
  /// e's destination value is available: record it, publish it to the
  /// rename table, and wake its consumers.
  void set_value(RobEntry& e, Word value);
  void writeback(const RobEntry& e);
  /// Wake every operand in e's consumer chain, then free the chain.
  void broadcast(RobEntry& e, Word value);
  /// Mark an in-tick state mutation (see next_event()).
  void note_progress() { progress_ = true; }

  // --- periodic sleep (see settle) -----------------------------------
  enum class Period : std::uint8_t {
    kOff,     ///< not allowed: costs one branch per tick
    kWatch,   ///< counting quiet ticks, looking for a repeating signature
    kProbe1,  ///< candidate period found: recording at S1, one period on
    kProbe2,  ///< comparing at S2, one period after S1
    kAsleep,  ///< proven periodic; next_event() parks it at max_cycles
  };
  /// Ticks whose signatures are kept: the longest period looked for + 1.
  static constexpr std::size_t kSignatures = 16;
  struct PeriodState {
    Period phase = Period::kOff;
    Cycle last_tick = kCycleNever;  ///< cycle of the previous live tick
    std::uint64_t cache_activity = 0;
    std::uint64_t quiet = 0;        ///< consecutive quiet ticks so far
    std::uint64_t last_seq = 0, last_retired = 0, last_token = 0;
    std::array<std::uint64_t, kSignatures> signatures{};
    Cycle period = 0;
    Cycle probe_at = 0;             ///< tick at whose end the next record is taken
    Cycle retry_at = 0;             ///< no new probe before this tick
    Cycle backoff = 0;              ///< grows with each failed probe in a quiet run
    std::uint64_t probe_seq = 0, probe_token = 0;
    PeriodRecordPool* pool = nullptr;
    std::unique_ptr<PeriodRecords> records;  ///< borrowed for one probe
    PeriodWalk::Shift shift;
    std::vector<std::uint64_t> deltas;  ///< per period, by counter in walk order
  };
  /// After a live tick: track quiet ticks, probe for a period, sleep.
  void watch_period(Cycle now);
  void restart_watch();
  /// Occupancies, fetch pc, stall cause and one tick's seq/retired/token
  /// growth, mixed into one word.
  std::uint64_t period_signature() const;
  /// Return the walker (for a comparer's verdict); never inlined into the per-tick code.
  template <typename Walk>
  [[gnu::noinline]] Walk& walk_counters(Walk&& w);
  /// Everything a live tick reads or writes, the cache side included.
  template <typename Walk>
  [[gnu::noinline]] Walk& walk_state(Walk&& w);

  ProcId id_;
  /// This core's resolved configuration: the machine-wide settings
  /// with any per_core override for this processor already applied.
  SystemConfig cfg_;
  const Program& program_;
  CoherentCache& cache_;
  TraceEventSink* events_;

  BranchPredictor predictor_;
  FixedQueue<FetchedInst> fetch_buf_;
  /// Head first, seqs ascending. Seqs are never reused, so they have
  /// gaps after a squash. Slots never move, so an entry is a stable
  /// home for its consumer chain.
  FixedQueue<RobEntry> rob_;
  /// Seqs of the unexecuted ALU/branch entries whose operands are both
  /// ready, ascending: execute takes the oldest num_alus.
  std::pmr::vector<std::uint64_t> ready_;
  /// Node pool of the consumer chains: every tagged operand of a ROB
  /// entry, the LSU's included. A chain is freed whole when its producer
  /// broadcasts or is squashed. A node whose consumer was squashed stays
  /// in its surviving producer's chain and is skipped at the broadcast
  /// (seqs are never reused, so the consumer is simply gone). Room for
  /// two operands per ROB entry; squashes can strand more, and then it
  /// grows to that high-water mark.
  std::pmr::vector<WakeNode> wake_nodes_;
  std::uint32_t wake_free_ = kNoNode;  ///< head of the free list
  /// This cycle's ALU results, applied at the end of execute. The
  /// entries are ROB slots, which stay put while they are in the ROB.
  std::pmr::vector<std::pair<RobEntry*, Word>> results_;
  std::array<Word, kNumArchRegs> regfile_{};
  std::array<RenameEntry, kNumArchRegs> rename_{};

  LoadStoreUnit lsu_;

  std::size_t fetch_pc_ = 0;
  bool fetch_stopped_ = false;   ///< fetched past a halt
  bool dispatch_stopped_ = false;///< dispatched a halt
  bool halted_ = false;          ///< halt retired
  Cycle halt_cycle_ = 0;

  std::uint64_t next_seq_ = 1;
  std::uint64_t retired_ = 0;

  /// Core state mutated this tick; starts armed (the constructor may
  /// pre-fill the pipeline, and the first tick must always run live).
  bool progress_ = true;

  StallBreakdown stall_{};
  /// Cause the last tick charged, and the first cycle not yet charged
  /// (kCycleNever until the first tick, which then charges no gap).
  StallCause last_cause_ = StallCause::kBusy;
  Cycle uncharged_from_ = kCycleNever;
  StallCause episode_cause_ = StallCause::kBusy;
  Cycle episode_start_ = 0;

  StatSet stats_;

  PeriodState period_;
  std::uint64_t period_ticks_settled_ = 0;
};

}  // namespace mcsim
