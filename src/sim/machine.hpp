// Machine: N dynamically-scheduled cores with private coherent caches,
// a directory/memory module, and the interconnect — the whole
// multiprocessor of the paper, driven by a single deterministic clock.
//
// This is the top-level public API:
//
//   SystemConfig cfg = SystemConfig::paper_default(2, ConsistencyModel::kSC);
//   cfg.core.prefetch = PrefetchMode::kNonBinding;
//   Machine m(cfg, {producer_program, consumer_program});
//   RunResult r = m.run();
//   // r.cycles, m.read_word(addr), m.core(0).reg(3), ...
#pragma once

#include <memory>
#include <memory_resource>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/stall.hpp"
#include "common/trace_event.hpp"
#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "cpu/core.hpp"
#include "interconnect/network.hpp"
#include "isa/program.hpp"
#include "sim/sched.hpp"

namespace mcsim {

struct RunResult {
  Cycle cycles = 0;        ///< cycle at which the last processor drained
  Cycle ticks = 0;         ///< machine cycles actually stepped (>= cycles:
                           ///< the clock runs on while memory quiesces)
  bool deadlocked = false; ///< hit cfg.max_cycles before completion
  /// Fast-forward only: the cycle at which nothing was left to wake
  /// (no armed component, yet not done) — a true deadlock, reported
  /// here while the clock still runs on to max_cycles. kCycleNever
  /// when the run never wedged.
  Cycle wedged_at = kCycleNever;
  std::vector<std::uint64_t> retired;     ///< instructions per processor
  std::vector<Cycle> drain_cycle;         ///< per-processor completion time
  /// Per-processor cycles-by-cause; each entry sums to `ticks` exactly
  /// (a core the scheduler let sleep is charged for the skipped cycles).
  std::vector<StallBreakdown> stall;
};

class Machine {
 public:
  /// One program per processor; programs.size() must equal cfg.num_procs.
  /// Every program's data initializers are applied to memory up front.
  Machine(const SystemConfig& cfg, std::vector<Program> programs);

  /// Run to completion (all processors drained, memory system quiet).
  /// With cfg.fastforward (the default) quiescent spans are skipped via
  /// next_event_cycle(); the result is cycle-identical to the naive
  /// per-cycle loop (pinned by tests/integration/fastforward_equivalence
  /// and, in Debug builds, the MCSIM_FF_AUDIT lockstep shadow machine).
  RunResult run();

  /// Advance a single cycle (benches and the Figure-5 trace use this).
  void step();

  /// Earliest cycle at which any component can make progress: the min
  /// of every component's next_event(). A value <= now() means the
  /// next tick must run live; a larger value proves every tick before
  /// it is either a no-op or the tick of a core asleep in a periodic
  /// spin, which Core::settle reproduces on wake; kCycleNever means the
  /// machine is permanently quiescent (done, or deadlocked until
  /// max_cycles). O(1) while
  /// run()'s active-set loop is live (the scheduler heap top, see
  /// sim/sched.hpp); otherwise the O(P) sweep that is the ground truth
  /// behind the heap's arming contract.
  Cycle next_event_cycle() const;

  Cycle now() const { return cycle_; }
  /// O(1): undrained-core and busy-cache counters plus the network's
  /// and directory's own O(1) idle checks. Audited against the full
  /// scan under MCSIM_FF_AUDIT.
  bool done() const;

  Core& core(ProcId p) { return procs_.at(p).core; }
  const Core& core(ProcId p) const { return procs_.at(p).core; }
  CoherentCache& cache(ProcId p) { return procs_.at(p).cache; }
  const CoherentCache& cache(ProcId p) const { return procs_.at(p).cache; }
  DirectoryGroup& directory() { return dir_; }
  const DirectoryGroup& directory() const { return dir_; }
  Network& network() { return net_; }
  /// Chrome trace-event timeline; call .enable() before run() to record.
  /// run() names the tracks when the sink is enabled.
  TraceEventSink& trace_events() { return events_; }
  const TraceEventSink& trace_events() const { return events_; }
  const SystemConfig& config() const { return cfg_; }

  /// Coherent value of a word after (or during) a run: an exclusive
  /// cached copy wins over memory.
  Word read_word(Addr a) const;

  /// Experiment setup: warm `p`'s cache with the line containing `a`
  /// (contents from memory), shared or exclusive, keeping the
  /// directory consistent. Call before run()/step().
  void preload_shared(ProcId p, Addr a);
  void preload_exclusive(ProcId p, Addr a);

  /// Aggregated stats from every component, one line per counter,
  /// followed by per-core stall-cause breakdowns.
  std::string stats_report() const;

  /// Structured snapshot of all in-flight state (ROBs, LSU queues,
  /// network messages, directory transactions) for deadlock reports.
  Json post_mortem() const;

  /// Per-processor architectural access logs (cfg.record_accesses).
  std::vector<std::vector<AccessRecord>> access_logs() const;

 private:
  /// Replayed preload_* call, so the MCSIM_FF_AUDIT shadow machine can
  /// be constructed into the same initial state.
  struct PreloadRecord {
    bool shared = false;
    ProcId proc = 0;
    Addr addr = 0;
  };

  // --- active-set scheduling (see docs/INTERNALS.md §2) --------------
  //
  // Component-id scheme, chosen so the heap's (cycle, id) pop order IS
  // the naive loop's stage order within a cycle:
  //   0                    network (deliver)
  //   1 .. B               directory banks
  //   B+1 .. B+P           caches
  //   B+P+1 .. B+2P        cores
  Scheduler::CompId net_comp() const { return 0; }
  Scheduler::CompId bank_comp(std::uint32_t b) const { return 1 + b; }
  Scheduler::CompId cache_comp(ProcId p) const { return 1 + dir_.num_banks() + p; }
  Scheduler::CompId core_comp(ProcId p) const {
    return 1 + dir_.num_banks() + cfg_.num_procs + p;
  }

  /// Register every track's name on events_.
  void name_tracks();
  /// Arm every component for the current machine state and mark the
  /// scheduler live (run()'s fast-forward loop entry).
  void init_scheduler();
  /// Run every component armed at cycle_ in stage order, then advance
  /// the clock. The active-set replacement for step(): per-cycle cost
  /// is proportional to the number of armed components, not P.
  void step_active();
  /// Core p's live tick plus its drain bookkeeping and the re-arming
  /// of itself, and of its cache while a deferred fill waits to retry.
  void tick_core_live(ProcId p);
  /// Charge every core's skipped cycles up to cycle_ (Core::settle).
  void settle_cores();
  /// Network delivery hook: arm the receiving cache/bank for this cycle.
  void on_delivery(EndpointId ep);

  /// Ground truth behind done()'s counters (audit + cold paths).
  bool done_scan() const;
#ifdef MCSIM_FF_AUDIT
  std::string audit_fingerprint() const;
#endif

  /// Every component's config-sized storage, and what its queues grow
  /// into: one monotonic arena, released whole with the machine. First,
  /// so it outlives every member that draws from it.
  std::pmr::monotonic_buffer_resource arena_;
  SystemConfig cfg_;
  TraceEventSink events_;
  std::vector<Program> programs_;
  Network net_;
  DirectoryGroup dir_;
  /// One processor: its cache and core, and whether and when the core
  /// drained.
  struct Proc {
    Proc(ProcId p, const SystemConfig& cfg, const Program& program, Network& net,
         TraceEventSink* events, std::pmr::memory_resource* arena)
        : cache(p, cfg.cache, cfg.mem, net, cfg.num_procs, cfg.core_for(p).max_requests(),
                arena),
          core(p, cfg, program, cache, events, arena) {}
    CoherentCache cache;
    Core core;
    bool drained = false;
    Cycle drain_cycle = 0;
  };
  std::pmr::vector<Proc> procs_;  ///< reserved: a processor never moves
  std::vector<PreloadRecord> preload_log_;  ///< kept by MCSIM_FF_AUDIT builds only
  std::uint64_t undrained_cores_ = 0;  ///< cores not drained
  std::uint64_t busy_caches_ = 0;      ///< caches with pending work
  Cycle cycle_ = 0;

  /// RunResult::wedged_at of the last run() (post-mortems report it).
  Cycle wedged_at_ = kCycleNever;

  // --- active-set scheduler state (live only inside run()'s ff loop) -
  Scheduler sched_;
  bool sched_live_ = false;
  /// Lent to cores probing for a periodic spin (Core::settle).
  PeriodRecordPool period_records_;
  /// done()-audit sampling counter. Unconditional on purpose: the
  /// MCSIM_FF_AUDIT macro is private to the sim target, so a member
  /// behind it would give this header two different layouts.
  mutable std::uint64_t done_calls_ = 0;
};

}  // namespace mcsim
