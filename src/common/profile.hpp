// Technique-efficacy profiler (--profile): the shared vocabulary for
// attributing every prefetch, every speculative-load squash, and every
// directory sharing event to exactly one cause.
//
// The paper's argument is causal — prefetching and speculative loads
// hide latency EXCEPT when lines are invalidated before use (§3.1) or
// speculation is rolled back (§4) — so the profiler classifies, it
// does not merely count:
//
//   prefetch outcomes   issued == useful + late + useless
//                                 + killed_inval + killed_update
//                                 + pending_at_end
//   rollback causes     rollbacks == invalidate + update
//                                  + replacement + flush
//
// Both sums are exact conservation invariants, pinned by
// tests/property/profile_property_test.cpp across models, topologies,
// and fast-forward on/off. Counters live in the owning component's
// StatSet (cache / LSU / directory) under the ids below, so they flow
// through stats_report() — and therefore through the MCSIM_FF_AUDIT
// fingerprint — for free. The per-line sharing ledger is the one piece
// of profiler state outside a StatSet; SharingLedger::fingerprint()
// feeds the audit instead.
//
// Everything here is opt-in via SystemConfig::profile and must cost
// one predictable branch per site when off (guarded by the
// BM_MachineProfilerOff/On micro-bench pair).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace mcsim {

namespace prof {

// --- prefetch outcome attribution (cache StatSets) -------------------
extern const StatId pf_issued;        ///< "pf.issued": tags installed
extern const StatId pf_useful;        ///< demand hit the line after the fill
extern const StatId pf_late;          ///< demand merged while fill in flight
extern const StatId pf_useless;       ///< evicted (or superseded) untouched
extern const StatId pf_killed_inval;  ///< invalidated/recalled before use (§3.1)
extern const StatId pf_killed_update; ///< update arrived before use
/// Histogram: cycles of head start a LATE prefetch still bought
/// (issue -> demand merge; the demand waits only the remainder).
extern const StatId pf_head_start;
/// Histogram: fill -> first demand use, for USEFUL prefetches.
extern const StatId pf_use_distance;

// --- rollback-cause attribution (LSU / core StatSets) ----------------
extern const StatId rb_invalidate;   ///< "rb.cause.invalidate"
extern const StatId rb_update;       ///< "rb.cause.update"
extern const StatId rb_replacement;  ///< "rb.cause.replacement"
extern const StatId rb_flush;        ///< pipeline squash drained live entries
/// Histogram: value-bound -> squash, the wasted-work window per
/// coherence-caused rollback (consumers may have run that long on a
/// value that is now void).
extern const StatId rb_wasted;
/// Histogram (core): ROB entries dropped per squash, any origin.
extern const StatId rb_squash_depth;

// --- sharing-ledger aggregates (directory StatSet) -------------------
extern const StatId sh_inv_fanout;   ///< histogram: invalidates per round
extern const StatId sh_upd_fanout;   ///< histogram: updates per round
extern const StatId sh_read_share;   ///< histogram: sharer degree per read grant

// --- directory queueing (directory StatSet, reported "dir.queue_wait") -
/// Histogram: cycles a request waited behind another transaction on
/// its line (deferred on arrival -> replayed when the line frees).
extern const StatId dir_queue_wait;

}  // namespace prof

/// Per-cell prefetch outcome totals (experiment aggregation).
struct PrefetchOutcomes {
  std::uint64_t issued = 0;
  std::uint64_t useful = 0;
  std::uint64_t late = 0;
  std::uint64_t useless = 0;
  std::uint64_t killed_inval = 0;
  std::uint64_t killed_update = 0;
  std::uint64_t pending_at_end = 0;

  std::uint64_t resolved() const {
    return useful + late + useless + killed_inval + killed_update;
  }
  /// The tentpole invariant: every issue resolves exactly once.
  bool conserved() const { return issued == resolved() + pending_at_end; }
};

/// Per-cell rollback cause totals (experiment aggregation).
struct RollbackCauses {
  std::uint64_t invalidate = 0;
  std::uint64_t update = 0;
  std::uint64_t replacement = 0;
  std::uint64_t flush = 0;
  std::uint64_t total() const { return invalidate + update + replacement + flush; }
};

/// Per-line sharing behaviour, accumulated at the directory: who is
/// fighting over which line, and how (ROADMAP's "does SC≈RC survive
/// invalidation fan-out" needs exactly this).
struct LineSharing {
  std::uint64_t inv_rounds = 0;   ///< invalidation rounds for the line
  std::uint64_t inv_sent = 0;     ///< invalidation messages fanned out
  std::uint64_t upd_rounds = 0;   ///< update fan-out rounds (update protocol)
  std::uint64_t upd_sent = 0;     ///< update messages fanned out
  std::uint64_t ping_pong = 0;    ///< exclusive grant moved to a different core
  std::uint64_t reads = 0;        ///< read (shared) grants served
  std::uint32_t max_sharers = 0;  ///< peak read-share degree
  ProcId last_ex_owner = kNoProc;

  /// Contention ranking key for the top-N table: coherence messages
  /// the line forced, plus every ownership bounce.
  std::uint64_t contention_score() const { return inv_sent + upd_sent + ping_pong; }
};

/// The per-line sharing ledger (tentpole layer 3). Lives in the
/// directory; all hooks fire on live message handling only, so the
/// ledger is identical under fast-forward and the naive loop.
class SharingLedger {
 public:
  void on_invalidation_round(Addr line, std::uint32_t fanout);
  void on_update_round(Addr line, std::uint32_t fanout);
  /// Exclusive grant handed to `to`; counts a ping-pong when ownership
  /// moved between two different cores.
  void on_exclusive_grant(Addr line, ProcId to);
  void on_read_share(Addr line, std::uint32_t sharers);

  struct TopEntry {
    Addr line = 0;
    LineSharing s;
  };
  /// Top `n` lines by contention_score() (ties broken by address, so
  /// the table is deterministic).
  std::vector<TopEntry> top(std::size_t n) const;

  /// Deterministic full dump for the MCSIM_FF_AUDIT fingerprint.
  std::string fingerprint() const;

  std::size_t lines_tracked() const { return lines_.size(); }
  bool empty() const { return lines_.empty(); }

 private:
  std::unordered_map<Addr, LineSharing> lines_;
};

/// One directory bank's share of the fan-out/sharing and queue-wait
/// histograms (bench JSON "profile.dir_banks"). The per-bank counts
/// sum to the aggregate histograms exactly — each fan-out round and
/// each deferred request is recorded at exactly one home bank — which
/// validate_bench_json checks as a conservation law.
struct DirBankProfile {
  std::uint32_t bank = 0;
  LogHistogram inv_fanout;
  LogHistogram upd_fanout;
  LogHistogram read_share;
  LogHistogram queue_wait;  ///< v8
};

/// Everything the profiler measured in one cell, aggregated across
/// processors by ExperimentRunner::run_cell (schema mcsim-bench-v8).
struct ProfileStats {
  bool enabled = false;
  PrefetchOutcomes prefetch;
  RollbackCauses rollbacks;
  LogHistogram pf_head_start;
  LogHistogram pf_use_distance;
  LogHistogram rb_wasted;
  LogHistogram squash_depth;
  LogHistogram inv_fanout;
  LogHistogram upd_fanout;
  LogHistogram read_share;
  LogHistogram queue_wait;  ///< v8: cycles deferred behind a busy line
  /// v7: the same histograms attributed per home bank.
  std::vector<DirBankProfile> dir_banks;
  /// DirectoryGroup::contended_lines_json rows (v7 adds home_bank).
  Json top_lines = Json::array();
};

}  // namespace mcsim
