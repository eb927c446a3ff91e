#include "cpu/core.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/profile.hpp"

namespace mcsim {

namespace {
// Stat names interned once at static-init; hot paths use the ids.
namespace stat {
const StatId branch_mispredicts = StatNames::intern("branch_mispredicts");
const StatId rmw_spec_values = StatNames::intern("rmw_spec_values");
const StatId rmw_value_mispredicts = StatNames::intern("rmw_value_mispredicts");
const StatId squashed_instructions = StatNames::intern("squashed_instructions");
const StatId squashes = StatNames::intern("squashes");
}  // namespace stat

// Trace-event names for stall episodes, one per cause, interned once.
TraceEventSink::NameId stall_event_name(StallCause c) {
  static const std::array<TraceEventSink::NameId, kNumStallCauses> ids = [] {
    std::array<TraceEventSink::NameId, kNumStallCauses> a{};
    for (std::size_t i = 0; i < kNumStallCauses; ++i) {
      a[i] = TraceEventSink::name_id(std::string("stall:") +
                                     to_string(static_cast<StallCause>(i)));
    }
    return a;
  }();
  return ids[static_cast<std::size_t>(c)];
}

const TraceEventSink::NameId ev_squash = TraceEventSink::name_id("squash");
const TraceEventSink::NameId arg_seq = TraceEventSink::name_id("seq");
const TraceEventSink::NameId arg_dropped = TraceEventSink::name_id("dropped");
}  // namespace

namespace {
constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

SystemConfig resolve_for(const SystemConfig& cfg, ProcId id) {
  SystemConfig out = cfg;
  out.core = cfg.core_for(id);
  out.per_core.clear();
  return out;
}

// Even an ideal frontend cannot usefully run further ahead than the ROB
// can drain in one cycle: fetch happens after dispatch in the tick, so
// next cycle's dispatch consumes at most rob_entries slots. An
// unlimited cap would chase a predicted-taken spin loop for the whole
// safety-valve budget every single tick.
std::size_t fetch_buffer_cap(const CoreConfig& c) {
  return c.ideal_frontend ? std::max<std::size_t>(c.rob_entries, 2 * c.fetch_width)
                          : 2 * c.fetch_width;
}

// Periodic sleep: quiet ticks before a probe may start, and the wait
// after a failed probe, doubled per failure within one quiet run.
constexpr std::uint64_t kMinQuietTicks = 4;
constexpr Cycle kMinProbeBackoff = 16;
constexpr Cycle kMaxProbeBackoff = 16384;
}  // namespace

Core::Core(ProcId id, const SystemConfig& cfg, const Program& program,
           CoherentCache& cache, TraceEventSink* events, std::pmr::memory_resource* arena)
    : id_(id),
      cfg_(resolve_for(cfg, id)),
      program_(program),
      cache_(cache),
      events_(events),
      predictor_(cfg_.core.btb_entries, arena),
      fetch_buf_(fetch_buffer_cap(cfg_.core), arena),
      rob_(cfg_.core.rob_entries, arena),
      ready_(arena),
      wake_nodes_(arena),
      results_(arena),
      lsu_(id, cfg_, program.size(), cache, *this, events, arena),
      stats_("core" + std::to_string(id), cfg_.profile ? 1 : 0, arena) {  // rb_squash_depth
  ready_.reserve(cfg_.core.rob_entries);
  wake_nodes_.reserve(2 * std::size_t{cfg_.core.rob_entries});
  results_.reserve(cfg_.core.num_alus);
  cache.set_observer(this);
  if (cfg_.core.ideal_frontend) {
    // The paper's walkthroughs assume the program is already decoded
    // and sitting in the reorder buffer at cycle 0.
    do_fetch(0);
    do_dispatch(0);
  }
}

Core::RobEntry* Core::rob_find(std::uint64_t seq) {
  // Seqs in the ROB are sorted but not contiguous: a squash discards a
  // suffix while the dynamic-id counter keeps advancing, so the next
  // dispatched instruction leaves a gap. Gaps only push an entry toward
  // the head, so its offset from the head's seq bounds its index and,
  // with no gap in between, is its index.
  if (rob_.empty() || seq < rob_.front().seq) return nullptr;
  std::size_t lo = 0;
  std::size_t hi = std::min<std::uint64_t>(seq - rob_.front().seq, rob_.size() - 1);
  if (rob_.at(hi).seq == seq) return &rob_.at(hi);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (rob_.at(mid).seq < seq)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (rob_.at(lo).seq != seq) return nullptr;
  return &rob_.at(lo);
}

Core::Source Core::resolve(RegId reg) {
  if (reg == 0) return {Operand::immediate(0)};
  const RenameEntry& r = rename_[reg];
  if (r.seq == kNoProducer) return {Operand::immediate(regfile_[reg])};
  // Producer is still in flight; it must be in the ROB.
  RobEntry* producer = rob_find(r.seq);
  assert(producer != nullptr && "rename table points at a live ROB entry");
  if (r.ready) return {Operand::immediate(r.value)};
  return {Operand::tagged(r.seq), producer};
}

void Core::add_source(RobEntry& e, std::uint8_t i, const Source& s) {
  if (s.op.ready) {
    e.src[i] = s.op.value;
    return;
  }
  wait_on(*s.producer, e.seq, i);
  ++e.waiting;
}

void Core::dispatch_to_lsu(const RobEntry& e, std::size_t pc, const Instruction& in) {
  const std::array<Source, 4> srcs = {resolve(in.mem.base), resolve(in.mem.index),
                                      resolve(in.rs2), resolve(in.rs1)};
  for (std::uint8_t i = 0; i < srcs.size(); ++i) {
    if (!srcs[i].op.ready)
      wait_on(*srcs[i].producer, e.seq, static_cast<std::uint8_t>(kLsuOperand + i));
  }
  lsu_.dispatch(e.seq, pc, in, srcs[LoadStoreUnit::kBase].op, srcs[LoadStoreUnit::kIndex].op,
                srcs[LoadStoreUnit::kData].op, srcs[LoadStoreUnit::kCmp].op);
}

void Core::set_value(RobEntry& e, Word value) {
  e.value_ready = true;
  e.result = value;
  const Instruction& in = *e.inst;
  if (in.writes_rd() && in.rd != 0 && rename_[in.rd].seq == e.seq) {
    rename_[in.rd].ready = true;
    rename_[in.rd].value = value;
  }
  broadcast(e, value);
}

void Core::writeback(const RobEntry& e) {
  const Instruction& in = *e.inst;
  if (in.writes_rd() && in.rd != 0) {
    regfile_[in.rd] = e.result;
    if (rename_[in.rd].seq == e.seq) rename_[in.rd] = RenameEntry{};
  }
}

void Core::wait_on(RobEntry& p, std::uint64_t consumer, std::uint8_t operand) {
  std::uint32_t n = wake_free_;
  if (n != kNoNode) {
    wake_free_ = wake_nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(wake_nodes_.size());
    wake_nodes_.emplace_back();
  }
  wake_nodes_[n] = WakeNode{consumer, kNoNode, operand};
  if (p.consumers == kNoNode)
    p.consumers = n;
  else
    wake_nodes_[p.consumers_tail].next = n;
  p.consumers_tail = n;
}

void Core::free_chain(RobEntry& e) {
  if (e.consumers == kNoNode) return;
  wake_nodes_[e.consumers_tail].next = wake_free_;
  wake_free_ = e.consumers;
  e.consumers = e.consumers_tail = kNoNode;
}

void Core::broadcast(RobEntry& e, Word value) {
  for (std::uint32_t n = e.consumers; n != kNoNode; n = wake_nodes_[n].next) {
    const WakeNode& w = wake_nodes_[n];
    if (w.operand >= kLsuOperand) {
      // A no-op for a memory op that has left the LSU or been squashed.
      lsu_.wake_operand(w.consumer,
                        static_cast<LoadStoreUnit::OperandSlot>(w.operand - kLsuOperand), e.seq,
                        value);
      continue;
    }
    RobEntry* c = rob_find(w.consumer);
    if (c == nullptr) continue;  // squashed after it joined the chain
    c->src[w.operand] = value;
    if (--c->waiting == 0)
      ready_.insert(std::upper_bound(ready_.begin(), ready_.end(), w.consumer), w.consumer);
  }
  free_chain(e);
}

void Core::tick(Cycle now) {
  settle(now);
  // A periodic core is ticked only once its cache has acted: it wakes.
  if (period_.phase == Period::kAsleep) restart_watch();
  tick_live(now);
  if (period_.phase != Period::kOff) watch_period(now);
}

void Core::tick_live(Cycle now) {
  progress_ = false;
  lsu_.clear_progress();
  const std::uint64_t retired_before = retired_;
  lsu_.drain_responses(now);
  lsu_.retire_spec_entries(now);
  lsu_.tick_addr_unit(now);
  do_commit(now);
  do_execute(now);
  do_dispatch(now);
  lsu_.tick_issue(now);
  do_fetch(now);
  if (retired_ != retired_before) note_progress();
  account_cycle(retired_ != retired_before, now);
}

void Core::account_cycle(bool retired_any, Cycle now) {
  const StallCause c = retired_any ? StallCause::kBusy : classify_stall();
  ++stall_[static_cast<std::size_t>(c)];
  last_cause_ = c;
  uncharged_from_ = now + 1;
  if (events_ != nullptr && events_->enabled() && c != episode_cause_) {
    flush_stall_episode(now);
    episode_cause_ = c;
    episode_start_ = now;
  }
}

void Core::settle(Cycle now) {
  if (now <= uncharged_from_) return;
  if (period_.phase == Period::kAsleep) {
    const std::uint64_t periods = (now - uncharged_from_) / period_.period;
    if (periods > 0) {
      PeriodWalk::Shifter shift(period_.shift, periods, period_.deltas);
      walk_counters(shift);
      walk_state(shift);  // moves uncharged_from_ by the whole periods
      period_ticks_settled_ += periods * period_.period;
    }
    while (uncharged_from_ < now) tick_live(uncharged_from_);
    return;
  }
  // Only a tick that made no progress lets the core sleep, so the cause
  // it charged is its frozen classification (and the open episode's).
  assert(classify_stall() == last_cause_ &&
         "a sleeping core's state changed before it was settled");
  stall_[static_cast<std::size_t>(last_cause_)] += now - uncharged_from_;
  uncharged_from_ = now;
}

void Core::allow_periodic_sleep(PeriodRecordPool* pool) {
  restart_watch();
  period_.pool = pool;
  period_.phase = pool != nullptr ? Period::kWatch : Period::kOff;
  period_.last_tick = kCycleNever;
}

void Core::restart_watch() {
  PeriodState& ps = period_;
  if (ps.phase != Period::kWatch) cache_.stop_touch_log();
  if (ps.records != nullptr) ps.pool->give(std::move(ps.records));
  ps.phase = Period::kWatch;
  ps.quiet = 0;
  ps.retry_at = 0;
  ps.backoff = kMinProbeBackoff;
}

std::uint64_t Core::period_signature() const {
  std::uint64_t h = lsu_.occupancy();
  const auto mix = [&h](std::uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  };
  mix(rob_.size() | ready_.size() << 16 | fetch_buf_.size() << 32 |
      static_cast<std::uint64_t>(last_cause_) << 48);
  mix(fetch_pc_);
  mix(next_seq_ - period_.last_seq);
  mix(retired_ - period_.last_retired);
  mix(lsu_.next_token() - period_.last_token);
  return h;
}

void Core::watch_period(Cycle now) {
  PeriodState& ps = period_;
  // Quiet: a live tick right after the previous one, in which the cache
  // handled no message, allocated or joined no MSHR, and holds no word
  // op or deferred fill (walk_state compares the MSHRs it does hold).
  const bool quiet = (progress_ || lsu_.progressed()) && ps.last_tick + 1 == now &&
                     cache_.activity() == ps.cache_activity && !cache_.holds_transactions();
  ps.last_tick = now;
  ps.cache_activity = cache_.activity();
  if (!quiet) {
    restart_watch();
    return;
  }
  ++ps.quiet;
  if (ps.phase == Period::kWatch) {
    // Backing off after a failed probe: signatures are needed again only
    // for the last kSignatures ticks before the next one.
    if (now + kSignatures < ps.retry_at) return;
    const std::uint64_t sig = period_signature();
    ps.last_seq = next_seq_;
    ps.last_retired = retired_;
    ps.last_token = lsu_.next_token();
    ps.signatures[ps.quiet % kSignatures] = sig;
    if (ps.quiet < kMinQuietTicks || now < ps.retry_at) return;
    for (Cycle t = 1; t < kSignatures && t < ps.quiet; ++t) {
      if (ps.signatures[(ps.quiet - t) % kSignatures] != sig) continue;
      // A candidate period: record the counters now (S0), counters and state
      // a period on (S1); compare a period later (S2). The cache logs hit ways.
      ps.period = t;
      ps.probe_at = now + t;
      ps.records = ps.pool->take();
      walk_counters(PeriodWalk::Recorder(ps.records->counters[0]));
      cache_.start_touch_log();
      ps.phase = Period::kProbe1;
      return;
    }
    return;
  }
  if (now < ps.probe_at) return;
  PeriodRecords& r = *ps.records;
  if (ps.phase == Period::kProbe1) {
    walk_counters(PeriodWalk::Recorder(r.counters[1]));
    walk_state(PeriodWalk::Recorder(r.state));
    ps.probe_seq = next_seq_;
    ps.probe_token = lsu_.next_token();
    cache_.start_touch_log();
    ps.probe_at = now + ps.period;
    ps.phase = Period::kProbe2;
    return;
  }
  cache_.stop_touch_log();
  ps.shift.by = {next_seq_ - ps.probe_seq, lsu_.next_token() - ps.probe_token, ps.period};
  const bool periodic =
      walk_state(PeriodWalk::StateComparer(r.state, ps.shift.by)).finish(ps.shift) &&
      walk_counters(PeriodWalk::CounterComparer(r.counters[0], r.counters[1], ps.deltas)).finish();
  ps.pool->give(std::move(ps.records));
  if (periodic) {
    ps.phase = Period::kAsleep;
    return;
  }
  ps.phase = Period::kWatch;
  ps.quiet = 0;
  ps.retry_at = now + ps.backoff;
  ps.backoff = std::min(2 * ps.backoff, kMaxProbeBackoff);
}

bool Core::probe_state(PeriodWalk::Record& s1) {
  walk_state(PeriodWalk::Recorder(s1));
  PeriodWalk::Shift shift;
  return walk_state(PeriodWalk::StateComparer(s1, shift.by)).finish(shift);
}

template <typename Walk>
Walk& Core::walk_counters(Walk&& w) {
  stats_.walk(w);
  for (std::uint64_t& cycles : stall_) w.counter(cycles);
  w.counter(retired_);
  lsu_.stats().walk(w);
  cache_.stats().walk(w);
  return w;
}

template <typename Walk>
Walk& Core::walk_state(Walk&& w) {
  // The LSU first: a failing probe fails there (on a store's stamps), and
  // a comparer's walk stops at its first mismatch.
  lsu_.walk(w);
  if (w.stopped()) return w;
  w.seq(next_seq_);
  w.cycle(uncharged_from_);
  w.plain(last_cause_);
  w.plain(fetch_pc_);
  w.plain(fetch_stopped_);
  w.plain(dispatch_stopped_);
  w.plain(halted_);
  w.plain(rob_.size());
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    RobEntry& e = rob_.at(i);
    w.seq(e.seq);
    // Plain fields packed, to keep a record short: pc and Words fit 32 bits.
    const std::uint64_t flags = e.executed | e.value_ready << 1 | e.performed << 2 |
                                e.released << 3 | e.spec_value << 4 | e.predicted_taken << 5 |
                                (e.consumers != kNoNode) << 6;
    w.plain(pc_of(e) | std::uint64_t{e.waiting} << 32 | flags << 40);
    w.plain(e.src[0] | std::uint64_t{e.src[1]} << 32);
    w.plain(e.result);
    // The consumer chain in chain order, the last node flagged; which
    // pool nodes hold it does not matter.
    for (std::uint32_t n = e.consumers; n != kNoNode; n = wake_nodes_[n].next) {
      w.plain(wake_nodes_[n].operand | std::uint64_t{wake_nodes_[n].next == kNoNode} << 8);
      w.seq(wake_nodes_[n].consumer);
    }
  }
  w.plain(ready_.size());
  for (std::uint64_t& seq : ready_) w.seq(seq);
  for (RenameEntry& r : rename_) {
    w.seq(r.seq);
    w.plain(r.value | std::uint64_t{r.ready} << 32);
  }
  static_assert(kNumArchRegs % 2 == 0);
  for (std::size_t r = 0; r < kNumArchRegs; r += 2)
    w.plain(regfile_[r] | std::uint64_t{regfile_[r + 1]} << 32);
  w.plain(fetch_buf_.size());
  for (std::size_t i = 0; i < fetch_buf_.size(); ++i)
    w.plain(fetch_buf_.at(i).pc | std::uint64_t{fetch_buf_.at(i).predicted_taken} << 32);
  w.plain(wake_nodes_.size());
  predictor_.walk(w);
  if (w.stopped()) return w;
  cache_.walk(w);
  return w;
}

void Core::flush_stall_episode(Cycle now) {
  if (events_ == nullptr || !events_->enabled()) return;
  // Busy and idle stretches are the baseline, not anomalies; emitting
  // them would drown the interesting episodes in the viewer.
  if (episode_cause_ != StallCause::kBusy && episode_cause_ != StallCause::kIdle) {
    events_->complete(stall_event_name(episode_cause_),
                      static_cast<std::uint16_t>(id_), episode_start_, now);
  }
}

StallCause Core::classify_stall() const {
  if (rob_.empty()) {
    if (halted_) return lsu_.empty() ? StallCause::kIdle : lsu_.classify_drain();
    return StallCause::kFrontend;  // fetch/dispatch starved the window
  }
  const RobEntry& e = rob_.front();
  const Instruction& in = *e.inst;
  if (in.op == Opcode::kHalt) return StallCause::kExec;  // commit width exhausted
  if (in.is_rmw() || in.is_store()) {
    if (!e.released) return lsu_.classify_rs_block(e.seq);
    if (!e.performed) return lsu_.classify_store_wait(e.seq);
    return StallCause::kSpeculation;  // performed; SLB entry keeps it squashable
  }
  if (in.is_load()) {
    if (!e.value_ready) return lsu_.classify_load_wait(e.seq);
    return StallCause::kSpeculation;  // value bound; SLB entry still live
  }
  if (in.is_branch()) return StallCause::kExec;
  if (in.is_fence()) return StallCause::kConsistency;
  if (in.is_sw_prefetch()) return lsu_.classify_rs_block(e.seq);
  return StallCause::kExec;  // ALU/nop waiting on operands or the ALU ports
}

void Core::do_commit(Cycle now) {
  std::size_t width =
      cfg_.core.ideal_frontend ? kUnlimited : cfg_.core.commit_width;
  std::size_t n = 0;
  while (n < width && !rob_.empty()) {
    RobEntry& e = rob_.front();
    const Instruction& in = *e.inst;

    if (in.op == Opcode::kHalt) {
      halted_ = true;
      halt_cycle_ = now;
      rob_.pop();
      ++retired_;
      note_progress();
      break;
    }

    if (in.is_rmw()) {
      if (!e.released) {
        if (!lsu_.store_in_buffer(e.seq)) break;  // address not translated
        lsu_.release_store(e.seq, now);
        e.released = true;
        note_progress();
      }
      if (!e.performed) break;
      if (!lsu_.load_retirable(e.seq)) break;  // spec entry still live
      writeback(e);
      rob_.pop();
      ++retired_;
      ++n;
      continue;
    }

    if (in.is_store()) {
      if (!e.released) {
        if (!lsu_.store_in_buffer(e.seq)) break;
        lsu_.release_store(e.seq, now);
        e.released = true;
        note_progress();
      }
      // SC keeps the store at the head until it performs, so the store
      // buffer issues one store at a time (§4.2); the other models
      // retire it as soon as the address translation is done.
      if (cfg_.model == ConsistencyModel::kSC && !e.performed) break;
      rob_.pop();
      ++retired_;
      ++n;
      continue;
    }

    if (in.is_load()) {
      if (!e.value_ready) break;
      if (!lsu_.load_retirable(e.seq)) break;
      writeback(e);
      rob_.pop();
      ++retired_;
      ++n;
      continue;
    }

    if (in.is_branch()) {
      if (!e.executed) break;
      rob_.pop();
      ++retired_;
      ++n;
      continue;
    }

    // ALU, nop, fence, software prefetch: retire when the result /
    // completion signal is available.
    if (!e.value_ready) break;
    writeback(e);
    rob_.pop();
    ++retired_;
    ++n;
  }
}

void Core::do_execute(Cycle now) {
  results_.clear();
  const std::size_t width = std::min<std::size_t>(cfg_.core.num_alus, ready_.size());
  std::size_t used = 0;
  while (used < width) {
    RobEntry* e = rob_find(ready_[used++]);
    assert(e != nullptr && !e->executed);
    const Instruction& in = *e->inst;
    e->executed = true;
    if (in.is_alu()) {
      results_.emplace_back(e, eval_alu(in, e->src[0], e->src[1]));
      continue;
    }
    e->value_ready = true;  // branch
    const bool taken = eval_branch(in.op, e->src[0], e->src[1]);
    const std::size_t pc = pc_of(*e);
    predictor_.train(pc, in, taken);
    if (taken != e->predicted_taken) {
      stats_.add(stat::branch_mispredicts);
      const std::size_t target = taken ? static_cast<std::size_t>(in.imm) : pc + 1;
      // Drops every younger entry, from ready_ too: what is left of it
      // is exactly the `used` entries taken this cycle.
      squash_from(e->seq + 1, target, now);
      break;
    }
  }
  ready_.erase(ready_.begin(), ready_.begin() + used);
  if (used > 0) note_progress();
  // Results become visible at the end of the cycle (1-cycle ALU latency).
  // All of them are older than any mispredicted branch, so they survived
  // its squash, and pop_back_n leaves older slots where they are: each
  // pointer still names its entry.
  for (const auto& [e, value] : results_) {
    assert(e->seq <= rob_.back().seq && "a squash popped a result's entry");
    set_value(*e, value);
  }
}

void Core::do_dispatch(Cycle now) {
  (void)now;
  std::size_t width =
      cfg_.core.ideal_frontend ? kUnlimited : cfg_.core.decode_width;
  std::size_t n = 0;
  while (n < width && !fetch_buf_.empty() && !dispatch_stopped_) {
    if (rob_.full()) break;
    const FetchedInst f = fetch_buf_.front();
    const Instruction& in = program_.at(f.pc);
    const bool to_lsu = in.is_mem() || in.is_fence();
    if (to_lsu && !lsu_.can_dispatch()) break;
    fetch_buf_.pop();

    RobEntry& e = rob_.push(RobEntry{});
    e.seq = next_seq_++;
    e.inst = &in;
    e.predicted_taken = f.predicted_taken;

    if (in.is_alu() || in.is_branch()) {
      add_source(e, 0, resolve(in.rs1));
      add_source(e, 1,
                 in.is_alu() && in.has_imm_operand()
                     ? Source{Operand::immediate(static_cast<Word>(in.imm))}
                     : resolve(in.rs2));
      // The youngest entry so far: appending keeps ready_ sorted.
      if (e.waiting == 0) ready_.push_back(e.seq);
    } else if (in.op == Opcode::kNop) {
      e.executed = true;
      e.value_ready = true;
    } else if (to_lsu) {
      dispatch_to_lsu(e, f.pc, in);
    }

    if (in.op == Opcode::kHalt) dispatch_stopped_ = true;
    if (in.writes_rd() && in.rd != 0) rename_[in.rd] = RenameEntry{e.seq, false, 0};
    ++n;
  }
  if (n > 0) note_progress();
}

void Core::do_fetch(Cycle now) {
  (void)now;
  const std::size_t buffered_before = fetch_buf_.size();
  const bool stopped_before = fetch_stopped_;
  const std::size_t width =
      cfg_.core.ideal_frontend ? kUnlimited : cfg_.core.fetch_width;
  std::size_t n = 0;
  while (n < width && !fetch_stopped_ && !fetch_buf_.full()) {
    if (fetch_pc_ >= program_.size()) {
      // Programs must end in halt; stop cleanly if control fell off.
      fetch_stopped_ = true;
      break;
    }
    const Instruction& in = program_.at(fetch_pc_);
    bool predicted_taken = false;
    if (in.is_branch()) predicted_taken = predictor_.predict(fetch_pc_, in);
    fetch_buf_.push(FetchedInst{fetch_pc_, predicted_taken});
    if (in.op == Opcode::kHalt) {
      fetch_stopped_ = true;
      break;
    }
    fetch_pc_ = (in.is_branch() && predicted_taken)
                    ? static_cast<std::size_t>(in.imm)
                    : fetch_pc_ + 1;
    ++n;
    if (cfg_.core.ideal_frontend && n > 100000)
      break;  // safety valve for pathological predicted loops
  }
  if (fetch_buf_.size() != buffered_before || fetch_stopped_ != stopped_before)
    note_progress();
}

void Core::squash_from(std::uint64_t seq, std::size_t refetch_pc, Cycle now,
                       SquashOrigin origin) {
  note_progress();
  std::size_t dropped = 0;
  while (dropped < rob_.size() && rob_.at(rob_.size() - 1 - dropped).seq >= seq) {
    free_chain(rob_.at(rob_.size() - 1 - dropped));
    ++dropped;
  }
  rob_.pop_back_n(dropped);
  ready_.erase(std::lower_bound(ready_.begin(), ready_.end(), seq), ready_.end());
  lsu_.squash_from(seq, origin);
  if (cfg_.profile) stats_.sample(prof::rb_squash_depth, dropped);
  fetch_buf_.clear();
  fetch_pc_ = refetch_pc;
  fetch_stopped_ = false;
  dispatch_stopped_ = false;
  rename_.fill(RenameEntry{});
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    const RobEntry& e = rob_.at(i);
    const Instruction& in = *e.inst;
    if (in.writes_rd() && in.rd != 0)
      rename_[in.rd] = RenameEntry{e.seq, e.value_ready, e.result};
  }
  stats_.add(stat::squashes);
  stats_.add(stat::squashed_instructions, dropped);
  if (events_ != nullptr && events_->enabled())
    events_->instant(ev_squash, static_cast<std::uint16_t>(id_), now, {arg_seq, seq},
                     {arg_dropped, dropped});
}

void Core::mem_completed(std::uint64_t seq, Word value, Cycle now) {
  RobEntry* e = rob_find(seq);
  if (e == nullptr) return;  // e.g. a store already retired under RC/WC/PC
  note_progress();
  const Instruction& in = *e->inst;
  if (in.is_rmw()) {
    if (e->spec_value && e->value_ready && e->result != value) {
      // Appendix-A speculation delivered a value that differs from the
      // one the atomic actually read: discard dependent computation.
      stats_.add(stat::rmw_value_mispredicts);
      squash_from(seq + 1, pc_of(*e) + 1, now);
      // Ring slots never move, and the squash dropped only younger entries.
      assert(rob_find(seq) == e);
    }
    e->performed = true;
    e->spec_value = false;
    set_value(*e, value);
    return;
  }
  if (in.is_store()) {
    e->performed = true;
    return;
  }
  if (in.is_load()) {
    e->performed = true;
    set_value(*e, value);
    return;
  }
  // fence / software prefetch
  e->value_ready = true;
}

void Core::rmw_spec_value(std::uint64_t seq, Word value, Cycle now) {
  (void)now;
  RobEntry* e = rob_find(seq);
  if (e == nullptr || e->performed || e->value_ready) return;
  note_progress();
  e->spec_value = true;
  stats_.add(stat::rmw_spec_values);
  set_value(*e, value);
}

void Core::request_squash_refetch(std::uint64_t seq, Cycle now) {
  // A squash target is always an uncommitted instruction: a load with a
  // live speculative-load entry cannot retire, and nothing younger than
  // an unretired entry can have retired either. If seq points past the
  // tail (e.g. "after the RMW" when nothing follows it yet), there is
  // nothing to discard.
  RobEntry* e = rob_find(seq);
  if (e == nullptr) return;
  squash_from(e->seq, pc_of(*e), now, SquashOrigin::kCoherence);
}

void Core::on_line_event(LineEventKind kind, Addr line, Cycle now) {
  lsu_.on_line_event(kind, line, now);
}

Json Core::snapshot_json() const {
  Json out = Json::object();
  out.set("proc", Json::number(static_cast<std::uint64_t>(id_)));
  out.set("halted", Json::boolean(halted_));
  out.set("retired", Json::number(retired_));
  if (!rob_.empty()) {
    out.set("stalled_on", Json::string(to_string(classify_stall())));
  }
  Json rob = Json::array();
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    const RobEntry& e = rob_.at(i);
    Json j = Json::object();
    j.set("seq", Json::number(e.seq));
    j.set("pc", Json::number(static_cast<std::uint64_t>(pc_of(e))));
    j.set("inst", Json::string(disassemble(*e.inst)));
    std::string flags;
    if (e.executed) flags += 'E';
    if (e.value_ready) flags += 'V';
    if (e.performed) flags += 'P';
    if (e.released) flags += 'R';
    if (e.spec_value) flags += 'S';
    j.set("flags", Json::string(flags));
    rob.push_back(std::move(j));
  }
  out.set("rob", std::move(rob));
  out.set("lsu", lsu_.snapshot_json());
  return out;
}

std::string Core::rob_dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rob_.size(); ++i) {
    const RobEntry& e = rob_.at(i);
    os << "[" << e.seq << ":" << disassemble(*e.inst)
       << (e.value_ready ? " V" : "") << (e.performed ? " P" : "")
       << (e.released ? " R" : "") << "]";
    if (i + 1 != rob_.size()) os << ' ';
  }
  return os.str();
}

}  // namespace mcsim
