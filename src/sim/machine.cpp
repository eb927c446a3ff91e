#include "sim/machine.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#ifdef MCSIM_FF_AUDIT
#include <iostream>
#endif

namespace mcsim {

namespace {
const SystemConfig& validated(const SystemConfig& cfg) {
  std::string err = cfg.validate();
  if (!err.empty()) throw std::invalid_argument("invalid SystemConfig: " + err);
  return cfg;
}

// The arena's first chunk, per processor: a paper-default processor
// (core, LSU, cache, their statistics and its share of the network and
// directory) fits in it, so a small machine takes one block; a machine
// that needs more grows the arena.
constexpr std::size_t kArenaBytesPerProc = 96 * 1024;
}  // namespace

Machine::Machine(const SystemConfig& cfg, std::vector<Program> programs)
    : arena_(std::max<std::size_t>(cfg.num_procs, 1) * kArenaBytesPerProc),
      cfg_(validated(cfg)),
      programs_(std::move(programs)),
      net_(cfg.num_procs + std::max<std::uint32_t>(cfg.mem.dir_banks, 1),
           cfg.mem.net_latency, cfg.mem.deliver_bw, cfg.mem.topology,
           cfg.mem.link_bw, cfg.mem.link_queue, &arena_),
      dir_(cfg.num_procs, cfg.cache, cfg.mem, net_, &arena_),
      procs_(&arena_),
      undrained_cores_(cfg.num_procs),
      sched_(1 + dir_.num_banks() + 2ull * cfg.num_procs, &arena_) {
  if (programs_.size() != cfg_.num_procs)
    throw std::invalid_argument("need exactly one program per processor");

  for (const Program& p : programs_) {
    for (const DataInit& d : p.data()) dir_.memory().write(d.addr, d.value);
  }
  procs_.reserve(cfg_.num_procs);
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    procs_.emplace_back(p, cfg_, programs_[p], net_, &events_, &arena_);
    procs_[p].cache.set_quiescence_counter(&busy_caches_);
    procs_[p].cache.set_profiling(cfg_.profile);
  }
  dir_.set_profiling(cfg_.profile);

  // Trace-event tracks: tid 0..P-1 cores, P..2P-1 caches, then one
  // track per directory bank at 2P..2P+B-1, then the ring/mesh links
  // (the crossbar has none). run() names them when tracing is on.
  const std::uint16_t procs = static_cast<std::uint16_t>(cfg_.num_procs);
  for (std::uint16_t p = 0; p < procs; ++p)
    procs_[p].cache.set_event_sink(&events_, static_cast<std::uint16_t>(procs + p));
  dir_.set_event_sink(&events_, static_cast<std::uint16_t>(2 * procs));
  net_.set_event_sink(&events_, static_cast<std::uint16_t>(2 * procs + dir_.num_banks()));

  // Active-set scheduler hook; a no-op until init_scheduler() marks
  // the scheduler live (so the naive loop, manual step() use, and the
  // MCSIM_FF_AUDIT shadow machine never pay more than the is-live
  // branch).
  net_.set_delivery_hook([this](EndpointId ep) { on_delivery(ep); });
}

void Machine::name_tracks() {
  // The single-bank machine keeps the historical "directory" name.
  const std::uint16_t procs = static_cast<std::uint16_t>(cfg_.num_procs);
  for (std::uint16_t p = 0; p < procs; ++p) {
    events_.set_track(p, "core" + std::to_string(p));
    events_.set_track(static_cast<std::uint16_t>(procs + p), "cache" + std::to_string(p));
  }
  const std::uint32_t banks = dir_.num_banks();
  for (std::uint32_t b = 0; b < banks; ++b) {
    events_.set_track(static_cast<std::uint16_t>(2 * procs + b),
                      banks == 1 ? std::string("directory") : "dir" + std::to_string(b));
  }
  net_.name_tracks();
}

void Machine::step() {
  net_.deliver(cycle_);
  dir_.tick(cycle_);
  for (auto& proc : procs_) proc.cache.tick(cycle_);
  for (auto& proc : procs_) {
    proc.core.tick(cycle_);
    if (!proc.drained && proc.core.drained()) {
      proc.drained = true;
      proc.drain_cycle = cycle_;
      --undrained_cores_;
    }
  }
  ++cycle_;
}

bool Machine::done() const {
  const bool fast =
      undrained_cores_ == 0 && busy_caches_ == 0 && net_.idle() && dir_.idle();
#ifdef MCSIM_FF_AUDIT
  // Sampled: the full scan is O(P), and done() is called once per live
  // cycle — auditing every call made Debug P=256 runs quadratic-ish.
  // Every 1024th call keeps the counters honest; run() adds one
  // unconditional scan at the end of every run.
  if ((done_calls_++ & 1023u) == 0)
    assert(fast == done_scan() && "O(1) done() diverged from the full scan");
#endif
  return fast;
}

bool Machine::done_scan() const {
  if (!net_.idle() || !dir_.idle()) return false;
  for (const auto& proc : procs_) {
    if (!proc.drained || !proc.cache.idle()) return false;
  }
  return true;
}

Cycle Machine::next_event_cycle() const {
  // O(1) while the active-set loop is live: the heap top bounds the
  // sweep minimum from below (components may be armed EARLIER than
  // their true next event — over-arming only costs a live tick), so
  // returning it preserves the "a larger value proves every earlier
  // tick is a no-op, or a periodic core's tick settled on wake"
  // contract without touching any component.
  if (sched_live_) return sched_.next_cycle();
  Cycle ne = net_.next_event(cycle_);
  if (ne <= cycle_) return ne;
  Cycle t = dir_.next_event(cycle_);
  if (t < ne) ne = t;
  // Hierarchical probe: a cache with no MSHRs, pending responses, or
  // deferred fills answers kCycleNever exactly, so when the O(1) busy
  // counter says every cache is idle the whole sweep is skipped — at
  // P=256 the common quiescent probe drops the O(P) cache scan for a
  // counter check. (Cores cannot be skipped the same way: a core that
  // just drained still reports its final tick as progress, and must
  // tick once more before it may be treated as asleep.)
  if (busy_caches_ != 0) {
    for (const auto& proc : procs_) {
      t = proc.cache.next_event(cycle_);
      if (t < ne) ne = t;
      if (ne <= cycle_) return ne;
    }
  }
  for (const auto& proc : procs_) {
    t = proc.core.next_event(cycle_);
    if (t < ne) ne = t;
    if (ne <= cycle_) return ne;
  }
  return ne;
}

void Machine::init_scheduler() {
  const std::uint32_t banks = dir_.num_banks();
  sched_.clear();
  sched_live_ = true;
  // Arm for whatever state the machine is in (fresh, or mid-flight
  // after manual step() calls): the network from its own earliest
  // deliverable, endpoints with inboxed traffic immediately, caches
  // from their next_event, every core live (its progress flag starts
  // armed, and a core that just ticked under step() must be re-proven
  // quiescent by one live tick before it may sleep).
  sched_.arm(net_comp(), net_.deliver_next_event(cycle_));
  for (std::uint32_t b = 0; b < banks; ++b) {
    if (!net_.inbox_empty(static_cast<EndpointId>(cfg_.num_procs + b)))
      sched_.arm(bank_comp(b), cycle_);
  }
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    Cycle cache_at = procs_[p].cache.next_event(cycle_);
    if (!net_.inbox_empty(p) || cache_at < cycle_) cache_at = cycle_;
    sched_.arm(cache_comp(p), cache_at);
    sched_.arm(core_comp(p), cycle_);
  }
}

void Machine::step_active() {
  const Cycle c = cycle_;
  const std::uint32_t banks = dir_.num_banks();
  // Pop order within a cycle is (cycle, id), and ids are assigned in
  // stage order, so the components that do tick run in exactly the
  // naive loop's sequence; everything unarmed is a proven no-op.
  while (!sched_.empty() && sched_.next_cycle() <= c) {
    assert(sched_.next_cycle() == c && "a scheduled wakeup was missed");
    const Scheduler::CompId id = sched_.pop();
    if (id == net_comp()) {
      net_.deliver(c);  // the delivery hook arms receiving banks/caches at c
    } else if (id <= banks) {
      dir_.bank(id - 1).tick(c);
    } else if (id <= banks + cfg_.num_procs) {
      const ProcId p = static_cast<ProcId>(id - 1 - banks);
      // The core's sleep ends here: its stall cause was frozen up to
      // this cache tick. Settling first is what lets Core::settle assert
      // that; the charge itself would be the same after the tick.
      procs_[p].core.settle(c);
      procs_[p].cache.tick(c);
      // A cache that acted means its core must tick live this cycle
      // (fills queue responses, invalidations squash — the naive loop
      // ticked it too); tick_core_live then re-arms the cache if a fill
      // is left to retry.
      sched_.arm(core_comp(p), c);
    } else {
      tick_core_live(static_cast<ProcId>(id - 1 - banks - cfg_.num_procs));
    }
  }
  // Every message sent this cycle (by any ticked component) is inside
  // the network now, so one re-arm at the end of the cycle covers all
  // of them.
  sched_.arm(net_comp(), net_.deliver_next_event(c + 1));
  ++cycle_;
}

void Machine::tick_core_live(ProcId p) {
  const Cycle c = cycle_;
  Proc& proc = procs_[p];
  proc.core.tick(c);  // charges any span it slept through first
  if (!proc.drained && proc.core.drained()) {
    proc.drained = true;
    proc.drain_cycle = c;
    --undrained_cores_;
  }
  // Progress: the pipeline is live, tick again next cycle. Frozen:
  // timed local events (store-to-load forwarding) arm the core
  // directly; external wake-ups arrive via this cache's tick, which
  // re-arms it. kCycleNever leaves it unarmed.
  const Cycle ne = proc.core.next_event(c);
  sched_.arm(core_comp(p), ne <= c ? c + 1 : ne);
  // The cache acts on its own only to retry a deferred fill. A queued
  // response needs no cache tick: this core drains it, and is armed
  // already — by its own progress after a hit probe, or by the cache
  // tick that queued a fill.
  if (proc.cache.retry_pending()) sched_.arm(cache_comp(p), c + 1);
}

void Machine::settle_cores() {
  for (auto& proc : procs_) proc.core.settle(cycle_);
}

void Machine::on_delivery(EndpointId ep) {
  if (!sched_live_) return;
  if (ep < cfg_.num_procs) {
    sched_.arm(cache_comp(static_cast<ProcId>(ep)), cycle_);
  } else {
    sched_.arm(bank_comp(ep - cfg_.num_procs), cycle_);
  }
}

#ifdef MCSIM_FF_AUDIT
std::string Machine::audit_fingerprint() const {
  std::ostringstream os;
  os << "cycle=" << cycle_ << '\n';
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    const Proc& proc = procs_[p];
    os << "core" << p << " retired=" << proc.core.instructions_retired()
       << " halted=" << proc.core.halted() << " drained=" << (proc.drained ? 1 : 0)
       << " drain_cycle=" << proc.drain_cycle << " regs=";
    for (RegId r = 0; r < kNumArchRegs; ++r) os << proc.core.reg(r) << ',';
    os << '\n';
  }
  if (cfg_.profile) {
    // Profiler counters already flow in via stats_report(); the ledger
    // and the unresolved-prefetch tag counts are the profiler state
    // outside any StatSet, so fingerprint them explicitly.
    for (ProcId p = 0; p < cfg_.num_procs; ++p)
      os << "cache" << p << ".pf_pending " << procs_[p].cache.profile_pending() << '\n';
    os << dir_.ledger().fingerprint();
  }
  os << stats_report();
  return os.str();
}
#endif

RunResult Machine::run() {
#ifdef MCSIM_FF_AUDIT
  // Lockstep audit: run a naive-loop twin from the same initial state
  // and assert bit-identical architectural state + stats at every jump
  // target. The twin has fastforward forced off, so it never recurses.
  std::unique_ptr<Machine> shadow;
  if (cfg_.fastforward) {
    SystemConfig shadow_cfg = cfg_;
    shadow_cfg.fastforward = false;
    shadow = std::make_unique<Machine>(shadow_cfg, programs_);
    for (const PreloadRecord& rec : preload_log_) {
      if (rec.shared) {
        shadow->preload_shared(rec.proc, rec.addr);
      } else {
        shadow->preload_exclusive(rec.proc, rec.addr);
      }
    }
  }
  auto audit_check = [&]() {
    if (shadow == nullptr) return;
    while (shadow->cycle_ < cycle_) shadow->step();
    const std::string mine = audit_fingerprint();
    const std::string ref = shadow->audit_fingerprint();
    if (mine != ref) {
      std::cerr << "MCSIM_FF_AUDIT divergence at cycle " << cycle_
                << "\n--- fast-forward ---\n"
                << mine << "--- naive ---\n"
                << ref;
      assert(false && "fast-forward diverged from the naive loop");
    }
  };
#endif
  wedged_at_ = kCycleNever;
  if (events_.enabled()) name_tracks();
  if (cfg_.fastforward) {
    // Active-set loop: the heap top is the O(1) answer to "earliest
    // cycle anything can act" — a jump past quiescent cycles costs
    // nothing at all (a sleeping core settles its skipped cycles when
    // it wakes, or at the end of the run), and a live cycle ticks only
    // the armed components.
    // A spinning core may sleep through its periodic span unless
    // something observes its individual ticks.
    const bool periodic = !events_.enabled() && !cfg_.profile && !cfg_.record_accesses;
    if (periodic) {
      for (auto& proc : procs_) proc.core.allow_periodic_sleep(&period_records_);
    }
    init_scheduler();
    while (!done() && cycle_ < cfg_.max_cycles) {
      const Cycle ne = sched_.next_cycle();
      if (ne > cycle_) {
        // Nothing armed and not done: no component can ever act again.
        // The clock still runs on to the watchdog, so ticks and stall
        // sums match the naive loop.
        if (ne == kCycleNever) wedged_at_ = cycle_;
        cycle_ = ne < cfg_.max_cycles ? ne : cfg_.max_cycles;
#ifdef MCSIM_FF_AUDIT
        settle_cores();
        audit_check();
#endif
      } else {
        step_active();
      }
    }
    settle_cores();
    if (periodic) {
      for (auto& proc : procs_) proc.core.allow_periodic_sleep(nullptr);
    }
    sched_live_ = false;
  } else {
    while (!done() && cycle_ < cfg_.max_cycles) step();
  }
#ifdef MCSIM_FF_AUDIT
  audit_check();
  assert(done() == done_scan() && "O(1) done() diverged at end of run");
#endif
  RunResult r;
  r.deadlocked = !done();
  r.wedged_at = wedged_at_;
  r.ticks = cycle_;
  r.drain_cycle.reserve(cfg_.num_procs);
  r.retired.reserve(cfg_.num_procs);
  r.stall.reserve(cfg_.num_procs);
  for (auto& proc : procs_) {
    proc.core.flush_stall_episode(cycle_);
    r.drain_cycle.push_back(proc.drain_cycle);
    r.retired.push_back(proc.core.instructions_retired());
    r.stall.push_back(proc.core.stall_cycles());
    if (proc.drain_cycle > r.cycles) r.cycles = proc.drain_cycle;
  }
  if (r.deadlocked) r.cycles = cycle_;
  return r;
}

namespace {
/// Read one line from memory into `buf`; returns the words read.
std::span<const Word> line_from_memory(const FlatMemory& mem, Addr line, std::uint32_t bytes,
                                       Message::LineData& buf) {
  const std::span<Word> words(buf.data(), bytes / kWordBytes);
  mem.read_words(line, words);
  return words;
}
}  // namespace

void Machine::preload_shared(ProcId p, Addr a) {
#ifdef MCSIM_FF_AUDIT
  preload_log_.push_back(PreloadRecord{true, p, a});
#endif
  Addr line = cache(p).line_of(a);
  Message::LineData buf;
  procs_[p].cache.preload_line(line, LineState::kShared,
                           line_from_memory(dir_.memory(), line, cfg_.cache.line_bytes, buf));
  dir_.preload(line, Directory::State::kShared, p);
}

void Machine::preload_exclusive(ProcId p, Addr a) {
#ifdef MCSIM_FF_AUDIT
  preload_log_.push_back(PreloadRecord{false, p, a});
#endif
  Addr line = cache(p).line_of(a);
  Message::LineData buf;
  procs_[p].cache.preload_line(line, LineState::kExclusive,
                           line_from_memory(dir_.memory(), line, cfg_.cache.line_bytes, buf));
  dir_.preload(line, Directory::State::kDirty, p);
}

Word Machine::read_word(Addr a) const {
  for (const auto& proc : procs_) {
    if (proc.cache.line_state(a) == LineState::kExclusive) return *proc.cache.peek_word(a);
  }
  return dir_.memory().read(a);
}

std::string Machine::stats_report() const {
  std::ostringstream os;
  for (ProcId p = 0; p < cfg_.num_procs; ++p) {
    const Proc& proc = procs_[p];
    os << proc.core.stats().report();
    const StallBreakdown& stall = proc.core.stall_cycles();
    for (std::size_t c = 0; c < kNumStallCauses; ++c) {
      if (stall[c] == 0) continue;
      os << "core" << p << ".stall." << to_string(static_cast<StallCause>(c)) << ' '
         << stall[c] << '\n';
    }
    os << proc.core.lsu().stats().report();
    os << proc.cache.stats().report();
  }
  for (std::uint32_t b = 0; b < dir_.num_banks(); ++b)
    os << dir_.bank(b).stats().report();
  os << net_.stats().report();
  return os.str();
}

Json Machine::post_mortem() const {
  Json out = Json::object();
  out.set("cycle", Json::number(static_cast<std::uint64_t>(cycle_)));
  if (wedged_at_ != kCycleNever)
    out.set("wedged_at", Json::number(static_cast<std::uint64_t>(wedged_at_)));
  Json cores = Json::array();
  for (const auto& proc : procs_) cores.push_back(proc.core.snapshot_json());
  out.set("cores", std::move(cores));
  Json caches = Json::array();
  for (const auto& proc : procs_) caches.push_back(proc.cache.snapshot_json());
  out.set("caches", std::move(caches));
  out.set("network", net_.snapshot_json());
  out.set("directory", dir_.snapshot_json());
  if (cfg_.profile)
    out.set("contended_lines", dir_.contended_lines_json(cfg_.profile_top_lines));
  return out;
}

std::vector<std::vector<AccessRecord>> Machine::access_logs() const {
  std::vector<std::vector<AccessRecord>> logs;
  logs.reserve(cfg_.num_procs);
  for (const auto& proc : procs_) logs.push_back(proc.core.lsu().access_log());
  return logs;
}

}  // namespace mcsim
