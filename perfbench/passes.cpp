#include "passes.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/profile.hpp"
#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/model_checker.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace perfbench {

using namespace mcsim;

namespace {

using Clock = std::chrono::steady_clock;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Call f(), adding its host seconds to `acc`.
template <class F>
auto timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += since(t0);
  } else {
    auto r = f();
    acc += since(t0);
    return r;
  }
}

/// Host seconds host_pace()'s loops take on the reference host.
constexpr double kPaceReferenceSeconds = 2e-3;
constexpr std::size_t kPaceBytes = 1u << 20;

/// How fast this host runs the benchmark now, as reference seconds per
/// host second. A shared host's speed swings by up to 2x, in stretches
/// of seconds to minutes, as other tenants load the same cores and
/// memory. A dependent (latency-bound) loop barely notices. These two
/// slow down with the simulator: four independent xorshift chains,
/// throughput-bound like Machine::run, and mapping, filling and
/// unmapping 1 MiB twice, which tracked litmus_fuzz's many small
/// Machines better than the chains alone. Re-measured when the last
/// measurement is 50 ms old.
double host_pace() {
  static Clock::time_point last;
  static double pace = 0;
  if (pace != 0 && Clock::now() - last < std::chrono::milliseconds(50)) return pace;
  const auto t0 = Clock::now();
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 250'000; ++i) {
    a ^= a << 13; a ^= a >> 7; a ^= a << 17;
    b ^= b << 13; b ^= b >> 7; b ^= b << 17;
    c ^= c << 13; c ^= c >> 7; c ^= c << 17;
    d ^= d << 13; d ^= d >> 7; d ^= d << 17;
  }
  for (int k = 0; k < 2; ++k) {
    void* p = mmap(nullptr, kPaceBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("host_pace: mmap failed");
    std::memset(p, k + 1, kPaceBytes);
    a += static_cast<const unsigned char*>(p)[4097];
    munmap(p, kPaceBytes);
  }
  volatile std::uint64_t sink = a + b + c + d;
  (void)sink;
  pace = kPaceReferenceSeconds / since(t0);
  last = Clock::now();
  return pace;
}

/// Times one unit of a pass: made at the unit's start, done() at its
/// end appends the unit's UnitTimes to the pass.
class UnitTimer {
 public:
  explicit UnitTimer(PassResult& out)
      : out_(out), pace_(host_pace()), start_(out.host), t0_(Clock::now()) {}
  void done() {
    const HostTimes& h = out_.host;
    const double wall = since(t0_) - (h.once() - start_.once());
    out_.units.push_back({wall, h.setup() - start_.setup(), h.run - start_.run,
                          0.5 * (pace_ + host_pace())});
  }

 private:
  PassResult& out_;
  const double pace_;
  const HostTimes start_;
  const Clock::time_point t0_;
};

constexpr ConsistencyModel kModels[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                        ConsistencyModel::kWC, ConsistencyModel::kRC};

// Workload sizes. spin_barrier8 is about 5k trace ops on 8 processors;
// contended_p256 runs workload_sweep --scale's P=256 zipfian cell;
// litmus_fuzz is fuzz_models' default campaign (default generator,
// crossbar, full-map directory) at 300 programs.
constexpr std::uint64_t kBarrierOps = 5000;
constexpr std::uint32_t kContendedProcs = 256;
constexpr std::uint64_t kLitmusPrograms = 300;
constexpr std::uint64_t kLitmusMemBytes = 1u << 20;

/// What one cell runs: programs and warm lines, plus a label for reports.
struct CellInput {
  const std::vector<Program>& programs;
  const std::vector<std::pair<ProcId, Addr>>& preload_shared;
  std::string label;
};

std::unique_ptr<Machine> build_machine(const SystemConfig& cfg, const CellInput& in) {
  auto m = std::make_unique<Machine>(cfg, in.programs);
  for (const auto& [proc, addr] : in.preload_shared) m->preload_shared(proc, addr);
  return m;
}

bool is_both(const SystemConfig& cfg) {
  return cfg.core.prefetch != PrefetchMode::kOff && cfg.core.speculative_loads;
}

/// Fold one finished run into the pass's modelled counts and check the
/// per-core accounting identity busy + sum(stall causes) == ticks.
void collect(Machine& m, const RunResult& r, const std::string& label,
             PassResult& out) {
  static const StatId squashes = StatNames::intern("squashes");
  static const StatId spec_reissue = StatNames::intern("spec_reissue");
  static const StatId pf_read = StatNames::intern("prefetch_read_issued");
  static const StatId pf_ex = StatNames::intern("prefetch_ex_issued");
  static const StatId pf_hit = StatNames::intern("prefetch_useful_hit");
  static const StatId pf_merge = StatNames::intern("prefetch_useful_merge");
  static const StatId load_latency = StatNames::intern("load_latency");
  static const StatId store_latency = StatNames::intern("store_latency");
  static const StatId msg_latency = StatNames::intern("msg_latency");
  static const StatId delivered = StatNames::intern("messages_delivered");

  Modelled& mo = out.model;
  const SystemConfig& cfg = m.config();
  ++mo.cells;
  mo.cycles += r.cycles;
  mo.ticks += r.ticks;
  std::uint64_t retired = 0;
  for (ProcId p = 0; p < cfg.num_procs; ++p) {
    retired += r.retired[p];
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kNumStallCauses; ++c) {
      sum += r.stall[p][c];
      mo.stall[c] += r.stall[p][c];
    }
    if (sum != r.ticks) {
      out.errors.push_back(label + ": core " + std::to_string(p) + " stall causes sum to " +
                           std::to_string(sum) + ", ticks " + std::to_string(r.ticks));
    }
    const StatSet& core = m.core(p).stats();
    const StatSet& lsu = m.core(p).lsu().stats();
    const StatSet& cache = m.cache(p).stats();
    mo.squashes += core.get(squashes);
    mo.reissues += lsu.get(spec_reissue);
    mo.prefetches += cache.get(pf_read) + cache.get(pf_ex);
    mo.prefetch_useful += cache.get(pf_hit) + cache.get(pf_merge);
    if (const LogHistogram* h = lsu.histogram(load_latency)) mo.load_latency.merge(*h);
    if (const LogHistogram* h = lsu.histogram(store_latency)) mo.store_latency.merge(*h);
    if (cfg.profile) {
      mo.rb_invalidate += lsu.get(prof::rb_invalidate);
      mo.rb_update += lsu.get(prof::rb_update);
      mo.rb_replacement += lsu.get(prof::rb_replacement);
      mo.rb_flush += lsu.get(prof::rb_flush);
    }
  }
  mo.retired += retired;
  mo.per_cell.push_back({r.cycles, r.ticks, retired});
  const StatSet& net = m.network().stats();
  mo.msgs += net.get(delivered);
  if (const LogHistogram* h = net.histogram(msg_latency)) mo.msg_latency.merge(*h);
  if (cfg.profile) {
    const DirectoryGroup& dir = m.directory();
    for (std::uint32_t b = 0; b < dir.num_banks(); ++b) {
      if (const LogHistogram* h = dir.bank(b).stats().histogram(prof::sh_inv_fanout))
        mo.inv_fanout.merge(*h);
    }
  }
  if (is_both(cfg) && cfg.model == ConsistencyModel::kSC) mo.sc_both_cycles += r.cycles;
  if (is_both(cfg) && cfg.model == ConsistencyModel::kRC) mo.rc_both_cycles += r.cycles;
}

/// The traced stage loop: Machine::step()'s stage order (network
/// deliver, directory banks, every cache, every core) driven through
/// the components' public calls on a fresh machine, each stage timed
/// as a block per cycle, until Machine::done()'s condition holds. Its
/// drain cycle, ticks, retirement and stall breakdowns must match
/// `ref`, the Machine::run() of an identical machine.
void stage_replay(const SystemConfig& cfg, const CellInput& in, const RunResult& ref,
                  PassResult& out) {
  HostTimes& h = out.host;
  std::unique_ptr<Machine> m = build_machine(cfg, in);
  const ProcId procs = cfg.num_procs;
  Network& net = m->network();
  DirectoryGroup& dir = m->directory();
  std::vector<CoherentCache*> caches(procs);
  std::vector<Core*> cores(procs);
  for (ProcId p = 0; p < procs; ++p) {
    caches[p] = &m->cache(p);
    cores[p] = &m->core(p);
  }
  std::vector<bool> drained(procs, false);
  std::vector<Cycle> drain_cycle(procs, 0);
  std::uint64_t undrained = procs;
  auto done = [&] {
    if (undrained != 0 || !net.idle() || !dir.idle()) return false;
    for (const CoherentCache* c : caches) {
      if (!c->idle()) return false;
    }
    return true;
  };

  const auto loop_start = Clock::now();
  Cycle now = 0;
  while (!done() && now < cfg.max_cycles) {
    const auto t0 = Clock::now();
    net.deliver(now);
    const auto t1 = Clock::now();
    dir.tick(now);
    const auto t2 = Clock::now();
    for (CoherentCache* c : caches) c->tick(now);
    const auto t3 = Clock::now();
    for (ProcId p = 0; p < procs; ++p) {
      cores[p]->tick(now);
      if (!drained[p] && cores[p]->drained()) {
        drained[p] = true;
        drain_cycle[p] = now;
        --undrained;
      }
    }
    const auto t4 = Clock::now();
    h.deliver += std::chrono::duration<double>(t1 - t0).count();
    h.dir_tick += std::chrono::duration<double>(t2 - t1).count();
    h.cache_tick += std::chrono::duration<double>(t3 - t2).count();
    h.core_tick += std::chrono::duration<double>(t4 - t3).count();
    ++now;
  }
  h.stage_loop += since(loop_start);
  h.deliver_calls += now;
  h.dir_tick_calls += now;
  h.cache_tick_calls += static_cast<std::uint64_t>(now) * procs;
  h.core_tick_calls += static_cast<std::uint64_t>(now) * procs;

  Cycle cycles = 0;
  for (Cycle c : drain_cycle) cycles = c > cycles ? c : cycles;
  if (!done()) cycles = now;
  auto mismatch = [&](const std::string& what, std::uint64_t got, std::uint64_t want) {
    out.errors.push_back(in.label + ": stage loop " + what + " " + std::to_string(got) +
                         " != Machine::run() " + std::to_string(want));
  };
  if (cycles != ref.cycles) mismatch("drain cycle", cycles, ref.cycles);
  if (now != ref.ticks) mismatch("ticks", now, ref.ticks);
  for (ProcId p = 0; p < procs; ++p) {
    if (cores[p]->instructions_retired() != ref.retired[p])
      mismatch("core " + std::to_string(p) + " retired", cores[p]->instructions_retired(),
               ref.retired[p]);
    if (cores[p]->stall_cycles() != ref.stall[p])
      out.errors.push_back(in.label + ": stage loop core " + std::to_string(p) +
                           " stall breakdown differs from Machine::run()");
  }
}

/// Construct, run and account one cell. Returns the finished machine
/// (null when construction or the run threw; that counts as a failed
/// cell).
std::unique_ptr<Machine> run_cell(SystemConfig cfg, const CellInput& in, bool traced,
                                  PassResult& out, RunResult& r) {
  cfg.profile = traced;
  std::unique_ptr<Machine> m;
  try {
    m = timed(out.host.construct, [&] { return build_machine(cfg, in); });
    r = timed(out.host.run, [&] { return m->run(); });
  } catch (const std::exception& e) {
    ++out.model.cells;
    ++out.model.failed;
    out.model.per_cell.push_back({0, 0, 0});
    out.failures.push_back(in.label + ": error: " + e.what());
    return nullptr;
  }
  collect(*m, r, in.label, out);
  if (traced) stage_replay(cfg, in, r, out);
  return m;
}

// ---- trace workloads ------------------------------------------------

/// workload_sweep's cell configuration: realistic front end, the
/// techniques on or off together, a watchdog scaled to the trace.
SystemConfig trace_config(ConsistencyModel model, bool both, const TraceFile& t,
                          const Workload& wl) {
  SystemConfig cfg = SystemConfig::realistic(t.num_procs(), model);
  cfg.core.prefetch = both ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  cfg.core.speculative_loads = both;
  const std::uint64_t bound = 1000 * t.total_ops() + (10u << 20);
  if (bound > cfg.max_cycles) cfg.max_cycles = bound;
  if (wl.min_mem_bytes > cfg.mem.mem_bytes) {
    const std::uint64_t line = cfg.cache.line_bytes;
    cfg.mem.mem_bytes = (wl.min_mem_bytes + line - 1) / line * line;
  }
  return cfg;
}

/// The trace a trace workload runs. contended_p256 at seed 1 is
/// workload_sweep --scale's P=256 cell.
WorkloadGenSpec trace_spec(WorkloadId w, std::uint64_t seed) {
  WorkloadGenSpec spec;
  spec.seed = seed;
  if (w == WorkloadId::kSpinBarrier8) {
    spec.kind = WorkloadKind::kBarrierTree;
    spec.nprocs = 8;
    spec.ops = kBarrierOps;
  } else {
    spec.kind = WorkloadKind::kZipfian;
    spec.nprocs = kContendedProcs;
    spec.ops = 32ull * kContendedProcs;
  }
  return spec;
}

/// Every model with +both; spin_barrier8 also runs each baseline.
std::vector<std::pair<ConsistencyModel, bool>> trace_cell_list(WorkloadId w) {
  std::vector<std::pair<ConsistencyModel, bool>> cells;
  for (ConsistencyModel model : kModels) {
    if (w == WorkloadId::kSpinBarrier8) cells.push_back({model, false});
    cells.push_back({model, true});
  }
  return cells;
}

void trace_pass(WorkloadId w, std::uint64_t seed, bool traced, PassResult& out) {
  const WorkloadGenSpec spec = trace_spec(w, seed);
  UnitTimer lowering(out);
  const TraceFile t = timed(out.host.trace_generate, [&] { return generate_trace(spec); });
  const Workload wl = timed(out.host.trace_lower, [&] { return trace_to_workload(t); });
  lowering.done();
  out.model.trace_ops += t.total_ops();
  for (const auto& [model, both] : trace_cell_list(w)) {
    UnitTimer unit(out);
    const CellInput in{wl.programs, wl.preload_shared,
                       wl.name + "-" + std::to_string(spec.seed) + "/" + to_string(model) +
                           (both ? "/both" : "/base")};
    RunResult r;
    const std::unique_ptr<Machine> m =
        run_cell(trace_config(model, both, t, wl), in, traced, out, r);
    if (m != nullptr) {
      std::string why = r.deadlocked ? "deadlock" : "";
      for (const auto& [addr, value] : wl.expected) {
        if (why.empty() && m->read_word(addr) != value) why = "validation failed";
      }
      if (!why.empty()) {
        ++out.model.failed;
        out.failures.push_back(in.label + ": " + why);
      }
    }
    unit.done();
  }
}

// ---- litmus_fuzz ----------------------------------------------------

std::vector<sva::FuzzCell> fuzz_cells() {
  const sva::FuzzConfig defaults;
  std::vector<sva::FuzzCell> cells;
  for (ConsistencyModel m : defaults.models) {
    for (const sva::TechniqueKnobs& t : defaults.techniques) {
      sva::FuzzCell c;
      c.model = m;
      c.tech = t;
      cells.push_back(c);
    }
  }
  return cells;
}

/// The fuzz harness's cell configuration (sva::verify_litmus_cell).
SystemConfig litmus_config(const sva::LitmusProgram& lp, const sva::FuzzCell& cell) {
  SystemConfig cfg = SystemConfig::paper_default(
      static_cast<std::uint32_t>(lp.programs.size()), cell.model);
  cfg.core.prefetch = cell.tech.prefetch;
  cfg.core.speculative_loads = cell.tech.speculative_loads;
  cfg.max_cycles = 1'000'000;
  cfg.record_accesses = true;
  return cfg;
}

/// What the checkers need from one simulated litmus cell.
struct LitmusRun {
  bool completed = false;  ///< ran to completion (else already counted failed)
  std::string label;
  std::vector<std::vector<AccessRecord>> logs;
  sva::ScOutcome outcome;
};

LitmusRun simulate_litmus_cell(const sva::LitmusProgram& lp, const sva::FuzzCell& cell,
                               bool traced, PassResult& out) {
  LitmusRun run;
  run.label = "litmus-" + std::to_string(lp.seed) + "/" + cell.label();
  const CellInput in{lp.programs, lp.preload_shared, run.label};
  RunResult r;
  std::unique_ptr<Machine> m = run_cell(litmus_config(lp, cell), in, traced, out, r);
  if (m == nullptr) return run;
  if (r.deadlocked) {
    ++out.model.failed;
    out.failures.push_back(run.label + ": deadlock");
    return run;
  }
  run.completed = true;
  run.logs = m->access_logs();
  for (ProcId p = 0; p < lp.programs.size(); ++p) {
    std::array<Word, kNumArchRegs> regs{};
    for (RegId i = 0; i < kNumArchRegs; ++i) regs[i] = m->core(p).reg(i);
    run.outcome.regs.push_back(regs);
  }
  for (Addr a : lp.addrs) run.outcome.memory.push_back(m->read_word(a));
  return run;
}

/// Order-sensitive 64-bit fingerprint of an SC outcome.
std::uint64_t fingerprint(const sva::ScOutcome& o) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t x) {
    h = (h ^ x) * 0x100000001b3ull;
    h ^= h >> 29;
  };
  for (const auto& regs : o.regs) {
    for (Word w : regs) mix(w);
  }
  for (Word w : o.memory) mix(w);
  return h;
}

/// A program's SC outcomes as sorted fingerprints; nullopt when the
/// enumeration threw or stopped at its state limit (no oracle).
ScOracle make_oracle(const sva::EnumerationResult* sc) {
  if (sc == nullptr || !sc->complete) return std::nullopt;
  std::vector<std::uint64_t> fps;
  for (const sva::ScOutcome& o : sc->outcomes) fps.push_back(fingerprint(o));
  std::sort(fps.begin(), fps.end());
  return fps;
}

/// Judge a completed cell the way the fuzz harness does: the model
/// checker must accept the access logs, and an SC cell's final state
/// must be an enumerated SC outcome. Returns the failure, or "".
std::string judge_litmus_cell(const sva::LitmusProgram& lp, const sva::FuzzCell& cell,
                              const LitmusRun& run, const ScOracle& sc, PassResult& out) {
  ++out.model.sva_cells;
  return timed(out.host.check, [&]() -> std::string {
    const sva::CheckResult cr = sva::check_execution(cell.model, lp.programs, run.logs);
    out.model.arcs_checked += cr.arcs_checked;
    if (!cr.ok()) return "checker violation: " + cr.violations.front().detail;
    if (cell.model != ConsistencyModel::kSC || !sc) return "";
    return std::binary_search(sc->begin(), sc->end(), fingerprint(run.outcome))
               ? ""
               : "SC outcome escape";
  });
}

/// Two phases: first generate every program and simulate every cell,
/// then run the checkers. The process's peak RSS is read between them,
/// so it measures the simulator and not the SC enumerator, whose
/// largest state space varies several-fold from seed to seed.
///
/// With `memo` null or empty, the pass also enumerates each program's
/// SC outcomes, cross-checks verdicts against the library and shrinks
/// failures, and fills a non-null `memo` with the SC outcomes. With
/// `memo` filled, it takes the SC outcomes from there and skips those
/// three; its verdicts come out the same.
void litmus_pass(std::uint64_t seed, bool traced, std::vector<ScOracle>* memo,
                 PassResult& out) {
  const sva::LitmusGenConfig gen;
  const sva::FuzzConfig campaign;
  const std::vector<sva::FuzzCell> cells = fuzz_cells();
  std::vector<sva::LitmusProgram> programs;
  std::vector<std::vector<LitmusRun>> runs;
  for (std::uint64_t i = 0; i < kLitmusPrograms; ++i) {
    UnitTimer unit(out);
    const std::uint64_t child = derive_child_seed(seed, i);
    programs.push_back(
        timed(out.host.litmus_gen, [&] { return sva::generate_litmus(gen, child); }));
    runs.emplace_back();
    for (const sva::FuzzCell& cell : cells)
      runs.back().push_back(simulate_litmus_cell(programs.back(), cell, traced, out));
    unit.done();
  }
  out.sim_peak_rss_mb = peak_rss_mb();

  const bool repeat = memo != nullptr && !memo->empty();
  std::size_t shrunk = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    UnitTimer unit(out);
    const sva::LitmusProgram& lp = programs[i];
    sva::EnumerationResult sc;
    bool have_sc = false;
    ScOracle fresh;
    if (!repeat) {
      timed(out.host.sc_enum, [&] {
        try {
          sc = sva::enumerate_sc_outcomes(lp.programs, kLitmusMemBytes, lp.addrs,
                                          campaign.sc_max_states);
          have_sc = true;
        } catch (const std::exception&) {
          // No oracle for this program; the SC outcome check is skipped.
        }
        fresh = make_oracle(have_sc ? &sc : nullptr);
      });
      if (memo != nullptr) memo->push_back(fresh);
    }
    const ScOracle& oracle = repeat ? (*memo)[i] : fresh;

    std::vector<bool> failed(cells.size(), true);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const LitmusRun& run = runs[i][c];
      if (!run.completed) continue;
      const std::string why = judge_litmus_cell(lp, cells[c], run, oracle, out);
      failed[c] = !why.empty();
      if (failed[c]) {
        ++out.model.failed;
        out.failures.push_back(run.label + ": " + why);
      }
    }
    if (repeat) {
      unit.done();
      continue;
    }

    // The verdicts above come from the benchmark's own copy of the
    // harness's cell loop; the library's verify_litmus_cell must agree
    // on every failing cell and on every cell of the first program.
    const sva::EnumerationResult* scp = have_sc ? &sc : nullptr;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (!failed[c] && i != 0) continue;
      const bool lib = timed(out.host.cross_check, [&] {
        return sva::verify_litmus_cell(lp, cells[c], scp).failed;
      });
      if (lib != failed[c]) {
        out.errors.push_back(runs[i][c].label +
                             ": verify_litmus_cell disagrees with the benchmark's verdict");
      }
    }
    // Like the fuzz campaign, shrink the first failing cell of each of
    // the first max_failures failing programs to a minimal reproducer.
    // (The campaign stops there; this pass checks every program.)
    for (std::size_t c = 0; c < cells.size() && shrunk < campaign.max_failures; ++c) {
      if (!failed[c]) continue;
      timed(out.host.shrink, [&] { sva::shrink_failure(lp, cells[c], campaign.sc_max_states); });
      ++shrunk;
      break;
    }
    unit.done();
  }
}

bool same_hist(const LogHistogram& a, const LogHistogram& b) {
  return a.count() == b.count() && a.mean() == b.mean() && a.p50() == b.p50() &&
         a.p99() == b.p99();
}

}  // namespace

bool workload_from_name(const std::string& name, WorkloadId& out) {
  if (name == "spin_barrier8") out = WorkloadId::kSpinBarrier8;
  else if (name == "contended_p256") out = WorkloadId::kContendedP256;
  else if (name == "litmus_fuzz") out = WorkloadId::kLitmusFuzz;
  else return false;
  return true;
}

double pace_elasticity(WorkloadId w) {
  switch (w) {
    case WorkloadId::kSpinBarrier8: return 1.5;
    case WorkloadId::kContendedP256:
    case WorkloadId::kLitmusFuzz: return 1.0;
  }
  return 1.0;
}

bool Modelled::same_counts(const Modelled& o) const {
  return cells == o.cells && failed == o.failed && cycles == o.cycles && ticks == o.ticks &&
         retired == o.retired && squashes == o.squashes && reissues == o.reissues &&
         prefetches == o.prefetches && prefetch_useful == o.prefetch_useful &&
         msgs == o.msgs && trace_ops == o.trace_ops && sc_both_cycles == o.sc_both_cycles &&
         rc_both_cycles == o.rc_both_cycles && sva_cells == o.sva_cells &&
         arcs_checked == o.arcs_checked && stall == o.stall && per_cell == o.per_cell &&
         same_hist(load_latency, o.load_latency) && same_hist(store_latency, o.store_latency) &&
         same_hist(msg_latency, o.msg_latency);
}

PassResult run_pass(WorkloadId w, std::uint64_t seed, bool traced,
                    std::vector<ScOracle>* memo) {
  PassResult out;
  const auto t0 = Clock::now();
  if (w == WorkloadId::kLitmusFuzz) {
    litmus_pass(seed, traced, memo, out);
  } else {
    trace_pass(w, seed, traced, out);
    out.sim_peak_rss_mb = peak_rss_mb();
  }
  out.host.wall = since(t0);
  return out;
}

}  // namespace perfbench
