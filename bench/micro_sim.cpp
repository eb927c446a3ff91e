// Simulator-throughput microbenchmarks (google-benchmark): how fast the
// host machine simulates the guest, for the hot paths a user of the
// library cares about when scaling experiments up.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "isa/builder.hpp"
#include "isa/interp.hpp"
#include "sim/machine.hpp"
#include "sim/sched.hpp"
#include "sim/workloads.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/litmus_gen.hpp"
#include "sva/model_checker.hpp"
#include "trace/trace_core.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

// Runs `m` and reports the time of run() alone as the iteration's time,
// for rows registered with UseManualTime(): building and destroying the
// machine stay untimed without a PauseTiming / ResumeTiming pair around
// every run.
RunResult timed_run(benchmark::State& state, Machine& m) {
  const auto start = std::chrono::steady_clock::now();
  RunResult r = m.run();
  state.SetIterationTime(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  return r;
}

void BM_CacheHitProbe(benchmark::State& state) {
  CacheConfig cfg;
  MemConfig mem_cfg;
  Network net(2, mem_cfg.net_latency);
  CoherentCache cache(0, cfg, mem_cfg, net, 1, CoreConfig{}.max_requests());
  std::vector<Word> line(cfg.line_bytes / kWordBytes, 42);
  cache.preload_line(0x1000, LineState::kExclusive, line);
  Cycle now = 0;
  std::uint64_t token = 1;
  for (auto _ : state) {
    CacheRequest req;
    req.op = CacheOp::kLoad;
    req.addr = 0x1000;
    req.token = token++;
    benchmark::DoNotOptimize(cache.probe(req, now++));
    CacheResponse resp;
    while (cache.pop_response(now, resp)) benchmark::DoNotOptimize(resp.value);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitProbe);

void BM_NetworkSendDeliver(benchmark::State& state) {
  Network net(4, 10);
  Cycle now = 0;
  for (auto _ : state) {
    Message m;
    m.type = MsgType::kReadReq;
    m.src = 0;
    m.dst = 3;
    net.send(std::move(m), now);
    net.deliver(now + 10);
    Message out;
    while (net.recv(3, out)) benchmark::DoNotOptimize(out.line_addr);
    now += 11;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

// The dominant Network call in a real run: deliver() on an EMPTY
// network (most machine cycles have nothing in flight). Must be a
// couple of branches — no allocation, no scan.
void BM_NetworkDeliverIdle(benchmark::State& state) {
  Network net(4, 10);
  Cycle now = 0;
  for (auto _ : state) {
    net.deliver(now++);
    benchmark::DoNotOptimize(net.idle());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkDeliverIdle);

// Sustained per-endpoint back-pressure: 32 messages to one endpoint
// draining at 1/cycle. The stall queues keep this O(drained) per cycle
// instead of re-heapifying every deferred message.
void BM_NetworkBackpressureDrain(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Network net(4, 1, /*deliver_bw=*/1);
    for (int i = 0; i < 32; ++i) {
      Message m;
      m.type = MsgType::kReadReq;
      m.src = 0;
      m.dst = 3;
      net.send(std::move(m), 0);
    }
    Message out;
    state.ResumeTiming();
    for (Cycle c = 1; !net.idle(); ++c) {
      net.deliver(c);
      while (net.recv(3, out)) benchmark::DoNotOptimize(out.line_addr);
    }
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_NetworkBackpressureDrain);

// Routed-fabric hot path: one message crossing a 4x4-ish mesh per
// burst, exercising link advance + injection bookkeeping.
void BM_NetworkMeshTraversal(benchmark::State& state) {
  Network net(16, 1, 0, Topology::kMesh2D);
  Cycle now = 0;
  Message out;
  for (auto _ : state) {
    Message m;
    m.type = MsgType::kReadReq;
    m.src = 0;
    m.dst = 15;
    net.send(std::move(m), now);
    while (!net.recv(15, out)) net.deliver(++now);
    benchmark::DoNotOptimize(out.line_addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkMeshTraversal);

// The active-set scheduler's arming pattern on the contended path:
// every live cycle, components arm for this cycle, the next one and
// net_latency + dir_latency (51) cycles ahead, then everything due now
// pops. Every arming falls in the calendar wheel. Items = pops.
void BM_SchedulerNearChurn(benchmark::State& state) {
  constexpr std::uint32_t kUniverse = 1 + 1 + 2 * 256;  // P=256, one bank
  Scheduler s(kUniverse);
  Cycle c = 0;
  std::int64_t pops = 0;
  for (auto _ : state) {
    s.arm(static_cast<Scheduler::CompId>((c * 7) % kUniverse), c);
    s.arm(static_cast<Scheduler::CompId>((c * 13 + 1) % kUniverse), c + 1);
    s.arm(static_cast<Scheduler::CompId>((c * 31 + 2) % kUniverse), c + 51);
    while (!s.empty() && s.next_cycle() <= c) {
      benchmark::DoNotOptimize(s.pop());
      ++pops;
    }
    ++c;
  }
  state.SetItemsProcessed(pops);
}
BENCHMARK(BM_SchedulerNearChurn);

// N caches ReadEx one line at once, round after round: the directory
// queues N - 1 requests behind the first, and every replay recalls the
// line from the previous writer, so the rest of the wait queue moves to
// each next transaction. Only caches with delivered traffic tick, as
// under the machine's active set. Items = requests served.
void BM_DirectoryHotLineFanIn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr Addr kLine = 0x1000;
  CacheConfig cfg;
  MemConfig mem_cfg;
  Network net(n + 1, mem_cfg.net_latency);
  DirectoryGroup dir(n, cfg, mem_cfg, net);
  std::vector<std::unique_ptr<CoherentCache>> caches;
  for (ProcId p = 0; p < n; ++p)
    caches.push_back(
        std::make_unique<CoherentCache>(p, cfg, mem_cfg, net, n, CoreConfig{}.max_requests()));
  std::vector<EndpointId> landed;
  net.set_delivery_hook([&landed](EndpointId ep) { landed.push_back(ep); });
  Cycle now = 0;
  std::uint64_t token = 1;
  for (auto _ : state) {
    for (ProcId p = 0; p < n; ++p) {
      CacheRequest req;
      req.op = CacheOp::kStore;
      req.addr = kLine;
      req.store_value = p;
      req.token = token++;
      benchmark::DoNotOptimize(caches[p]->probe(req, now));
    }
    do {
      landed.clear();
      net.deliver(now);
      dir.tick(now);
      for (EndpointId ep : landed) {
        if (ep < n) caches[ep]->tick(now);
      }
      ++now;
    } while (!net.idle() || !dir.idle());
    CacheResponse resp;
    for (auto& c : caches) {
      while (c->pop_response(now + 1000, resp)) benchmark::DoNotOptimize(resp.value);
    }
    now += 1000;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_DirectoryHotLineFanIn)->Arg(64)->Arg(256);

void BM_InterpreterThroughput(benchmark::State& state) {
  ProgramBuilder b;
  b.li(1, 0);
  b.li(2, 1);
  b.li(3, 10000);
  b.label("loop");
  b.add(1, 1, 2);
  b.addi(2, 2, 1);
  b.blt(2, 3, "loop");
  b.halt();
  Program p = b.build();
  for (auto _ : state) {
    FlatMemory mem(1 << 16);
    InterpResult r = interpret(p, mem);
    benchmark::DoNotOptimize(r.regs[1]);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_InterpreterThroughput);

void BM_MachineCyclesPerSecond(benchmark::State& state) {
  const bool spec = state.range(0) != 0;
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    Workload w = make_critical_sections(2, 3, 2);
    SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
    cfg.core.speculative_loads = spec;
    cfg.core.prefetch = spec ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
    Machine m(cfg, w.programs);
    RunResult r = m.run();
    guest_cycles += r.cycles;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles");
}
BENCHMARK(BM_MachineCyclesPerSecond)->Arg(0)->Arg(1);

// The tentpole speedup: a miss-heavy workload (long clean-miss latency,
// so most machine cycles are quiescent waits on the directory) with the
// naive per-cycle loop (arg 0) vs the event-driven fast-forward
// scheduler (arg 1). Results are cycle-identical; only host time and
// the items/sec rate differ.
void BM_MachineFastForwardMissHeavy(benchmark::State& state) {
  const bool fastforward = state.range(0) != 0;
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    // Dependent pointer-chase: the core genuinely stalls for the full
    // miss latency (no spin-loop retirement keeping ticks live), so
    // nearly every cycle is skippable.
    Workload w = make_dependent_chain(2, 32, 2);
    SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
    cfg.with_clean_miss_latency(400);
    cfg.fastforward = fastforward;
    Machine m(cfg, w.programs);
    RunResult r = m.run();
    guest_cycles += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles");
}
BENCHMARK(BM_MachineFastForwardMissHeavy)->Arg(0)->Arg(1);

// Profiler cost guard: the same miss-heavy cell as the fast-forward
// bench, with the technique-efficacy profiler off (arg 0) vs on
// (arg 1). The off case is the one that matters — --profile is opt-in
// and the hooks must be a single dead branch when disabled, so Off must
// track BM_MachineFastForwardMissHeavy/1 to within noise (<2%).
void run_profiler_cell(benchmark::State& state, bool profile) {
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    Workload w = make_dependent_chain(2, 32, 2);
    SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
    cfg.with_clean_miss_latency(400);
    cfg.profile = profile;
    Machine m(cfg, w.programs);
    RunResult r = m.run();
    guest_cycles += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles");
}
void BM_MachineProfilerOff(benchmark::State& state) { run_profiler_cell(state, false); }
void BM_MachineProfilerOn(benchmark::State& state) { run_profiler_cell(state, true); }
BENCHMARK(BM_MachineProfilerOff);
BENCHMARK(BM_MachineProfilerOn);

// Cost of one next_event_cycle() sweep — the price the fast-forward
// scheduler pays per machine cycle on top of the naive loop. Probed on
// a fully drained machine, the worst case: no component reports `now`,
// so the min-scan visits the network, every cache, and every core.
void BM_MachineNextEventProbe(benchmark::State& state) {
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  Machine m(cfg, w.programs);
  m.run();
  m.step();  // settle the progress flags armed by the final live tick
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.next_event_cycle());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineNextEventProbe);

// The same probe at P processors — the O(P) sweep the active-set
// scheduler replaces. Pair with BM_MachineActiveSetIdleProbe below for
// the before/after ns-per-probe numbers in DESIGN.md.
void BM_MachineNextEventSweep(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  std::vector<Program> programs;
  for (std::uint32_t p = 0; p < procs; ++p) {
    ProgramBuilder b;
    b.halt();
    programs.push_back(b.build());
  }
  SystemConfig cfg = SystemConfig::realistic(procs, ConsistencyModel::kSC);
  cfg.mem.dir_scheme = DirScheme::kCoarseVector;
  cfg.mem.dir_cluster = 8;
  cfg.mem.dir_banks = 4;
  Machine m(cfg, std::move(programs));
  m.run();
  m.step();  // leave run(): settle progress flags, sched goes dormant
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.next_event_cycle());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("O(P) sweep (naive/ground-truth path)");
}
BENCHMARK(BM_MachineNextEventSweep)->Arg(64)->Arg(256);

// The active-set replacement: run()'s per-jump probe is the scheduler
// heap top, O(1) no matter how many components exist or are armed.
// Measured on a fully-armed heap sized to the machine's component
// universe (network + 4 banks + P caches + P cores) — the worst case,
// since an idle machine arms far fewer.
void BM_MachineActiveSetIdleProbe(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t universe = 1 + 4 + 2 * procs;
  Scheduler s(universe);
  Pcg32 rng(procs);
  for (Scheduler::CompId c = 0; c < universe; ++c) {
    s.arm(c, 1 + rng.next_below(4096));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.next_cycle());
    benchmark::DoNotOptimize(s.top());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("O(1) heap-top probe (active-set path)");
}
BENCHMARK(BM_MachineActiveSetIdleProbe)->Arg(64)->Arg(256);

// Building and destroying a paper_default machine of P processors, the
// per-cell setup cost a campaign of thousands of tiny machines pays.
// Each iteration also copies P one-instruction programs into the
// machine. Items = machines built.
void BM_MachineConstruct(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  std::vector<Program> programs;
  for (std::uint32_t p = 0; p < procs; ++p) {
    ProgramBuilder b;
    b.halt();
    programs.push_back(b.build());
  }
  const SystemConfig cfg = SystemConfig::paper_default(procs, ConsistencyModel::kSC);
  for (auto _ : state) {
    Machine m(cfg, programs);
    benchmark::DoNotOptimize(&m);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineConstruct)->Arg(2)->Arg(256);

// What one litmus cell pays around its short run: build a paper_default
// machine of P processors, preload one line into P0's cache, run P0's
// one load of an initialised word (every other processor halts at
// once), and destroy the machine. Items = machines built.
void BM_MachineLifecycle(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  std::vector<Program> programs;
  for (std::uint32_t p = 0; p < procs; ++p) {
    ProgramBuilder b;
    if (p == 0) b.data(0x100, 1).load(1, MemOperand{0, 0, 0, 0x100});
    b.halt();
    programs.push_back(b.build());
  }
  const SystemConfig cfg = SystemConfig::paper_default(procs, ConsistencyModel::kSC);
  for (auto _ : state) {
    Machine m(cfg, programs);
    m.preload_shared(0, 0x200);
    RunResult r = m.run();
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineLifecycle)->Arg(2)->Arg(256);

// The fuzz campaign's unit of work: the 16 model x technique cells of
// one litmus program (the first of fuzz_models' default campaign), each
// built, run, checked by the model checker and destroyed. Items = cells.
void BM_LitmusCell(benchmark::State& state) {
  const sva::LitmusProgram lp =
      sva::generate_litmus(sva::LitmusGenConfig{}, derive_child_seed(1, 0));
  const sva::FuzzConfig campaign;
  std::vector<SystemConfig> configs;
  for (ConsistencyModel model : campaign.models) {
    for (const sva::TechniqueKnobs& tech : campaign.techniques) {
      SystemConfig cfg = SystemConfig::paper_default(
          static_cast<std::uint32_t>(lp.programs.size()), model);
      cfg.core.prefetch = tech.prefetch;
      cfg.core.speculative_loads = tech.speculative_loads;
      cfg.max_cycles = 1'000'000;
      cfg.record_accesses = true;
      configs.push_back(cfg);
    }
  }
  std::uint64_t arcs = 0;
  for (auto _ : state) {
    for (const SystemConfig& cfg : configs) {
      Machine m(cfg, lp.programs);
      for (const auto& [proc, addr] : lp.preload_shared) m.preload_shared(proc, addr);
      const RunResult r = m.run();
      benchmark::DoNotOptimize(r.cycles);
      arcs += sva::check_execution(cfg.model, lp.programs, m.access_logs()).arcs_checked;
    }
  }
  benchmark::DoNotOptimize(arcs);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(configs.size()));
  state.SetLabel("items = litmus cells");
}
BENCHMARK(BM_LitmusCell);

// ISSUE 10's target shape end to end: P processors, 4 of which do real
// work (a contended RMW line plus private strides) while P-4 halt
// immediately. Items = simulated guest cycles, so items/s is
// sim-cycles/s; before the active-set scheduler every live cycle paid
// O(P) ticks and every jump paid O(P) replays regardless of activity.
void BM_MachineSparseActivity(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  constexpr Addr kCounter = 0x10000;
  constexpr Addr kDataBase = 0x40000;
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    // Construction and teardown of a 256-core machine cost more than
    // simulating this whole cell; time ONLY the run loop under test.
    std::vector<Program> programs;
    programs.reserve(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
      ProgramBuilder b;
      if (p < 4) {
        b.li(1, 16);
        b.li(2, 1);
        b.label("loop");
        b.fetch_add(3, ProgramBuilder::abs(kCounter), 2);
        b.store(3, ProgramBuilder::indexed(kDataBase + p * 0x1000, 1));
        b.load(4, ProgramBuilder::indexed(kDataBase + p * 0x1000, 1));
        b.sub(1, 1, 2);
        b.bne(1, 0, "loop", BranchHint::kTaken);
      }
      b.halt();
      programs.push_back(b.build());
    }
    SystemConfig cfg = SystemConfig::realistic(procs, ConsistencyModel::kSC);
    cfg.mem.dir_scheme = DirScheme::kCoarseVector;
    cfg.mem.dir_cluster = 8;
    cfg.mem.dir_banks = 4;
    Machine m(cfg, std::move(programs));
    const RunResult r = timed_run(state, m);
    guest_cycles += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles (4 active cores)");
}
BENCHMARK(BM_MachineSparseActivity)->Arg(64)->Arg(256)->UseManualTime();

// The contended shape: a P-processor zipfian trace (32 ops per
// processor, seed 1, workload_sweep --scale's cell at P=256) under SC
// with prefetching and speculative loads. Most cores sleep with a miss
// outstanding on a few hot lines, so this times how cheaply a sleeping
// core's stall span is charged when it wakes. Items = simulated guest
// cycles, so items/s is sim-cycles/s; only run() is timed.
void BM_MachineContendedSleepers(benchmark::State& state) {
  const auto procs = static_cast<std::uint32_t>(state.range(0));
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kZipfian;
  spec.nprocs = procs;
  spec.ops = 32ull * procs;
  spec.seed = 1;
  const TraceFile t = generate_trace(spec);
  const Workload w = trace_to_workload(t);
  SystemConfig cfg = SystemConfig::realistic(procs, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  cfg.max_cycles = std::max<Cycle>(cfg.max_cycles, 1000 * t.total_ops() + (10u << 20));
  cfg.mem.mem_bytes = std::max<std::uint64_t>(cfg.mem.mem_bytes, w.min_mem_bytes);
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    Machine m(cfg, w.programs);
    const RunResult r = timed_run(state, m);
    guest_cycles += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles (zipfian SC +both)");
}
BENCHMARK(BM_MachineContendedSleepers)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseManualTime();

// The live-pipeline shape: an 8-processor barrier_tree trace (5000 ops,
// seed 1) under SC with prefetching and speculative loads. Cores spin
// on lines that hit in their caches and rarely sleep, so this times the
// core's per-tick cost: selection, wakeup, rename and the LSU queues.
// Items = simulated guest cycles, so items/s is sim-cycles/s; only
// run() is timed.
void BM_MachineBarrierTree8(benchmark::State& state) {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kBarrierTree;
  spec.nprocs = 8;
  spec.ops = 5000;
  spec.seed = 1;
  const TraceFile t = generate_trace(spec);
  const Workload w = trace_to_workload(t);
  SystemConfig cfg = SystemConfig::realistic(spec.nprocs, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  cfg.max_cycles = std::max<Cycle>(cfg.max_cycles, 1000 * t.total_ops() + (10u << 20));
  const std::uint64_t line = cfg.cache.line_bytes;
  cfg.mem.mem_bytes =
      std::max<std::uint64_t>(cfg.mem.mem_bytes, (w.min_mem_bytes + line - 1) / line * line);
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    Machine m(cfg, w.programs);
    const RunResult r = timed_run(state, m);
    guest_cycles += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles (barrier_tree SC +both)");
}
BENCHMARK(BM_MachineBarrierTree8)->Unit(benchmark::kMillisecond)->UseManualTime();

// A probe's two state passes (Core::probe_state: record S1, then
// compare S2 against it) on a core spinning in the barrier_tree trace
// of BM_MachineBarrierTree8: what a spinning core pays, per probe,
// before it may sleep. Items = probes.
void BM_PeriodProbe(benchmark::State& state) {
  WorkloadGenSpec spec;
  spec.kind = WorkloadKind::kBarrierTree;
  spec.nprocs = 8;
  spec.ops = 5000;
  spec.seed = 1;
  const Workload w = trace_to_workload(generate_trace(spec));
  SystemConfig cfg = SystemConfig::realistic(spec.nprocs, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  const std::uint64_t line = cfg.cache.line_bytes;
  cfg.mem.mem_bytes =
      std::max<std::uint64_t>(cfg.mem.mem_bytes, (w.min_mem_bytes + line - 1) / line * line);
  Machine m(cfg, w.programs);
  constexpr ProcId kSpinner = 1;
  Core& core = m.core(kSpinner);
  CoherentCache& cache = m.cache(kSpinner);
  // Step until the core spins: 64 cycles in which it retires while its
  // cache handles nothing new.
  for (;;) {
    const std::uint64_t activity = cache.activity(), retired = core.instructions_retired();
    for (int i = 0; i < 64; ++i) m.step();
    if (cache.activity() == activity && core.instructions_retired() > retired) break;
    if (core.halted()) {
      state.SkipWithError("the core halted before it spun");
      return;
    }
  }
  // The ways the spin probes, logged as a probe logs them.
  cache.start_touch_log();
  for (int i = 0; i < 64; ++i) m.step();
  cache.stop_touch_log();
  PeriodWalk::Record s1;
  for (auto _ : state) {
    const bool matched = core.probe_state(s1);
    benchmark::DoNotOptimize(matched);
    benchmark::DoNotOptimize(s1.data.get());
    benchmark::ClobberMemory();
    if (!matched) {
      state.SkipWithError("a state did not match itself");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("items = probes; " + std::to_string(s1.size) + " values per record");
}
BENCHMARK(BM_PeriodProbe);

// One core spinning on a flag that stays in its cache, SC with both
// techniques: every tick is a live core tick whose load hits, the
// per-tick cost spin_barrier8 is bound by (operand wakeup, the delay-arc
// gates, the hit's response). Items = core ticks; only run() is timed.
void BM_CoreSpinOnHit(benchmark::State& state) {
  constexpr Addr kFlag = 0x1000;
  ProgramBuilder b;
  b.data(kFlag, 1);
  b.li(2, 5000);
  b.label("spin");
  b.load(1, ProgramBuilder::abs(kFlag));
  b.add(3, 3, 1);
  b.sub(2, 2, 1);
  b.bne(2, 0, "spin");
  b.halt();
  const Program p = b.build();
  SystemConfig cfg = SystemConfig::realistic(1, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  std::uint64_t ticks = 0;
  for (auto _ : state) {
    Machine m(cfg, std::vector<Program>{p});
    m.preload_shared(0, kFlag);
    const RunResult r = timed_run(state, m);
    ticks += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ticks));
  state.SetLabel("items = core ticks");
}
BENCHMARK(BM_CoreSpinOnHit)->UseManualTime();

// Seven cores spin on a flag that one core stores after a long counted
// delay: the spinners' periodic spans are what periodic sleep settles in
// closed form. Items = guest cycles; only run() is timed.
void BM_MachineFlagSpin(benchmark::State& state) {
  constexpr Addr kFlag = 0x1000;
  constexpr ProcId kProcs = 8;
  ProgramBuilder setter;
  setter.li(1, 50'000);
  setter.label("delay");
  setter.addi(1, 1, -1);
  setter.bne(1, 0, "delay");
  setter.li(2, 1);
  setter.store(2, ProgramBuilder::abs(kFlag));
  setter.halt();
  ProgramBuilder spinner;
  spinner.spin_until_eq(kFlag, 1);
  spinner.halt();
  std::vector<Program> programs(kProcs, spinner.build());
  programs[0] = setter.build();
  const SystemConfig cfg = SystemConfig::realistic(kProcs, ConsistencyModel::kSC);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    Machine m(cfg, programs);
    const RunResult r = timed_run(state, m);
    cycles += r.ticks;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
  state.SetLabel("items = guest cycles");
}
BENCHMARK(BM_MachineFlagSpin)->UseManualTime();

void BM_SpecLoadBufferScan(benchmark::State& state) {
  SpecLoadBuffer buf(16);
  for (std::uint64_t i = 0; i < 16; ++i) {
    SpecLoadBuffer::Entry e;
    e.seq = i;
    e.addr = 0x100 * i;
    e.line = 0x100 * i;
    e.acq = true;
    buf.insert(e);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.on_line_event(LineEventKind::kInvalidate, 0x700));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpecLoadBufferScan);

void BM_StatSetAddById(benchmark::State& state) {
  // The per-event hot path: a pre-interned handle, resolved once.
  static const StatId id = StatNames::intern("micro.add_by_id");
  StatSet s("bm");
  for (auto _ : state) {
    s.add(id);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatSetAddById);

void BM_StatSetAddByString(benchmark::State& state) {
  // The cold path interning on every call — what every call site paid
  // before de-stringification.
  StatSet s("bm");
  for (auto _ : state) {
    s.add("micro.add_by_string");
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatSetAddByString);

void BM_StatSetConstructPresized(benchmark::State& state) {
  // StatSet construction presizes its dense counter vector to every
  // name interned so far, so the hot path never reallocates. Guard
  // both properties: construction stays cheap as names accumulate,
  // and the invariant itself holds.
  for (auto _ : state) {
    StatSet s("bm");
    if (s.counter_slots() < StatNames::count()) {
      state.SkipWithError("counter vector not presized to interned names");
      break;
    }
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatSetConstructPresized);

void BM_CoreTickStallAccounting(benchmark::State& state) {
  // End-to-end cost of a machine cycle with stall-cause attribution on
  // every core tick (the observability hot path; trace sink disabled).
  Workload w = make_producer_consumer(2, 4);
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  std::uint64_t guest_cycles = 0;
  for (auto _ : state) {
    Machine m(cfg, w.programs);
    RunResult r = m.run();
    guest_cycles += r.ticks;
    benchmark::DoNotOptimize(r.stall);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(guest_cycles));
  state.SetLabel("items = simulated guest cycles");
}
BENCHMARK(BM_CoreTickStallAccounting);

}  // namespace
}  // namespace mcsim

// glibc serves a big block (a P=256 machine's arena) with mmap and
// hands a freed heap top back to the OS, so a loop that builds and
// destroys machines faults every page back in on each pass and the
// machine rows time page faults more than the code. Keep freed memory in
// the heap for the whole run, before anything is timed.
[[maybe_unused]] const bool kHeapPinned = [] {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest: every arena comes from the heap
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return true;
}();

BENCHMARK_MAIN();
