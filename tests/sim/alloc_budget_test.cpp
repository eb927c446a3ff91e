// Heap allocations per small machine. A differential fuzz campaign
// builds, runs, checks and throws away thousands of two- to
// four-processor machines, so their fixed cost bounds every campaign:
//
//  * the 16 model x technique cells of one litmus program, each built,
//    run, checked by the model checker and destroyed, average at most
//    kCellBudget allocations (one arena per machine, buffers sized at
//    construction, a checker that reuses its scratch);
//  * a counted spin with prefetching on allocates as often in run()
//    for 50,000 iterations as for 5,000: once every buffer has reached
//    its high-water mark, nothing in the steady state allocates.
//
// This executable replaces the global operator new to count calls, so
// it holds no other test. The aligned form is counted too: a memory
// resource (a machine's arena, see docs/INTERNALS.md §1) takes its
// chunks through it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.hpp"
#include "isa/builder.hpp"
#include "sim/machine.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/litmus_gen.hpp"
#include "sva/model_checker.hpp"

namespace {
std::size_t g_news = 0;
}  // namespace

// Out of line, so GCC does not pair an inlined malloc with a sized
// delete's free and warn about a mismatch that is not there.
__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(std::size_t n, std::align_val_t a) {
  ++g_news;
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mcsim {
namespace {

constexpr double kCellBudget = 26;

/// The fuzz harness's machine for one cell of `lp`.
SystemConfig cell_config(const sva::LitmusProgram& lp, const sva::FuzzCell& cell) {
  SystemConfig cfg = SystemConfig::paper_default(
      static_cast<std::uint32_t>(lp.programs.size()), cell.model);
  cfg.core.prefetch = cell.tech.prefetch;
  cfg.core.speculative_loads = cell.tech.speculative_loads;
  cfg.max_cycles = 1'000'000;
  cfg.record_accesses = true;
#ifdef MCSIM_FF_AUDIT
  cfg.fastforward = false;  // the audit's twin and fingerprints allocate per jump
#endif
  return cfg;
}

/// Build, run, check and destroy one cell; returns its allocations.
std::size_t cell_allocations(const sva::LitmusProgram& lp, const sva::FuzzCell& cell) {
  const SystemConfig cfg = cell_config(lp, cell);
  const std::size_t before = g_news;
  {
    Machine m(cfg, lp.programs);
    for (const auto& [proc, addr] : lp.preload_shared) m.preload_shared(proc, addr);
    const RunResult r = m.run();
    EXPECT_FALSE(r.deadlocked) << cell.label();
    const sva::CheckResult check =
        sva::check_execution(cell.model, lp.programs, m.access_logs());
    EXPECT_TRUE(check.ok()) << cell.label() << ": " << check.describe();
  }
  return g_news - before;
}

TEST(AllocBudget, ALitmusCellBuildsRunsAndChecksWithinItsBudget) {
  // The first program of fuzz_models' default campaign.
  const sva::LitmusProgram lp = sva::generate_litmus(sva::LitmusGenConfig{},
                                                     derive_child_seed(1, 0));
  const sva::FuzzConfig campaign;
  cell_allocations(lp, sva::FuzzCell{});  // warm-up: interned names, lazy statics
  std::size_t total = 0, cells = 0;
  for (ConsistencyModel model : campaign.models) {
    for (const sva::TechniqueKnobs& tech : campaign.techniques) {
      total += cell_allocations(lp, sva::FuzzCell{model, tech, {}});
      ++cells;
    }
  }
  ASSERT_EQ(cells, 16u);
  const double per_cell = static_cast<double>(total) / static_cast<double>(cells);
  EXPECT_LE(per_cell, kCellBudget) << lp.programs.size() << " processors";
  std::printf("allocations per litmus cell: %.2f (%zu processors)\n", per_cell,
              lp.programs.size());
}

constexpr Addr kFlag = 0x1000;
constexpr Addr kShared = 0x2000;

/// Write the remaining count to a line both cores write, then read a
/// flag, `iterations` times. Every store misses and the next one waits
/// behind it under SC, so the prefetch engine queues an exclusive
/// prefetch on every iteration.
Program counted_spin(Word iterations) {
  ProgramBuilder b;
  b.li(1, iterations);
  b.label("loop");
  b.store(1, ProgramBuilder::abs(kShared));
  b.load(2, ProgramBuilder::abs(kFlag));
  b.addi(1, 1, -1);
  b.bne(1, 0, "loop");
  b.halt();
  return b.build();
}

/// Heap allocations made inside run() of a fresh two-core spin.
std::size_t run_allocations(Word iterations) {
  SystemConfig cfg = SystemConfig::realistic(2, ConsistencyModel::kSC);
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.core.speculative_loads = true;
  cfg.max_cycles = 1000 * std::uint64_t{iterations};  // every store is a coherence miss
#ifdef MCSIM_FF_AUDIT
  cfg.fastforward = false;  // the audit's twin and fingerprints allocate per jump
#endif
  Machine m(cfg, {counted_spin(iterations), counted_spin(iterations)});
  const std::size_t before = g_news;
  const RunResult r = m.run();
  const std::size_t during = g_news - before;
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(m.core(0).instructions_retired(), 4 * std::uint64_t{iterations} + 2);
  return during;
}

TEST(AllocBudget, ACountedSpinAllocatesIndependentlyOfItsLength) {
  run_allocations(500);  // warm-up: interned names, lazy statics
  const std::size_t short_run = run_allocations(5'000);
  const std::size_t long_run = run_allocations(50'000);
  EXPECT_EQ(short_run, long_run) << "allocations grow with the run";
}

}  // namespace
}  // namespace mcsim
