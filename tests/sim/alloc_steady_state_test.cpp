// A run's heap traffic must not grow with its length: once every
// buffer has reached its high-water mark, a miss, a merge, a fill and a
// coherence event allocate nothing. Two cores ping-pong fetch_add on one
// line, so every iteration misses, invalidates the other copy and feeds
// the speculative-load buffer's detection; run() must then allocate as
// often for 50 iterations as for 200.
//
// This executable replaces the global operator new to count calls, so
// it holds no other test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "isa/builder.hpp"
#include "sim/machine.hpp"

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
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mcsim {
namespace {

constexpr Addr kCounter = 0x1000;

Program ping_pong(Word iterations) {
  ProgramBuilder b;
  b.li(1, iterations);
  b.li(2, 1);
  b.label("loop");
  b.fetch_add(3, ProgramBuilder::abs(kCounter), 2);
  b.addi(1, 1, -1);
  b.bne(1, 0, "loop");
  b.halt();
  return b.build();
}

/// Heap allocations made inside run() of a fresh two-core machine.
std::size_t run_allocations(const SystemConfig& cfg, Word iterations) {
  Machine m(cfg, {ping_pong(iterations), ping_pong(iterations)});
  const std::size_t before = g_news;
  const RunResult r = m.run();
  const std::size_t during = g_news - before;
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(m.read_word(kCounter), 2 * iterations);
  return during;
}

TEST(AllocSteadyState, RunAllocatesIndependentlyOfItsLength) {
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    for (bool both : {false, true}) {
      SystemConfig cfg = SystemConfig::realistic(2, model);
#ifdef MCSIM_FF_AUDIT
      cfg.fastforward = false;  // the audit's twin and fingerprints allocate per jump
#endif
      if (both) {
        cfg.core.prefetch = PrefetchMode::kNonBinding;
        cfg.core.speculative_loads = true;
      }
      const std::string what =
          std::string(to_string(model)) + (both ? " +both" : " base");
      run_allocations(cfg, 20);  // warm-up: interned names, lazy statics
      const std::size_t short_run = run_allocations(cfg, 50);
      const std::size_t long_run = run_allocations(cfg, 200);
      EXPECT_EQ(short_run, long_run) << what << ": allocations grow with the run";
    }
  }
}

}  // namespace
}  // namespace mcsim
