// Contended critical sections (paper §3.3 Example 1, under real
// contention): N processors increment shared counters under test&set
// locks. Demonstrates that the techniques preserve mutual exclusion
// while changing the timing, and reports lock-related speculation
// traffic.
//
//   $ ./critical_section [procs] [iterations]
#include <cstdio>
#include <string>

#include "sim/machine.hpp"
#include "sim/options.hpp"
#include "sim/workloads.hpp"

using namespace mcsim;

/// Each processor's program is unrolled, one critical section per iteration.
constexpr std::uint64_t kMaxIterations = 1u << 16;

int main(int argc, char** argv) {
  std::uint64_t procs = 4, iters = 8;
  std::string err = "too many arguments";
  if (argc > 3 || (argc > 1 && !parse_uint(argv[1], "procs", 1, kMaxProcs, procs, err)) ||
      (argc > 2 && !parse_uint(argv[2], "iterations", 0, kMaxIterations, iters, err))) {
    std::fprintf(stderr, "%s\nusage: critical_section [procs 1..%u] [iterations 0..%llu]\n",
                 err.c_str(), kMaxProcs, static_cast<unsigned long long>(kMaxIterations));
    return 1;
  }
  std::printf("critical sections: %llu processors x %llu lock-protected increments\n\n",
              static_cast<unsigned long long>(procs), static_cast<unsigned long long>(iters));
  std::printf("%-6s %-14s %12s %14s %12s\n", "model", "technique", "cycles",
              "counter-total", "rmw-spec");

  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kRC}) {
    for (auto [name, pf, spec] :
         {std::tuple{"baseline", false, false}, {"+prefetch", true, false},
          {"+speculation", false, true}, {"+both", true, true}}) {
      Workload w = make_critical_sections(procs, iters, 2);
      SystemConfig cfg = SystemConfig::realistic(procs, model);
      cfg.core.prefetch = pf ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
      cfg.core.speculative_loads = spec;
      Machine m(cfg, w.programs);
      RunResult r = m.run();
      if (r.deadlocked) {
        std::fprintf(stderr, "deadlock!\n");
        return 1;
      }
      Word total = 0;
      for (auto& [addr, expect] : w.expected) {
        total += m.read_word(addr);
        if (m.read_word(addr) != expect) {
          std::fprintf(stderr, "LOST UPDATE under %s %s\n", to_string(model), name);
          return 1;
        }
      }
      std::uint64_t rmw_spec = 0;
      for (ProcId p = 0; p < procs; ++p)
        rmw_spec += m.core(p).stats().get("rmw_spec_values");
      std::printf("%-6s %-14s %12llu %14u %12llu\n", to_string(model), name,
                  static_cast<unsigned long long>(r.cycles), total,
                  static_cast<unsigned long long>(rmw_spec));
    }
  }
  std::printf("\nEvery configuration preserved mutual exclusion (totals exact).\n");
  return 0;
}
