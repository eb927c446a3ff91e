// Ablation for §3.2's requirement: "for prefetching to be beneficial,
// the architecture needs a high-bandwidth pipelined memory system,
// including lockup-free caches [Kroft 81], to sustain several
// outstanding requests at a time."
//
// The binding resource is outstanding-miss concurrency: sweep the MSHR
// count (lockup-free depth). With a single MSHR the cache is blocking
// and the techniques have nothing to overlap with — their benefit
// collapses to (almost) nothing, exactly the paper's precondition.
// Per-endpoint delivery bandwidth (mem.deliver_bw) is swept too for
// completeness; with one probe per cache per cycle it is rarely the
// bottleneck. All cells run in one parallel ExperimentRunner sweep.
#include <cstdio>
#include <string>

#include "bench_util.hpp"

using namespace mcsim;
using namespace mcsim::bench;

namespace {
const std::uint32_t kMshrSweep[] = {16u, 8u, 4u, 2u, 1u};
const std::uint32_t kBwSweep[] = {0u, 2u, 1u};
}  // namespace

int main() {
  std::printf("Ablation: memory-system concurrency requirement (paper §3.2)\n");
  std::printf("producer/consumer, 4 processors, SC\n\n");

  const Workload w = make_producer_consumer(4, 12);
  ExperimentGrid grid("ablation_bandwidth");
  for (std::uint32_t mshrs : kMshrSweep) {
    for (bool both : {false, true}) {
      SystemConfig cfg = tech_config(ConsistencyModel::kSC, both, both);
      cfg.cache.mshrs = mshrs;
      grid.add(w, cfg, both ? "+both" : "baseline",
               {{"mshrs", std::to_string(mshrs)}});
    }
  }
  const std::size_t bw_first = grid.size();
  for (std::uint32_t bw : kBwSweep) {
    for (bool both : {false, true}) {
      SystemConfig cfg = tech_config(ConsistencyModel::kSC, both, both);
      cfg.mem.deliver_bw = bw;
      grid.add(w, cfg, both ? "+both" : "baseline",
               {{"deliver_bw", std::to_string(bw)}});
    }
  }

  ExperimentRunner runner;
  std::vector<CellResult> results = runner.run(grid);

  std::printf("%-18s %12s %12s %12s %10s\n", "lockup-free depth", "baseline", "+both",
              "saved", "speedup");
  for (std::size_t i = 0; i < sizeof(kMshrSweep) / sizeof(kMshrSweep[0]); ++i) {
    Cycle base = results[2 * i].stats.cycles;
    Cycle both = results[2 * i + 1].stats.cycles;
    std::printf("%-18u %12llu %12llu %12lld %9.2fx\n", kMshrSweep[i],
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(both),
                static_cast<long long>(base) - static_cast<long long>(both),
                both == 0 ? 0.0 : static_cast<double>(base) / static_cast<double>(both));
  }

  std::printf("\n%-18s %12s %12s %10s\n", "delivery bw", "baseline", "+both", "speedup");
  for (std::size_t i = 0; i < sizeof(kBwSweep) / sizeof(kBwSweep[0]); ++i) {
    Cycle base = results[bw_first + 2 * i].stats.cycles;
    Cycle both = results[bw_first + 2 * i + 1].stats.cycles;
    char label[24];  // "%u/cycle" for any 32-bit value
    if (kBwSweep[i] == 0)
      std::snprintf(label, sizeof label, "unlimited");
    else
      std::snprintf(label, sizeof label, "%u/cycle", kBwSweep[i]);
    std::printf("%-18s %12llu %12llu %9.2fx\n", label,
                static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(both),
                both == 0 ? 0.0 : static_cast<double>(base) / static_cast<double>(both));
  }
  std::printf(
      "\nExpected: the techniques' speedup collapses toward 1x as the cache\n"
      "loses the ability to sustain multiple outstanding misses; the\n"
      "delivery-bandwidth sweep barely moves (one probe per cache per cycle).\n");

  write_json("BENCH_ablation_bandwidth.json", grid, results, runner.last_sweep());
  return report_failures(results) == 0 ? 0 : 1;
}
