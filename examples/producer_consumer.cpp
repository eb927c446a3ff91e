// Producer/consumer with flag synchronization — the workload class the
// paper's introduction motivates. Shows per-model cycle counts and the
// technique counters (useful prefetches, squashes) for a 4-processor
// run, then prints one consumer's result for sanity.
//
//   $ ./producer_consumer [items]
#include <cstdio>
#include <string>

#include "sim/machine.hpp"
#include "sim/options.hpp"
#include "sim/workloads.hpp"

using namespace mcsim;

/// A pair's buffer is one 4 KiB block of words.
constexpr std::uint64_t kMaxItems = 1024;

int main(int argc, char** argv) {
  std::uint64_t items = 16;
  std::string err = "too many arguments";
  if (argc > 2 || (argc > 1 && !parse_uint(argv[1], "items", 0, kMaxItems, items, err))) {
    std::fprintf(stderr, "%s\nusage: producer_consumer [items 0..%llu]\n", err.c_str(),
                 static_cast<unsigned long long>(kMaxItems));
    return 1;
  }
  std::printf("producer/consumer, 4 processors, %llu items per pair\n\n",
              static_cast<unsigned long long>(items));
  std::printf("%-6s %12s %12s %12s | %10s %10s\n", "model", "baseline", "+prefetch",
              "+both", "useful-pf", "squashes");

  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                 ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    Cycle cycles[3] = {0, 0, 0};
    std::uint64_t useful = 0, squashes = 0;
    int idx = 0;
    for (auto [pf, spec] : {std::pair{false, false}, {true, false}, {true, true}}) {
      Workload w = make_producer_consumer(4, items);
      SystemConfig cfg = SystemConfig::realistic(4, model);
      cfg.core.prefetch = pf ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
      cfg.core.speculative_loads = spec;
      Machine m(cfg, w.programs);
      RunResult r = m.run();
      if (r.deadlocked) {
        std::fprintf(stderr, "deadlock!\n");
        return 1;
      }
      for (auto& [addr, expect] : w.expected) {
        if (m.read_word(addr) != expect) {
          std::fprintf(stderr, "wrong result under %s\n", to_string(model));
          return 1;
        }
      }
      cycles[idx++] = r.cycles;
      if (pf && spec) {
        for (ProcId p = 0; p < 4; ++p) {
          useful += m.cache(p).stats().get("prefetch_useful_hit") +
                    m.cache(p).stats().get("prefetch_useful_merge");
          squashes += m.core(p).stats().get("squashes");
        }
      }
    }
    std::printf("%-6s %12llu %12llu %12llu | %10llu %10llu\n", to_string(model),
                static_cast<unsigned long long>(cycles[0]),
                static_cast<unsigned long long>(cycles[1]),
                static_cast<unsigned long long>(cycles[2]),
                static_cast<unsigned long long>(useful),
                static_cast<unsigned long long>(squashes));
  }
  std::printf("\nAll runs validated their consumer checksums.\n");
  return 0;
}
