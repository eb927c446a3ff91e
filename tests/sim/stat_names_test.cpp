// Every statistic name is interned at static init: running a machine
// interns none, so every StatSet built afterwards is sized to the whole
// name table and the hot path never grows it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/machine.hpp"
#include "sim/workloads.hpp"

namespace mcsim {
namespace {

struct Shape {
  const char* name;
  Topology topology = Topology::kCrossbar;
  std::uint32_t dir_banks = 1;
  CoherenceKind coherence = CoherenceKind::kInvalidation;
};

const Shape kShapes[] = {
    {"crossbar"},
    {"ring", Topology::kRing},
    {"mesh2d", Topology::kMesh2D},
    {"2 banks", Topology::kCrossbar, 2},
    {"update", Topology::kCrossbar, 1, CoherenceKind::kUpdate},
};

SystemConfig config_for(const Shape& s) {
  SystemConfig cfg = SystemConfig::realistic(4, ConsistencyModel::kSC);
  cfg.mem.topology = s.topology;
  cfg.mem.dir_banks = s.dir_banks;
  cfg.mem.coherence = s.coherence;
  cfg.core.speculative_loads = true;
  cfg.core.prefetch = PrefetchMode::kNonBinding;
  cfg.profile = true;
  return cfg;
}

std::vector<const StatSet*> stat_sets(Machine& m, std::uint32_t nprocs) {
  std::vector<const StatSet*> sets;
  for (ProcId p = 0; p < nprocs; ++p) {
    sets.push_back(&m.core(p).stats());
    sets.push_back(&m.core(p).lsu().stats());
    sets.push_back(&m.cache(p).stats());
  }
  for (std::uint32_t b = 0; b < m.directory().num_banks(); ++b)
    sets.push_back(&m.directory().bank(b).stats());
  sets.push_back(&m.network().stats());
  return sets;
}

TEST(StatNames, NoNameIsInternedDuringARun) {
  const std::size_t names = StatNames::count();
  for (const Shape& s : kShapes) {
    const SystemConfig cfg = config_for(s);
    Workload w = make_producer_consumer(cfg.num_procs, 8);
    Machine m(cfg, w.programs);
    const RunResult r = m.run();
    ASSERT_FALSE(r.deadlocked) << s.name;
    EXPECT_EQ(StatNames::count(), names) << s.name;
  }
  for (const Shape& s : kShapes) {
    const SystemConfig cfg = config_for(s);
    Workload w = make_critical_sections(cfg.num_procs, 4, 2);
    Machine m(cfg, w.programs);
    for (const StatSet* set : stat_sets(m, cfg.num_procs))
      EXPECT_EQ(set->counter_slots(), StatNames::count()) << s.name << ' ' << set->prefix();
  }
}

}  // namespace
}  // namespace mcsim
