// Golden-trace regression corpus: small checked-in trace files replayed
// across every consistency model, technique setting and two topologies,
// with pinned cycle counts and final-state fingerprints. Any timing or
// semantics drift in the trace frontend (or the machine underneath it)
// fails here with the exact (trace, model, technique, topology) cell.
//
// Regenerate tests/trace/corpus/golden.txt after an INTENDED timing
// change:   MCSIM_UPDATE_GOLDEN=1 ./golden_trace_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "trace/trace_core.hpp"
#include "trace/trace_format.hpp"

namespace mcsim {
namespace {

const char* kTraces[] = {"producer_consumer_small.mct", "lock_convoy_small.mct",
                         "zipfian_small.mct"};
const ConsistencyModel kModels[] = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                    ConsistencyModel::kWC, ConsistencyModel::kRC};
const Topology kTopologies[] = {Topology::kCrossbar, Topology::kMesh2D};

struct Tech {
  bool on;
  const char* label;
};
const Tech kTechs[] = {{false, "base"}, {true, "both"}};

std::string corpus_dir() { return MCSIM_TRACE_CORPUS_DIR; }

std::string cell_key(const std::string& trace, ConsistencyModel m, const Tech& t,
                     Topology topo) {
  return trace + " " + to_string(m) + " " + t.label + " " + to_string(topo);
}

/// FNV-1a over the run's observable outcome: final words at every
/// expect address, per-processor retired counts and drain cycles.
std::uint64_t fingerprint(const TraceFile& t, const CellResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < r.watch_values.size(); ++i) {
    mix(t.expect[i].first);
    mix(r.watch_values[i]);
  }
  for (std::uint64_t n : r.stats.retired) mix(n);
  for (Cycle c : r.stats.drain_cycles) mix(c);
  return h;
}

struct Observed {
  Cycle cycles;
  std::uint64_t fp;
};

std::map<std::string, Observed> run_corpus() {
  std::map<std::string, Observed> out;
  for (const char* name : kTraces) {
    const TraceFile t = read_trace(corpus_dir() + "/" + name);
    const Workload w = trace_to_workload(t);
    for (ConsistencyModel m : kModels) {
      for (const Tech& tech : kTechs) {
        for (Topology topo : kTopologies) {
          ExperimentCell cell;
          cell.workload = w;
          cell.config = SystemConfig::realistic(1, m);
          cell.config.core.speculative_loads = tech.on;
          cell.config.core.prefetch =
              tech.on ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
          cell.config.mem.topology = topo;
          for (const auto& [a, v] : t.expect) cell.watch.push_back(a);
          CellResult r = run_cell(cell);
          EXPECT_EQ(r.status, CellStatus::kOk)
              << cell_key(name, m, tech, topo) << ": " << r.error;
          out[cell_key(name, m, tech, topo)] = {r.stats.cycles, fingerprint(t, r)};
        }
      }
    }
  }
  return out;
}

TEST(GoldenTrace, CorpusCyclesAndFingerprintsArePinned) {
  const std::map<std::string, Observed> observed = run_corpus();

  const std::string golden_path = corpus_dir() + "/golden.txt";
  if (std::getenv("MCSIM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << golden_path;
    out << "# trace model technique topology cycles fingerprint\n";
    for (const auto& [key, o] : observed) {
      out << key << " " << o.cycles << " " << o.fp << "\n";
    }
    GTEST_SKIP() << "golden file regenerated: " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing " << golden_path
                         << " (regenerate with MCSIM_UPDATE_GOLDEN=1)";
  std::map<std::string, Observed> golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string trace, model, tech, topo;
    Observed o{};
    ASSERT_TRUE(static_cast<bool>(ls >> trace >> model >> tech >> topo >> o.cycles >>
                                  o.fp))
        << "bad golden line: " << line;
    golden[trace + " " + model + " " + tech + " " + topo] = o;
  }
  ASSERT_EQ(golden.size(), observed.size())
      << "golden table and corpus grid disagree (regenerate after adding traces)";

  for (const auto& [key, o] : observed) {
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << key;
    EXPECT_EQ(o.cycles, it->second.cycles) << key << ": cycle count drifted";
    EXPECT_EQ(o.fp, it->second.fp) << key << ": final-state fingerprint drifted";
  }
}

// Per-cause stall totals (summed over processors) of the crossbar
// cells, recorded when a core stalled on a busy directory line was
// still charged kDirPending. That cause is folded into kCacheMiss now:
// a core's stall cause reads only its own and its cache's state. So
// every cause but those two, and ticks, must be unchanged, and the two
// must have moved together.
TEST(GoldenTrace, StallCausesMatchTheRecordedSplitWithDirPendingFolded) {
  const std::string path = corpus_dir() + "/stall_golden.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::string line;
  std::vector<std::string> causes;  // column names after "ticks"
  std::map<std::string, std::map<std::string, std::uint64_t>> recorded;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    if (line.rfind("#", 0) == 0) {
      std::string tok;
      ls >> tok >> tok >> tok >> tok >> tok;  // # trace model technique ticks
      while (ls >> tok) causes.push_back(tok);
      continue;
    }
    if (line.empty()) continue;
    std::string trace, model, tech;
    ASSERT_TRUE(static_cast<bool>(ls >> trace >> model >> tech)) << line;
    auto& row = recorded[trace + " " + model + " " + tech];
    ASSERT_TRUE(static_cast<bool>(ls >> row["ticks"])) << line;
    for (const std::string& c : causes) ASSERT_TRUE(static_cast<bool>(ls >> row[c])) << line;
  }
  ASSERT_EQ(causes.size(), kNumStallCauses);
  ASSERT_EQ(recorded.size(), 3u * 4u * 2u);

  for (const char* name : kTraces) {
    const TraceFile t = read_trace(corpus_dir() + "/" + name);
    const Workload w = trace_to_workload(t);
    for (ConsistencyModel m : kModels) {
      for (const Tech& tech : kTechs) {
        const std::string key = std::string(name) + " " + to_string(m) + " " + tech.label;
        ExperimentCell cell;
        cell.workload = w;
        cell.config = SystemConfig::realistic(1, m);
        cell.config.core.speculative_loads = tech.on;
        cell.config.core.prefetch = tech.on ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
        const CellResult r = run_cell(cell);
        ASSERT_EQ(r.status, CellStatus::kOk) << key << ": " << r.error;
        std::map<std::string, std::uint64_t> got;
        for (const StallBreakdown& b : r.stats.stall) {
          for (std::size_t c = 0; c < kNumStallCauses; ++c)
            got[to_string(static_cast<StallCause>(c))] += b[c];
        }
        const auto it = recorded.find(key);
        ASSERT_NE(it, recorded.end()) << "no recorded stall totals for " << key;
        std::map<std::string, std::uint64_t> want = it->second;
        EXPECT_EQ(static_cast<std::uint64_t>(r.stats.ticks), want["ticks"]) << key;
        EXPECT_EQ(got["dir_pending"], 0u) << key;
        want["cache_miss"] += want["dir_pending"];
        want["dir_pending"] = 0;
        for (const std::string& c : causes) EXPECT_EQ(got[c], want[c]) << key << ": " << c;
      }
    }
  }
}

TEST(GoldenTrace, CorpusTracesRemainParseableAndValidated) {
  // Guard the corpus files themselves: parseable, self-consistent, and
  // text-stable (rewriting a parsed corpus trace reproduces the bytes —
  // so hand-edits that survive a round-trip are canonical form).
  for (const char* name : kTraces) {
    const TraceFile t = read_trace(corpus_dir() + "/" + name);
    EXPECT_GT(t.total_ops(), 0u) << name;
    EXPECT_FALSE(t.expect.empty()) << name;
    EXPECT_EQ(parse_trace(write_trace_text(t)), t) << name;
  }
}

}  // namespace
}  // namespace mcsim
