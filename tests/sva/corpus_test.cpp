// Named litmus corpus: the classic shapes, each run through the whole
// model × technique grid. Every cell must satisfy its model's checker
// (and the SC oracle under SC), and each litmus carries a per-model
// expected-outcome invariant probed on the machine's actual registers —
// e.g. message passing through a release/acquire flag must work under
// every model, while only SC and WC forbid the store-buffering (0,0).
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/machine.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/model_checker.hpp"
#include "sva/reproducer.hpp"
#include "sva/sc_enumerator.hpp"

namespace mcsim {
namespace {

using namespace sva;
using CM = ConsistencyModel;

constexpr CM kModels[] = {CM::kSC, CM::kPC, CM::kWC, CM::kRC};
const TechniqueKnobs kTechs[] = {
    {PrefetchMode::kOff, false},
    {PrefetchMode::kNonBinding, false},
    {PrefetchMode::kOff, true},
    {PrefetchMode::kNonBinding, true},
};

Reproducer corpus(const std::string& name) {
  return load_reproducer(std::string(MCSIM_CORPUS_DIR) + "/" + name);
}

/// Final r1..r3 per processor from one detailed-machine run of the cell.
std::vector<std::array<Word, 4>> machine_regs(const LitmusProgram& lp, CM model,
                                              const TechniqueKnobs& tech) {
  SystemConfig cfg = SystemConfig::paper_default(
      static_cast<std::uint32_t>(lp.programs.size()), model);
  cfg.core.prefetch = tech.prefetch;
  cfg.core.speculative_loads = tech.speculative_loads;
  cfg.max_cycles = 1'000'000;
  Machine m(cfg, lp.programs);
  for (const auto& [p, a] : lp.preload_shared) m.preload_shared(p, a);
  RunResult r = m.run();
  EXPECT_FALSE(r.deadlocked);
  std::vector<std::array<Word, 4>> regs(lp.programs.size());
  for (ProcId p = 0; p < lp.programs.size(); ++p)
    for (RegId i = 0; i < 4; ++i) regs[p][i] = m.core(p).reg(i);
  return regs;
}

/// Every grid cell of `lp` must pass its model checker (and the SC
/// oracle when the enumeration completes); `invariant` is additionally
/// evaluated on the machine's final registers for each cell.
template <typename Fn>
void check_corpus(const std::string& name, Fn&& invariant) {
  Reproducer r = corpus(name);
  EnumerationResult sc =
      enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs, 2'000'000);
  ASSERT_TRUE(sc.complete) << name << ": corpus litmus must stay enumerable";
  for (CM model : kModels) {
    for (const TechniqueKnobs& tech : kTechs) {
      FuzzCell cell{model, tech};
      CellCheck c = verify_litmus_cell(r.litmus, cell, &sc);
      EXPECT_FALSE(c.failed) << name << " " << cell.label() << ": " << c.detail;
      invariant(model, tech, machine_regs(r.litmus, model, tech));
    }
  }
}

TEST(Corpus, EveryFileRunsOnTheDefaultMemorySystem) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(MCSIM_CORPUS_DIR)) {
    if (entry.path().extension() != ".litmus") continue;
    ++files;
    EXPECT_EQ(load_reproducer(entry.path().string()).mem, MemConfig{})
        << entry.path().filename();
  }
  EXPECT_GE(files, 7u);
}

// Written back out, every corpus file reads as the same programs:
// program_to_asm is the assembler's inverse on everything the corpus says.
TEST(Corpus, EveryFileRerendersToTheSamePrograms) {
  for (const auto& entry : std::filesystem::directory_iterator(MCSIM_CORPUS_DIR)) {
    if (entry.path().extension() != ".litmus") continue;
    const Reproducer r = load_reproducer(entry.path().string());
    const Reproducer back = parse_reproducer(to_reproducer_text(r));
    ASSERT_EQ(back.litmus.programs.size(), r.litmus.programs.size()) << entry.path();
    for (std::size_t t = 0; t < r.litmus.programs.size(); ++t) {
      const Program& p = r.litmus.programs[t];
      EXPECT_TRUE(back.litmus.programs[t].instructions() == p.instructions())
          << entry.path() << " thread " << t << ":\n" << program_to_asm(p);
      EXPECT_TRUE(back.litmus.programs[t].data() == p.data()) << entry.path();
    }
  }
}

TEST(Corpus, DekkerScForbidsMutualZero) {
  Reproducer r = corpus("dekker.litmus");
  auto sc = enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs);
  ASSERT_TRUE(sc.complete);
  for (const ScOutcome& o : sc.outcomes)
    EXPECT_FALSE(o.regs[0][2] == 0 && o.regs[1][2] == 0)
        << "SC admits the forbidden Dekker outcome";
  check_corpus("dekker.litmus", [](CM model, const TechniqueKnobs&,
                                   const std::vector<std::array<Word, 4>>& regs) {
    if (model == CM::kSC) {
      EXPECT_FALSE(regs[0][2] == 0 && regs[1][2] == 0)
          << "SC machine exhibited the forbidden Dekker outcome";
    }
  });
}

TEST(Corpus, StoreBufferingReleasesOrderedUnderScAndWc) {
  // st.rel ; ld — WC orders the pair through the sync store, PC/RCpc
  // do not. The machine must respect that split for every technique.
  check_corpus("store_buffering.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 if (model == CM::kSC || model == CM::kWC) {
                   EXPECT_FALSE(regs[0][2] == 0 && regs[1][2] == 0)
                       << to_string(model) << "/" << tech.label()
                       << " exhibited (0,0) despite release ordering";
                 }
               });
}

TEST(Corpus, MessagePassingFlagImpliesData) {
  check_corpus("message_passing.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 if (regs[1][1] == 1) {
                   EXPECT_EQ(regs[1][2], 42u)
                       << to_string(model) << "/" << tech.label()
                       << ": reader saw the flag but stale data";
                 }
               });
}

TEST(Corpus, IriwLiteRereadIsMonotonic) {
  check_corpus("iriw_lite.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 if (regs[2][1] == 1) {
                   EXPECT_EQ(regs[2][3], 1u)
                       << to_string(model) << "/" << tech.label()
                       << ": same-word re-read travelled back in time";
                 }
               });
}

TEST(Corpus, LockHandoffTasAtomicity) {
  check_corpus("lock_handoff.litmus",
               [](CM model, const TechniqueKnobs& tech,
                  const std::vector<std::array<Word, 4>>& regs) {
                 EXPECT_TRUE(regs[0][1] == 0 || regs[1][1] == 0)
                     << to_string(model) << "/" << tech.label()
                     << ": both tas found the lock taken (lost the free lock)";
               });
}

// Two shrunk fuzzer reproducers of machine bugs, kept as regressions:
// every grid cell must pass its checker and, under SC, the oracle.
TEST(Corpus, SharedPreloadsAreAllInvalidatedByAnUpgrade) {
  check_corpus("shared_preload_upgrade.litmus",
               [](CM, const TechniqueKnobs&, const std::vector<std::array<Word, 4>>&) {});
}

TEST(Corpus, NonspecLoadIsStampedAtBind) {
  check_corpus("nonspec_load_stamp.litmus",
               [](CM, const TechniqueKnobs&, const std::vector<std::array<Word, 4>>&) {});
}

}  // namespace
}  // namespace mcsim
