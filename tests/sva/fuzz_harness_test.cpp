// End-to-end tests of the differential fuzz harness: a clean machine
// yields a violation-free campaign; an injected policy fault is caught
// and shrunk to a tiny reproducer; partial SC enumeration is reported
// as inconclusive rather than passing; and the report is identical
// whatever the worker count.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "consistency/policy.hpp"
#include "sva/fuzz_harness.hpp"
#include "sva/reproducer.hpp"
#include "sva/sc_enumerator.hpp"

namespace mcsim {
namespace {

using namespace sva;

FuzzConfig small_config() {
  FuzzConfig cfg;
  cfg.programs = 4;
  cfg.seed = 1;
  cfg.workers = 2;
  cfg.repro_dir.clear();  // keep reproducers in memory
  return cfg;
}

class FuzzHarness : public ::testing::Test {
 protected:
  void TearDown() override { set_policy_fault(PolicyFault::kNone); }
};

TEST_F(FuzzHarness, CleanMachinePassesEveryCell) {
  FuzzConfig cfg = small_config();
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.programs, cfg.programs);
  EXPECT_EQ(rep.cells, cfg.programs * cfg.models.size() * cfg.techniques.size());
  EXPECT_GT(rep.arcs_checked, 0u);
  EXPECT_GT(rep.reads_checked, 0u);
  EXPECT_GT(rep.sc_outcomes_checked, 0u);
  EXPECT_EQ(rep.inconclusive_sc, 0u);
}

TEST_F(FuzzHarness, InjectedFaultIsCaughtAndShrunkSmall) {
  // The acceptance loop: weaken SC's load gate, fuzz SC only, and the
  // harness must find it AND shrink the reproducer to a handful of
  // instructions.
  set_policy_fault(PolicyFault::kSCLoadIgnoresStores);
  FuzzConfig cfg = small_config();
  cfg.programs = 30;
  cfg.models = {ConsistencyModel::kSC};
  cfg.max_failures = 1;  // stop at the first catch
  FuzzReport rep = run_fuzz(cfg);
  ASSERT_FALSE(rep.ok()) << "the fuzzer missed an injected SC hole";
  const FuzzViolation& v = rep.violations.front();
  EXPECT_EQ(v.cell.model, ConsistencyModel::kSC);
  EXPECT_LE(v.shrunk_insts, 8u) << "shrinker left a bloated reproducer";
  EXPECT_GE(v.shrunk_insts, 1u);
  EXPECT_FALSE(v.repro.note.empty());
  EXPECT_EQ(v.repro.litmus.seed, v.seed);
  // The shrunk reproducer still fails while the fault is active...
  CellCheck still = verify_litmus_cell(v.repro.litmus, v.cell, nullptr);
  EXPECT_TRUE(still.failed) << "shrunk reproducer no longer reproduces";
  // ...and is clean once the machine is healthy again.
  set_policy_fault(PolicyFault::kNone);
  CellCheck healthy = verify_litmus_cell(v.repro.litmus, v.cell, nullptr);
  EXPECT_FALSE(healthy.failed) << healthy.detail;
}

/// One injected-fault catch, SC only: the first violation of the run.
FuzzReport caught_sc_load_fault(const std::string& repro_dir, const MemConfig& mem = {}) {
  set_policy_fault(PolicyFault::kSCLoadIgnoresStores);
  FuzzConfig cfg = small_config();
  cfg.programs = 30;
  cfg.models = {ConsistencyModel::kSC};
  cfg.max_failures = 1;
  cfg.repro_dir = repro_dir;
  cfg.mem = mem;
  return run_fuzz(cfg);
}

TEST_F(FuzzHarness, ReproducerNoteRecordsTheShrunkFailure) {
  // --replay re-checks the shrunk program against a fresh SC oracle; the
  // note must name the failure that re-check finds (its seq and cycle),
  // not the unshrunk program's.
  FuzzReport rep = caught_sc_load_fault("");
  ASSERT_FALSE(rep.ok());
  const FuzzViolation& v = rep.violations.front();
  const Reproducer& r = v.repro;
  EnumerationResult sc =
      enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs, 2'000'000);
  ASSERT_TRUE(sc.complete);
  CellCheck replayed = verify_litmus_cell(r.litmus, v.cell, &sc);
  ASSERT_TRUE(replayed.failed);
  EXPECT_EQ(r.note, std::string(to_string(replayed.kind)) + ": " + replayed.detail);
}

TEST_F(FuzzHarness, MissingReproDirIsCreated) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "mcsim-fuzz-repro-dir-test";
  std::filesystem::remove_all(root);
  const std::filesystem::path dir = root / "nested" / "repros";
  FuzzReport rep = caught_sc_load_fault(dir.string());
  ASSERT_FALSE(rep.ok());
  const FuzzViolation& v = rep.violations.front();
  ASSERT_FALSE(v.repro_path.empty()) << "the reproducer was not written";
  EXPECT_TRUE(std::filesystem::is_regular_file(v.repro_path)) << v.repro_path;
  EXPECT_EQ(std::filesystem::path(v.repro_path).parent_path(), dir);
  EXPECT_EQ(load_reproducer(v.repro_path).litmus.seed, v.seed);
  std::filesystem::remove_all(root);
}

TEST_F(FuzzHarness, ReproducerFromAMeshCellReplaysOnTheMesh) {
  // Shrinking, the written file and replay all keep the cell's machine.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "mcsim-fuzz-mesh-repro-test";
  std::filesystem::remove_all(dir);
  MemConfig mesh;
  mesh.topology = Topology::kMesh2D;
  mesh.dir_banks = 2;
  FuzzReport rep = caught_sc_load_fault(dir.string(), mesh);
  ASSERT_FALSE(rep.ok()) << "the fuzzer missed an injected SC hole on the mesh";
  const FuzzViolation& v = rep.violations.front();
  EXPECT_EQ(v.cell.mem, mesh);
  EXPECT_EQ(v.repro.mem, mesh);
  ASSERT_FALSE(v.repro_path.empty());
  const Reproducer back = load_reproducer(v.repro_path);
  EXPECT_EQ(back.mem, mesh);
  EXPECT_EQ(reproducer_cell(back).label(), "SC/" + v.cell.tech.label() + "@mesh2d#fullmapx2");
  const CellCheck replayed = replay_reproducer(back, 2'000'000);
  EXPECT_TRUE(replayed.failed) << "the mesh reproducer no longer reproduces";
  std::filesystem::remove_all(dir);
}

TEST_F(FuzzHarness, ReplayRunsOnTheRecordedMachine) {
  // A reproducer's `;; mem` line names its machine; replay must run
  // there, not on the default crossbar with one directory bank.
  const Reproducer r = parse_reproducer(
      ";; mcsim-reproducer v1\n"
      ";; seed 0\n"
      ";; model SC\n"
      ";; prefetch non-binding\n"
      ";; spec on\n"
      ";; mem --topology=mesh2d --dir-banks=2\n"
      ";; addr 0x1000\n"
      ";; addr 0x1040\n"
      ";; thread 0\n"
      "  addi r1, r0, 1\n"
      "  st r1, [0x1000]\n"
      "  ld r2, [0x1040]\n"
      "  halt\n"
      ";; thread 1\n"
      "  addi r1, r0, 1\n"
      "  st r1, [0x1040]\n"
      "  ld r2, [0x1000]\n"
      "  halt\n");
  FuzzCell cell{ConsistencyModel::kSC, {PrefetchMode::kNonBinding, true}};
  cell.mem.topology = Topology::kMesh2D;
  cell.mem.dir_banks = 2;
  EXPECT_EQ(reproducer_cell(r).label(), cell.label());
  EXPECT_EQ(cell.label(), "SC/both@mesh2d#fullmapx2");

  const EnumerationResult sc =
      enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs, 2'000'000);
  ASSERT_TRUE(sc.complete);
  const CellCheck direct = verify_litmus_cell(r.litmus, cell, &sc);
  const CellCheck replayed = replay_reproducer(r, 2'000'000);
  EXPECT_FALSE(replayed.failed) << replayed.detail;
  EXPECT_GT(replayed.arcs_checked, 0u);
  EXPECT_EQ(replayed.cycles, direct.cycles);
  EXPECT_EQ(replayed.outcome, direct.outcome);
  // The default machine takes a different number of cycles, so the
  // equality above shows the machine was honoured.
  const FuzzCell flat{cell.model, cell.tech};
  EXPECT_NE(verify_litmus_cell(r.litmus, flat, &sc).cycles, replayed.cycles);
}

TEST_F(FuzzHarness, PartialScEnumerationIsInconclusiveNotPassing) {
  FuzzConfig cfg = small_config();
  cfg.programs = 2;
  cfg.models = {ConsistencyModel::kSC};
  cfg.sc_max_states = 4;  // guaranteed to truncate
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_EQ(rep.inconclusive_sc, cfg.programs)
      << "a truncated enumeration must be counted, never silently passed";
  EXPECT_EQ(rep.sc_outcomes_checked, 0u);
  // Inconclusive is not a failure either: the delay-arc/reads checkers
  // still ran and the machine is healthy.
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.arcs_checked, 0u);
}

TEST_F(FuzzHarness, ReportIsIdenticalWhateverTheWorkerCount) {
  FuzzConfig cfg = small_config();
  cfg.models = {ConsistencyModel::kSC, ConsistencyModel::kWC};
  cfg.workers = 1;
  FuzzReport serial = run_fuzz(cfg);
  cfg.workers = 4;
  FuzzReport parallel = run_fuzz(cfg);
  EXPECT_EQ(serial.cells, parallel.cells);
  EXPECT_EQ(serial.arcs_checked, parallel.arcs_checked);
  EXPECT_EQ(serial.reads_checked, parallel.reads_checked);
  EXPECT_EQ(serial.sc_outcomes_checked, parallel.sc_outcomes_checked);
  EXPECT_EQ(serial.divergences, parallel.divergences);
  EXPECT_EQ(serial.violations.size(), parallel.violations.size());
}

TEST_F(FuzzHarness, Mesh2dSliceHoldsTheAxiomsUnderContention) {
  // The consistency axioms must hold for ANY memory-system timing
  // (Taming Weak Memory Models): re-run a slice of the grid on a
  // contended 2D mesh with 1-msg/cycle links and assert the same
  // checkers stay green.
  FuzzConfig cfg = small_config();
  cfg.mem.topology = Topology::kMesh2D;
  cfg.mem.link_bw = 1;
  cfg.models = {ConsistencyModel::kSC, ConsistencyModel::kRC};
  FuzzReport rep = run_fuzz(cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.cells, cfg.programs * cfg.models.size() * cfg.techniques.size());
  EXPECT_GT(rep.arcs_checked, 0u);
  EXPECT_GT(rep.sc_outcomes_checked, 0u);
}

TEST_F(FuzzHarness, Mesh2dSliceReportIsWorkerCountInvariant) {
  FuzzConfig cfg = small_config();
  cfg.mem.topology = Topology::kMesh2D;
  cfg.models = {ConsistencyModel::kSC};
  cfg.workers = 1;
  FuzzReport serial = run_fuzz(cfg);
  cfg.workers = 4;
  FuzzReport parallel = run_fuzz(cfg);
  EXPECT_EQ(serial.cells, parallel.cells);
  EXPECT_EQ(serial.arcs_checked, parallel.arcs_checked);
  EXPECT_EQ(serial.reads_checked, parallel.reads_checked);
  EXPECT_EQ(serial.divergences, parallel.divergences);
  EXPECT_EQ(serial.violations.size(), parallel.violations.size());
}

TEST_F(FuzzHarness, CountInstsIgnoresHaltAndCountsEveryThread) {
  LitmusProgram lp = generate_litmus(LitmusGenConfig{}, 11);
  std::size_t manual = 0;
  for (const Program& p : lp.programs) {
    for (const Instruction& inst : p.instructions())
      if (inst.op != Opcode::kHalt) ++manual;
  }
  EXPECT_EQ(count_insts(lp), manual);
  EXPECT_GT(manual, 0u);
}

TEST_F(FuzzHarness, CellAndTechniqueLabelsAreStable) {
  EXPECT_EQ((FuzzCell{ConsistencyModel::kSC, {PrefetchMode::kOff, false}}).label(),
            "SC/base");
  EXPECT_EQ((FuzzCell{ConsistencyModel::kWC, {PrefetchMode::kNonBinding, false}}).label(),
            "WC/pf");
  EXPECT_EQ((FuzzCell{ConsistencyModel::kRC, {PrefetchMode::kOff, true}}).label(),
            "RC/sp");
  EXPECT_EQ((FuzzCell{ConsistencyModel::kPC, {PrefetchMode::kNonBinding, true}}).label(),
            "PC/both");
  // The machine: topology, directory, then a non-default protocol.
  FuzzCell cell{ConsistencyModel::kRC, {PrefetchMode::kNonBinding, true}};
  cell.mem.topology = Topology::kMesh2D;
  EXPECT_EQ(cell.label(), "RC/both@mesh2d");
  cell.mem.dir_scheme = DirScheme::kCoarseVector;
  cell.mem.dir_banks = 2;
  EXPECT_EQ(cell.label(), "RC/both@mesh2d#coarsex2");
  cell.mem.coherence = CoherenceKind::kUpdate;
  EXPECT_EQ(cell.label(), "RC/both@mesh2d#coarsex2+upd");
  // Knobs the label leaves out travel in the cell's MemConfig.
  cell.mem.link_bw = 2;
  EXPECT_EQ(cell.label(), "RC/both@mesh2d#coarsex2+upd");
}

}  // namespace
}  // namespace mcsim
