// Differential litmus fuzzer: the driver that ties the pieces together.
//
// For each of N seeded random litmus programs (litmus_gen) the harness:
//
//  1. enumerates the exact SC outcome set (sc_enumerator) — if the
//     state budget is hit the program is *inconclusive* for the SC
//     outcome check, never silently passing;
//  2. runs the program through the detailed machine on every
//     model × technique cell (ExperimentRunner — per-cell child seeds
//     derive from the master seed, so results are identical whatever
//     the worker count);
//  3. validates every cell: the run must complete, the per-model
//     execution checker (model_checker) must accept the access logs,
//     and under SC the final state must be a member of the enumerated
//     outcome set;
//  4. counts techniques-ON cells whose final state differs from the
//     same model's techniques-OFF run (informational — a legal timing
//     change under a weak model is not a bug, so divergences are
//     reported but only checker/oracle rejections fail the fuzz);
//  5. greedily shrinks any failing program — whole threads first, then
//     single instructions, to a fixpoint — while the failure still
//     reproduces, and writes the minimal reproducer (reproducer.hpp)
//     plus the failing seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sva/litmus_gen.hpp"
#include "sva/reproducer.hpp"
#include "sva/sc_enumerator.hpp"

namespace mcsim {
namespace sva {

/// One technique combination to exercise.
struct TechniqueKnobs {
  PrefetchMode prefetch = PrefetchMode::kOff;
  bool speculative_loads = false;
  /// Short label: "base", "pf", "sp", "both".
  std::string label() const;
};

/// One (model, techniques, memory system) grid cell. The memory system
/// is part of the cell so shrinking and reproducers replay a failure
/// under the exact interconnect and directory timing that exposed it.
struct FuzzCell {
  ConsistencyModel model = ConsistencyModel::kSC;
  TechniqueKnobs tech;
  /// The litmus checkers are oblivious to the topology, the protocol
  /// and the directory's sharer encoding and banking — every consistency
  /// axiom must hold under any memory-system timing — so every machine
  /// shape reuses the same oracles as the paper's default machine.
  MemConfig mem{};
  /// "SC/base", "RC/both@mesh2d", "SC/pf#coarsex2", "WC/sp+upd", ...
  std::string label() const;
};

enum class FuzzFailureKind : std::uint8_t {
  kCellFailed,        ///< deadlock / error running the cell
  kCheckerViolation,  ///< model_checker rejected the access logs
  kScOutcomeEscape,   ///< SC final state outside the enumerated set
};

const char* to_string(FuzzFailureKind k);

struct FuzzViolation {
  std::uint64_t program_index = 0;
  std::uint64_t seed = 0;  ///< child seed that regenerates the program
  FuzzCell cell;
  FuzzFailureKind kind = FuzzFailureKind::kCheckerViolation;
  std::string detail;
  Reproducer repro;        ///< shrunk failing program (or original if shrinking off)
  std::string repro_path;  ///< file the reproducer was written to ("" = not written)
  std::size_t shrunk_insts = 0;  ///< non-halt instructions after shrinking
};

struct FuzzConfig {
  std::uint64_t programs = 100;
  std::uint64_t seed = 1;  ///< master seed; program i uses derive_child_seed(seed, i)
  LitmusGenConfig gen;
  unsigned workers = 0;  ///< ExperimentRunner workers (0 = MCSIM_JOBS / all cores)
  std::uint64_t sc_max_states = 2'000'000;
  /// Directory for reproducer files, created on the first violation if
  /// missing; empty = keep reproducers in memory only.
  std::string repro_dir;
  bool shrink = true;
  std::size_t max_failures = 8;  ///< stop fuzzing after this many failing programs
  std::vector<ConsistencyModel> models = {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                          ConsistencyModel::kWC, ConsistencyModel::kRC};
  /// Technique combinations; defaults to OFF/OFF, PF, SP, PF+SP.
  std::vector<TechniqueKnobs> techniques = {
      {PrefetchMode::kOff, false},
      {PrefetchMode::kNonBinding, false},
      {PrefetchMode::kOff, true},
      {PrefetchMode::kNonBinding, true},
  };
  /// Memory system every cell runs under (see FuzzCell). A contended
  /// ring/mesh or a banked, inexact directory is a new timing adversary
  /// for the same checkers, not a different oracle.
  MemConfig mem{};
};

struct FuzzReport {
  std::uint64_t programs = 0;
  std::uint64_t cells = 0;
  std::uint64_t arcs_checked = 0;
  std::uint64_t reads_checked = 0;
  std::uint64_t sc_outcomes_checked = 0;
  /// Programs whose SC enumeration hit the state budget: the SC outcome
  /// check was skipped for them (inconclusive, NOT passing).
  std::uint64_t inconclusive_sc = 0;
  /// Techniques-ON cells whose final state differed from the same
  /// model's techniques-OFF final state (informational).
  std::uint64_t divergences = 0;
  std::vector<FuzzViolation> violations;
  bool ok() const { return violations.empty(); }
  std::string summary() const;  ///< one-paragraph human-readable digest
};

/// Run the whole campaign. Deterministic in (cfg.seed, cfg knobs):
/// worker count never changes the report.
FuzzReport run_fuzz(const FuzzConfig& cfg);

// ---- building blocks, exposed for the shrinker and the tests --------

/// Result of running + validating one litmus program on one cell.
struct CellCheck {
  bool failed = false;
  FuzzFailureKind kind = FuzzFailureKind::kCheckerViolation;
  std::string detail;
  std::string outcome;  ///< canonical final-state key (for divergence counting)
  std::uint64_t arcs_checked = 0;
  std::uint64_t reads_checked = 0;
  Cycle cycles = 0;  ///< the run's length
};

/// Run one cell of the grid synchronously and validate it. `sc` is the
/// program's SC enumeration (may be null or incomplete; the SC outcome
/// check only runs when complete and cell.model == kSC).
CellCheck verify_litmus_cell(const LitmusProgram& lp, const FuzzCell& cell,
                             const EnumerationResult* sc);

/// Greedily shrink a failing (program, cell) pair: drop whole threads,
/// then single non-halt instructions, repeating to a fixpoint, keeping
/// each deletion only while the failure still reproduces. Straight-line
/// programs only (instruction deletion is skipped for threads with
/// branches). Returns the reproducer for the minimal program.
Reproducer shrink_failure(const LitmusProgram& lp, const FuzzCell& cell,
                          std::uint64_t sc_max_states);

/// The cell a reproducer was recorded on.
FuzzCell reproducer_cell(const Reproducer& r);

/// Re-run a reproducer on its recorded cell — machine included — and
/// re-check it, against the SC oracle when the cell is SC and the
/// enumeration completes within `sc_max_states`.
CellCheck replay_reproducer(const Reproducer& r, std::uint64_t sc_max_states);

/// Non-halt instructions across every thread (the shrink metric).
std::size_t count_insts(const LitmusProgram& lp);

}  // namespace sva
}  // namespace mcsim
