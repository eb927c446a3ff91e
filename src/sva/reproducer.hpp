// Minimal-reproducer files for the differential fuzzer.
//
// When the fuzz harness finds (and shrinks) a failing litmus program it
// writes a single self-contained text file: assembler-format program
// text per thread (isa/assembler grammar, so the file re-assembles
// byte-for-byte into the failing programs) plus `;;`-prefixed metadata
// lines carrying everything else needed to replay the cell — the
// generator seed, the consistency model, the technique knobs, the
// memory system (`;; mem` followed by the sim/options flags that build
// it, written only for a non-default machine), the cache preloads, and
// the violation that was observed. `;` starts an
// assembler comment, so the file is also a valid input for each
// per-thread section in isolation.
#pragma once

#include <string>

#include "common/config.hpp"
#include "sva/litmus_gen.hpp"

namespace mcsim {
namespace sva {

/// Everything needed to replay one failing fuzz cell.
struct Reproducer {
  LitmusProgram litmus;
  ConsistencyModel model = ConsistencyModel::kSC;
  PrefetchMode prefetch = PrefetchMode::kOff;
  bool speculative_loads = false;
  MemConfig mem{};   ///< the machine's memory system
  std::string note;  ///< one-line description of the observed violation
};

/// Render one program as isa/assembler text: disassemble() per
/// instruction, an `Lk:` label before each branch target, and `.data`
/// lines for the program's initial-memory image. Throws
/// std::runtime_error on a `tas` with no flavour, which the assembler
/// would read back as `tas.acq`.
std::string program_to_asm(const Program& prog);

/// Full reproducer file text / its inverse. parse throws
/// std::runtime_error on malformed input.
std::string to_reproducer_text(const Reproducer& r);
Reproducer parse_reproducer(const std::string& text);

/// Write/read a reproducer file. write returns false on I/O failure;
/// load throws std::runtime_error when the file cannot be read.
bool write_reproducer(const std::string& path, const Reproducer& r);
Reproducer load_reproducer(const std::string& path);

}  // namespace sva
}  // namespace mcsim
