// Text assembler for the mcsim ISA: write guest programs as assembly
// source instead of ProgramBuilder calls.
//
//   Program p = assemble(R"(
//     .sym  lock 0x1000        ; named shared location
//     .data 0x2000 5           ; initial memory value
//   spin:
//     tas     r31, [lock]      ; acquire flavor is implied for tas
//     bne.nt  r31, r0, spin    ; .t / .nt static prediction hints
//     ld      r1, [0x2000]
//     ld      r2, [r1 << 2 + 0x3000]
//     st.rel  r0, [lock]
//     halt
//   )");
//
// Grammar (one instruction per line, ';' or '#' comments):
//   label:          defines a branch target
//   .sym NAME ADDR  defines an address symbol usable anywhere a number is
//   .data ADDR VAL  initial memory contents
//   mnemonics:      nop halt fence | add sub and or xor slt sltu mul shl shr
//                   | addi andi ori xori slti li mov
//                   | ld ld.acq st st.rel pf pfx
//                   | tas fadd swap cas (suffix .acq/.rel; plain tas is .acq)
//                   | beq bne blt bge jmp (suffix .t/.nt for hints)
//                   A suffix the mnemonic does not take is an error.
//   operands:       rN | immediate (dec, hex 0x..., negative) | symbol
//   memory operand: [BASE? (+ rIDX (<< K)?)? (+ DISP)?] in any sane order:
//                   [0x100], [r3], [r3+8], [sym], [r3+r4<<2+16], [r4<<2+sym]
#pragma once

#include <stdexcept>
#include <string>

#include "isa/program.hpp"

namespace mcsim {

/// Assembly failure, with a message naming the offending line.
class AsmError : public std::runtime_error {
 public:
  AsmError(std::size_t line, const std::string& what)
      : std::runtime_error("line " + std::to_string(line) + ": " + what), line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Assemble `source` into a runnable Program. Throws AsmError.
Program assemble(const std::string& source);

}  // namespace mcsim
