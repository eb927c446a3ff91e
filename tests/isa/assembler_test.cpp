#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include "isa/interp.hpp"
#include "sim/machine.hpp"

namespace mcsim {
namespace {

TEST(Assembler, BasicAluProgram) {
  Program p = assemble(R"(
    li   r1, 10
    li   r2, 0x20      ; hex immediate
    add  r3, r1, r2
    sub  r4, r2, r1
    halt
  )");
  FlatMemory mem(1024);
  InterpResult r = interpret(p, mem);
  EXPECT_EQ(r.regs[3], 42u);
  EXPECT_EQ(r.regs[4], 22u);
}

TEST(Assembler, CommentsAndBlankLines) {
  Program p = assemble("# leading comment\n\n  li r1, 1 ; trailing\n\nhalt\n");
  EXPECT_EQ(p.size(), 2u);
}

TEST(Assembler, LabelsAndBranches) {
  Program p = assemble(R"(
    li r1, 0
    li r2, 1
    li r3, 5
  loop:
    add r1, r1, r2
    addi r2, r2, 1
    blt r2, r3, loop
    halt
  )");
  FlatMemory mem(1024);
  InterpResult r = interpret(p, mem);
  EXPECT_EQ(r.regs[1], 1u + 2 + 3 + 4);
}

TEST(Assembler, LabelOnSameLineAsInstruction) {
  Program p = assemble("top: li r1, 3\n jmp end\n end: halt\n");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.at(1).imm, 2);
}

TEST(Assembler, MemoryOperandForms) {
  Program p = assemble(R"(
    .sym buf 0x200
    .data 0x100 7
    .data 0x204 9
    ld r1, [0x100]
    li r2, 1
    ld r3, [buf + r2 << 2]
    ld r4, [r2 + 0xff]
    st r1, [buf]
    halt
  )");
  FlatMemory mem(4096);
  InterpResult r = interpret(p, mem);
  EXPECT_EQ(r.regs[1], 7u);
  EXPECT_EQ(r.regs[3], 9u);
  EXPECT_EQ(r.regs[4], 7u);  // 1 + 0xff = 0x100
  EXPECT_EQ(mem.read(0x200), 7u);
}

TEST(Assembler, SyncFlavorsAndRmws) {
  Program p = assemble(R"(
    .sym lock 0x400
    .data 0x500 10
  spin:
    tas    r31, [lock]
    bne.nt r31, r0, spin
    li     r2, 5
    fadd   r3, [0x500], r2
    swap   r4, [0x500], r2
    cas    r5, [0x500], r2, r3
    st.rel r0, [lock]
    halt
  )");
  EXPECT_EQ(p.at(0).sync, SyncKind::kAcquire);
  EXPECT_EQ(p.at(1).hint, BranchHint::kNotTaken);
  FlatMemory mem(4096);
  InterpResult r = interpret(p, mem);
  EXPECT_EQ(r.regs[3], 10u);  // fadd old
  EXPECT_EQ(r.regs[4], 15u);  // swap old (10+5)
  EXPECT_EQ(r.regs[5], 5u);   // cas old; 5==r2 so writes r3=10
  EXPECT_EQ(mem.read(0x500), 10u);
  EXPECT_EQ(mem.read(0x400), 0u);  // released
}

TEST(Assembler, FencePrefetchNop) {
  Program p = assemble("pf [0x100]\n pfx [0x200]\n fence\n nop\n halt\n");
  EXPECT_EQ(p.at(0).op, Opcode::kPrefetch);
  EXPECT_EQ(p.at(1).op, Opcode::kPrefetchEx);
  EXPECT_EQ(p.at(2).op, Opcode::kFence);
  EXPECT_EQ(p.at(3).op, Opcode::kNop);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("li r1, 1\n bogus r2\n halt\n");
    FAIL() << "expected AsmError";
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), 2u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(Assembler, ErrorCases) {
  EXPECT_THROW(assemble("ld r1\n"), AsmError);              // missing operand
  EXPECT_THROW(assemble("ld r1, [r2\n"), AsmError);         // unbalanced bracket
  EXPECT_THROW(assemble("ld r99, [0]\n"), AsmError);        // register range
  EXPECT_THROW(assemble("beq r1, r2, 5\n"), AsmError);      // numeric branch target
  EXPECT_THROW(assemble("jmp nowhere\nhalt\n"), AsmError);  // undefined label
  EXPECT_THROW(assemble("x: nop\nx: nop\n"), AsmError);     // duplicate label
  EXPECT_THROW(assemble("li r1, zzz\n"), AsmError);         // unknown symbol
  EXPECT_THROW(assemble("ld.foo r1, [0]\n"), AsmError);     // bad suffix
  EXPECT_THROW(assemble("nop r1\n"), AsmError);            // operand on nop
}

TEST(Assembler, RmwsTakeEitherFlavour) {
  Program p = assemble(R"(
    fadd.acq r1, [0x100], r2
    swap.rel r1, [0x100], r2
    cas.acq  r1, [0x100], r2, r3
    tas.rel  r1, [0x100]
    tas.acq  r1, [0x100]
    tas      r1, [0x100]
    fadd     r1, [0x100], r2
  )");
  EXPECT_EQ(p.at(0).sync, SyncKind::kAcquire);
  EXPECT_EQ(p.at(1).sync, SyncKind::kRelease);
  EXPECT_EQ(p.at(2).sync, SyncKind::kAcquire);
  EXPECT_EQ(p.at(3).sync, SyncKind::kRelease);
  EXPECT_EQ(p.at(4).sync, SyncKind::kAcquire);
  EXPECT_EQ(p.at(5).sync, SyncKind::kAcquire);  // plain tas is the lock idiom
  EXPECT_EQ(p.at(6).sync, SyncKind::kNone);
}

// A suffix the mnemonic does not take would otherwise vanish and leave
// a different program than the text says.
TEST(Assembler, SuffixesAMnemonicDoesNotTakeAreErrors) {
  for (const char* text : {"nop.bogus", "halt.acq", "fence.rel", "pf.acq [0x100]",
                           "pfx.t [0x100]", "ld.rel r1, [0x100]", "st.acq r1, [0x100]",
                           "tas.t r1, [0x100]", "fadd.nt r1, [0x100], r2",
                           "beq.acq r1, r2, x", "jmp.t x", "add.acq r1, r2, r3",
                           "addi.rel r1, r2, 1", "li.acq r1, 1", "mov.t r1, r2"}) {
    try {
      assemble(std::string("x: nop\n") + text + "\nhalt\n");
      ADD_FAILURE() << "accepted: " << text;
    } catch (const AsmError& e) {
      EXPECT_EQ(e.line(), 2u) << text;
      EXPECT_NE(std::string(e.what()).find("takes no suffix"), std::string::npos)
          << text << " -> " << e.what();
    }
  }
}

TEST(Assembler, AssembledProgramRunsOnTheMachine) {
  Program p = assemble(R"(
    .sym lock 0x1000
    .sym A    0x2000
    .sym B    0x3000
    tas    r31, [lock]
    st     r0, [A]
    st     r0, [B]
    st.rel r0, [lock]
    halt
  )");
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  Machine m(cfg, {p});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked);
  EXPECT_EQ(r.cycles, 301u);  // Figure 2 / Example 1 baseline, from assembly
}

// disassemble() writes what the assembler reads: every line below comes
// back unchanged. Line n is labelled Ln, the branch target syntax.
TEST(Assembler, RoundTripThroughDisassembler) {
  const char* lines[] = {"addi r1, r0, 3",
                         "ld.acq r2, [r1+0x40]",
                         "st.rel r2, [0x80]",
                         "fadd r3, [0x90], r1",
                         "fadd.acq r3, [0x0], r1",
                         "swap.rel r4, [r1+-4], r2",
                         "cas r5, [r1+r2], r3, r4",
                         "tas.acq r6, [r0+r2<<2+0x10]",
                         "tas.rel r6, [r1+r2<<1]",
                         "pf [0x100]",
                         "pfx [r3]",
                         "beq.t r1, r2, L14",
                         "bne.nt r1, r0, L14",
                         "jmp L14",
                         "sltu r7, r1, r2",
                         "slti r7, r1, -9",
                         "halt"};
  std::string text;
  for (std::size_t pc = 0; pc < std::size(lines); ++pc) {
    text += "L";
    text += std::to_string(pc);
    text += ": ";
    text += lines[pc];
    text += "\n";
  }
  Program p = assemble(text);
  ASSERT_EQ(p.size(), std::size(lines));
  for (std::size_t pc = 0; pc < p.size(); ++pc) EXPECT_EQ(disassemble(p.at(pc)), lines[pc]);
}

}  // namespace
}  // namespace mcsim
