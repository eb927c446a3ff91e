// Reproducer files must round-trip: the assembler-format rendering of a
// litmus program re-assembles into the same instructions, and the `;;`
// metadata carries every knob needed to replay the failing cell.
#include <gtest/gtest.h>

#include <cstdio>

#include "isa/builder.hpp"
#include "sva/litmus_gen.hpp"
#include "sva/reproducer.hpp"

namespace mcsim {
namespace {

using sva::generate_litmus;
using sva::parse_reproducer;
using sva::program_to_asm;
using sva::Reproducer;
using sva::to_reproducer_text;

void expect_same_program(const Program& a, const Program& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t pc = 0; pc < a.size(); ++pc) {
    const Instruction &x = a.at(pc), &y = b.at(pc);
    EXPECT_EQ(x.op, y.op) << "pc " << pc;
    EXPECT_EQ(x.rd, y.rd) << "pc " << pc;
    EXPECT_EQ(x.rs1, y.rs1) << "pc " << pc;
    EXPECT_EQ(x.rs2, y.rs2) << "pc " << pc;
    EXPECT_EQ(x.imm, y.imm) << "pc " << pc;
    EXPECT_EQ(x.sync, y.sync) << "pc " << pc;
    EXPECT_EQ(x.rmw, y.rmw) << "pc " << pc;
    EXPECT_EQ(x.hint, y.hint) << "pc " << pc;
    EXPECT_EQ(x.mem.base, y.mem.base) << "pc " << pc;
    EXPECT_EQ(x.mem.index, y.mem.index) << "pc " << pc;
    EXPECT_EQ(x.mem.scale_log2, y.mem.scale_log2) << "pc " << pc;
    EXPECT_EQ(x.mem.disp, y.mem.disp) << "pc " << pc;
  }
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i].addr, b.data()[i].addr);
    EXPECT_EQ(a.data()[i].value, b.data()[i].value);
  }
}

TEST(Reproducer, GeneratedLitmusRoundTrips) {
  for (std::uint64_t seed : {3ull, 19ull, 123456789ull}) {
    Reproducer r;
    r.litmus = generate_litmus(sva::LitmusGenConfig{}, seed);
    r.model = ConsistencyModel::kWC;
    r.prefetch = PrefetchMode::kNonBinding;
    r.speculative_loads = true;
    r.note = "checker-violation: something ran backwards";
    Reproducer back = parse_reproducer(to_reproducer_text(r));
    EXPECT_EQ(back.litmus.seed, seed);
    EXPECT_EQ(back.model, r.model);
    EXPECT_EQ(back.prefetch, r.prefetch);
    EXPECT_EQ(back.speculative_loads, r.speculative_loads);
    EXPECT_EQ(back.note, r.note);
    EXPECT_EQ(back.litmus.addrs, r.litmus.addrs);
    EXPECT_EQ(back.litmus.preload_shared, r.litmus.preload_shared);
    ASSERT_EQ(back.litmus.programs.size(), r.litmus.programs.size());
    for (std::size_t t = 0; t < r.litmus.programs.size(); ++t)
      expect_same_program(r.litmus.programs[t], back.litmus.programs[t]);
  }
}

TEST(Reproducer, MemorySystemRoundTrips) {
  Reproducer r;
  r.litmus = generate_litmus(sva::LitmusGenConfig{}, 7);
  r.mem.topology = Topology::kMesh2D;
  r.mem.link_bw = 2;
  r.mem.dir_scheme = DirScheme::kLimitedPtr;
  r.mem.dir_pointers = 2;
  r.mem.dir_banks = 4;
  r.mem.coherence = CoherenceKind::kUpdate;
  const std::string text = to_reproducer_text(r);
  EXPECT_NE(text.find(";; mem --topology=mesh2d --link-bw=2 --protocol=upd "
                      "--dir-scheme=limptr --dir-ptrs=2 --dir-banks=4\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(parse_reproducer(text).mem, r.mem);
}

TEST(Reproducer, DefaultMemorySystemWritesNoMemLine) {
  Reproducer r;
  r.litmus = generate_litmus(sva::LitmusGenConfig{}, 7);
  EXPECT_EQ(to_reproducer_text(r).find(";; mem"), std::string::npos);
  EXPECT_EQ(parse_reproducer(to_reproducer_text(r)).mem, MemConfig{});
}

TEST(Reproducer, BranchyProgramRoundTripsThroughLabels) {
  ProgramBuilder b;
  b.li(1, 3);
  b.label("top");
  b.beq(1, 0, "done");
  b.addi(1, 1, -1);
  b.store(1, ProgramBuilder::abs(0x40));
  b.jmp("top");
  b.label("done");
  b.halt();
  b.data(0x40, 9);
  Program p = b.build();
  Reproducer r;
  r.litmus.programs = {p};
  r.litmus.addrs = {0x40};
  Reproducer back = parse_reproducer(to_reproducer_text(r));
  ASSERT_EQ(back.litmus.programs.size(), 1u);
  expect_same_program(p, back.litmus.programs[0]);

  // A branch past the last instruction keeps the program's length.
  ProgramBuilder past;
  past.beq(1, 0, "out");
  past.li(1, 1);
  past.label("out");
  r.litmus.programs = {past.build()};
  back = parse_reproducer(to_reproducer_text(r));
  expect_same_program(r.litmus.programs[0], back.litmus.programs[0]);
}

// Every RMW op in every flavour, load/store flavours, branch hints and
// every addressing form replay as the program that failed. A tas with
// no flavour is the one instruction the text cannot say (the assembler
// reads plain `tas` as `tas.acq`), so writing it is refused.
TEST(Reproducer, SyncAndRmwFlavorsSurvive) {
  const MemOperand m = ProgramBuilder::indexed(0x10, 2, 2);
  ProgramBuilder b;
  b.load_acq(1, ProgramBuilder::abs(0x10));
  b.store_rel(1, ProgramBuilder::abs(0x14));
  b.load(1, ProgramBuilder::based(3, -4));
  b.store(1, MemOperand{3, 2, 1, 8});
  b.prefetch(MemOperand{0, 2, 0, 0});
  b.load(1, ProgramBuilder::indexed(0x40, 0));  // a scale on r0
  b.prefetch_ex(MemOperand{3, 0, 0, 0});
  for (SyncKind sync : {SyncKind::kNone, SyncKind::kAcquire, SyncKind::kRelease}) {
    if (sync != SyncKind::kNone) b.tas(2, m, sync);
    b.fetch_add(3, m, 1, sync);
    b.swap(4, m, 2, sync);
    b.cas(5, m, 1, 2, sync);
  }
  b.beq(1, 2, "end", BranchHint::kTaken);
  b.bne(1, 2, "end", BranchHint::kNotTaken);
  b.blt(1, 2, "end");
  b.bge(1, 2, "end", BranchHint::kTaken);
  b.label("end");
  b.halt();
  Program p = b.build();
  Reproducer r;
  r.litmus.programs = {p};
  Reproducer back = parse_reproducer(to_reproducer_text(r));
  expect_same_program(p, back.litmus.programs[0]);

  ProgramBuilder plain;
  plain.tas(1, ProgramBuilder::abs(0x10), SyncKind::kNone);
  try {
    program_to_asm(plain.build());
    ADD_FAILURE() << "a flavourless tas was written";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not expressible in assembler: tas r1, [0x10]"),
              std::string::npos)
        << e.what();
  }
}

TEST(Reproducer, MalformedInputThrows) {
  EXPECT_THROW(parse_reproducer(""), std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; model XX\n;; thread 0\n  halt\n"),
               std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; thread 1\n  halt\n"), std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; thread 0\n  not-an-instruction r1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; mem --topology=torus\n;; thread 0\n  halt\n"),
               std::runtime_error);
  EXPECT_THROW(parse_reproducer(";; mem --procs=4\n;; thread 0\n  halt\n"),
               std::runtime_error);
}

// A malformed number must fail to parse, and the error must name its
// line or key: replaying it would otherwise run a different program.
TEST(Reproducer, MalformedNumbersNameTheirLineOrKey) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {";; addr zz\n;; thread 0\n  halt\n", "line 1: bad addr: 'zz'"},
      {";; addr 0x1000zz\n;; thread 0\n  halt\n", "line 1: bad addr: '0x1000zz'"},
      {";; addr\n;; thread 0\n  halt\n", "line 1: bad addr"},
      {";; seed -3\n;; thread 0\n  halt\n", "line 1: bad seed"},
      {";; preload -1 0x1040\n;; thread 0\n  halt\n",
       "line 1: bad preload processor: '-1'"},
      {";; preload 0 0x10x\n;; thread 0\n  halt\n", "line 1: bad preload address"},
      {";; preload 1 0x1040\n;; thread 0\n  halt\n",
       "preload processor 1 is not below the thread count 1"},
      {";; thread zero\n  halt\n", "line 1: bad thread"},
  };
  for (const auto& c : cases) {
    try {
      parse_reproducer(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << c.text << " -> " << e.what();
    }
  }
}

TEST(Reproducer, WriteAndLoadFile) {
  Reproducer r;
  r.litmus = generate_litmus(sva::LitmusGenConfig{}, 5);
  r.model = ConsistencyModel::kRC;
  const std::string path = ::testing::TempDir() + "/mcsim_repro_test.litmus";
  ASSERT_TRUE(sva::write_reproducer(path, r));
  Reproducer back = sva::load_reproducer(path);
  EXPECT_EQ(back.model, ConsistencyModel::kRC);
  EXPECT_EQ(back.litmus.programs.size(), r.litmus.programs.size());
  std::remove(path.c_str());
  EXPECT_THROW(sva::load_reproducer(path), std::runtime_error);
}

}  // namespace
}  // namespace mcsim
