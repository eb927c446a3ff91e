// Property-based tests: for randomly generated programs, the detailed
// out-of-order machine must compute exactly the architectural results
// of the reference interpreter — under every consistency model, with
// and without each technique, with realistic and ideal front ends.
// Over the whole ISA, the interpreter, the SC enumerator, the checker's
// replay and the assembler's text must all agree. Multiprocessor
// variant: race-free lock-based programs must preserve their invariants
// (counter totals) and pass the sva race check.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "isa/builder.hpp"
#include "isa/interp.hpp"
#include "sim/machine.hpp"
#include "sva/model_checker.hpp"
#include "sva/race_detector.hpp"
#include "sva/reproducer.hpp"
#include "sva/sc_enumerator.hpp"

namespace mcsim {
namespace {

// Forward-branching random program: always terminates.
Program random_program(std::uint64_t seed, int length) {
  Pcg32 rng(seed);
  ProgramBuilder b;
  const Addr pool_base = 0x1000;
  const int pool_words = 16;
  auto rand_addr = [&] { return pool_base + 4 * rng.next_below(pool_words); };
  auto rand_reg = [&] { return static_cast<RegId>(1 + rng.next_below(7)); };

  int pending_label = -1;   // branch target not yet placed
  int label_counter = 0;
  // Appended rather than built with operator+, which GCC 12 at -O3
  // flags with a false-positive -Wrestrict.
  auto label_name = [](int n) {
    std::string s("L");
    s += std::to_string(n);
    return s;
  };
  for (int i = 0; i < length; ++i) {
    if (pending_label >= 0 && rng.chance(1, 3)) {
      b.label(label_name(pending_label));
      pending_label = -1;
    }
    switch (rng.next_below(10)) {
      case 0:
        b.li(rand_reg(), rng.next_below(1000));
        break;
      case 1:
        b.add(rand_reg(), rand_reg(), rand_reg());
        break;
      case 2:
        b.sub(rand_reg(), rand_reg(), rand_reg());
        break;
      case 3:
        b.xor_(rand_reg(), rand_reg(), rand_reg());
        break;
      case 4:
        b.store(rand_reg(), ProgramBuilder::abs(rand_addr()));
        break;
      case 5:
      case 6:
        b.load(rand_reg(), ProgramBuilder::abs(rand_addr()));
        break;
      case 7:
        b.fetch_add(rand_reg(), ProgramBuilder::abs(rand_addr()), rand_reg());
        break;
      case 8:
        if (pending_label < 0) {
          pending_label = label_counter++;
          b.beq(rand_reg(), rand_reg(), label_name(pending_label));
        } else {
          b.nop();
        }
        break;
      case 9:
        if (rng.chance(1, 4))
          b.fence();
        else if (rng.chance(1, 3))
          b.prefetch(ProgramBuilder::abs(rand_addr()));
        else
          b.addi(rand_reg(), rand_reg(), 1);
        break;
    }
  }
  if (pending_label >= 0) b.label(label_name(pending_label));
  b.halt();
  return b.build();
}

class RandomProgramTest
    : public ::testing::TestWithParam<std::tuple<ConsistencyModel, int, int>> {};

TEST_P(RandomProgramTest, MatchesInterpreter) {
  auto [model, tech, seed] = GetParam();
  Program p = random_program(1000 + seed * 17, 60);

  SystemConfig cfg = (seed % 2 == 0)
                         ? SystemConfig::paper_default(1, model)
                         : SystemConfig::realistic(1, model);
  cfg.core.speculative_loads = (tech & 1) != 0;
  cfg.core.prefetch = (tech & 2) != 0 ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  // Exercise structural hazards on some seeds.
  if (seed % 3 == 0) {
    cfg.core.rob_entries = 12;
    cfg.core.ls_rs_entries = 4;
    cfg.core.store_buffer_entries = 4;
    cfg.core.spec_load_buffer_entries = 4;
  }

  Machine m(cfg, {p});
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked) << "seed=" << seed;

  FlatMemory ref_mem(cfg.mem.mem_bytes);
  InterpResult ref = interpret(p, ref_mem);
  ASSERT_TRUE(ref.halted);
  for (RegId reg = 0; reg < kNumArchRegs; ++reg)
    EXPECT_EQ(m.core(0).reg(reg), ref.regs[reg])
        << "seed=" << seed << " r" << unsigned(reg);
  for (Addr a = 0x1000; a < 0x1000 + 16 * 4; a += 4)
    EXPECT_EQ(m.read_word(a), ref_mem.read(a)) << "seed=" << seed << " addr=" << a;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomProgramTest,
    ::testing::Combine(::testing::Values(ConsistencyModel::kSC, ConsistencyModel::kPC,
                                         ConsistencyModel::kWC, ConsistencyModel::kRC),
                       ::testing::Values(0, 1, 2, 3), ::testing::Range(0, 10)),
    [](const testing::TestParamInfo<std::tuple<ConsistencyModel, int, int>>& info) {
      std::string n = to_string(std::get<0>(info.param));
      n += "_t" + std::to_string(std::get<1>(info.param));
      n += "_s" + std::to_string(std::get<2>(info.param));
      return n;
    });

// ---- one semantics: interpreter, SC oracle, checker and text -----------

// A random program over the whole ISA: every opcode, RMW op, sync
// flavour, branch hint and addressing form, with forward branches only
// so that the SC enumerator takes it. r8 holds the pool's base and r9 a
// word-multiple index; the drawn instructions write only r1..r7, so every
// address stays in the pool's 32 words.
constexpr Addr kIsaPool = 0x1000;

Program full_isa_program(std::uint64_t seed, int length) {
  Pcg32 rng(seed);
  ProgramBuilder b;
  b.li(8, kIsaPool);
  b.li(9, 4 * rng.next_below(4));
  for (int i = 0; i < 2; ++i) b.data(kIsaPool + 4 * rng.next_below(20), rng.next_below(100));
  auto dst = [&] { return static_cast<RegId>(1 + rng.next_below(7)); };
  auto src = [&] { return static_cast<RegId>(rng.next_below(10)); };
  auto mem = [&] {
    const std::int64_t disp = 4 * rng.next_below(8);
    const auto scale = static_cast<std::uint8_t>(rng.next_below(3));
    switch (rng.next_below(4)) {
      case 0: return ProgramBuilder::abs(kIsaPool + disp);
      case 1: return ProgramBuilder::based(8, disp);
      case 2: return ProgramBuilder::indexed(kIsaPool + disp, 9, scale);
      default: return MemOperand{8, 9, scale, disp};
    }
  };
  auto sync = [&] { return static_cast<SyncKind>(rng.next_below(3)); };
  auto hint = [&] { return static_cast<BranchHint>(rng.next_below(3)); };
  constexpr Opcode kAlu[] = {Opcode::kAdd,  Opcode::kSub,  Opcode::kAnd,  Opcode::kOr,
                             Opcode::kXor,  Opcode::kSlt,  Opcode::kSltu, Opcode::kMul,
                             Opcode::kShl,  Opcode::kShr,  Opcode::kAddi, Opcode::kAndi,
                             Opcode::kOri,  Opcode::kXori, Opcode::kSlti};

  int pending_label = -1;  // forward branch target not yet placed
  int label_counter = 0;
  auto label_name = [](int n) {
    std::string s("F");
    s += std::to_string(n);
    return s;
  };
  for (int i = 0; i < length; ++i) {
    if (pending_label >= 0 && rng.chance(1, 3)) {
      b.label(label_name(pending_label));
      pending_label = -1;
    }
    switch (rng.next_below(8)) {
      case 0:
      case 1: {
        Instruction alu;
        alu.op = kAlu[rng.next_below(std::size(kAlu))];
        alu.rd = dst();
        alu.rs1 = src();
        if (alu.has_imm_operand())
          alu.imm = static_cast<std::int64_t>(rng.next_below(2001)) - 1000;
        else
          alu.rs2 = src();
        b.raw(alu);
        break;
      }
      case 2:
        if (rng.chance(1, 2))
          b.load(dst(), mem());
        else
          b.load_acq(dst(), mem());
        break;
      case 3:
        if (rng.chance(1, 2))
          b.store(src(), mem());
        else
          b.store_rel(src(), mem());
        break;
      case 4:
        switch (rng.next_below(4)) {
          case 0: b.tas(dst(), mem(), sync()); break;
          case 1: b.fetch_add(dst(), mem(), src(), sync()); break;
          case 2: b.swap(dst(), mem(), src(), sync()); break;
          default: b.cas(dst(), mem(), src(), src(), sync()); break;
        }
        break;
      case 5:
        switch (rng.next_below(4)) {
          case 0: b.nop(); break;
          case 1: b.fence(); break;
          case 2: b.prefetch(mem()); break;
          default: b.prefetch_ex(mem()); break;
        }
        break;
      default:
        if (pending_label >= 0) {
          b.nop();
          break;
        }
        pending_label = label_counter++;
        switch (rng.next_below(5)) {
          case 0: b.beq(src(), src(), label_name(pending_label), hint()); break;
          case 1: b.bne(src(), src(), label_name(pending_label), hint()); break;
          case 2: b.blt(src(), src(), label_name(pending_label), hint()); break;
          case 3: b.bge(src(), src(), label_name(pending_label), hint()); break;
          default: b.jmp(label_name(pending_label)); break;
        }
        break;
    }
  }
  if (pending_label >= 0) b.label(label_name(pending_label));
  b.halt();
  return b.build();
}

class IsaAgreementTest : public ::testing::TestWithParam<int> {};

// The reference interpreter, the SC enumerator and the checker's replay
// step one instruction semantics, and disassemble() writes what the
// assembler reads: on any program the four must agree.
TEST_P(IsaAgreementTest, InterpreterOracleCheckerAndTextAgree) {
  const int seed = GetParam();
  const Program p = full_isa_program(5000 + seed * 31, 40);
  SystemConfig cfg = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  cfg.record_accesses = true;
  cfg.core.speculative_loads = seed % 2 != 0;
  cfg.core.prefetch = seed % 4 >= 2 ? PrefetchMode::kNonBinding : PrefetchMode::kOff;

  FlatMemory ref_mem(cfg.mem.mem_bytes);
  const InterpResult ref = interpret(p, ref_mem);
  ASSERT_TRUE(ref.halted);
  std::vector<Addr> watch;
  for (Addr a = kIsaPool; a < kIsaPool + 32 * 4; a += 4) watch.push_back(a);
  const sva::EnumerationResult sc = sva::enumerate_sc_outcomes({p}, cfg.mem.mem_bytes, watch);
  ASSERT_TRUE(sc.complete);
  ASSERT_EQ(sc.outcomes.size(), 1u) << p.listing();
  const sva::ScOutcome& only = *sc.outcomes.begin();
  EXPECT_EQ(only.regs[0], ref.regs) << p.listing();
  for (std::size_t i = 0; i < watch.size(); ++i)
    EXPECT_EQ(only.memory[i], ref_mem.read(watch[i])) << "addr " << watch[i];

  Machine m(cfg, {p});
  ASSERT_FALSE(m.run().deadlocked) << p.listing();
  for (RegId r = 0; r < kNumArchRegs; ++r)
    EXPECT_EQ(m.core(0).reg(r), ref.regs[r]) << "r" << unsigned(r) << "\n" << p.listing();
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                 ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    const sva::CheckResult c = sva::check_execution(model, {p}, m.access_logs());
    EXPECT_TRUE(c.ok()) << to_string(model) << ": " << c.describe() << "\n" << p.listing();
  }

  // A flavourless tas is the one instruction the text cannot say.
  const bool plain_tas = std::ranges::any_of(p.instructions(), [](const Instruction& i) {
    return i.is_rmw() && i.rmw == RmwOp::kTestAndSet && i.sync == SyncKind::kNone;
  });
  if (plain_tas) {
    EXPECT_THROW(sva::program_to_asm(p), std::runtime_error);
    return;
  }
  const std::string text = sva::program_to_asm(p);
  const Program back = assemble(text);
  EXPECT_TRUE(back.instructions() == p.instructions()) << text << "\n" << p.listing();
  EXPECT_TRUE(back.data() == p.data()) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsaAgreementTest, ::testing::Range(0, 40));

// ---- multiprocessor race-free fuzz ------------------------------------

class RandomMpTest : public ::testing::TestWithParam<std::tuple<ConsistencyModel, int>> {};

TEST_P(RandomMpTest, LockProtectedCountersAddUp) {
  auto [model, seed] = GetParam();
  Pcg32 rng(7000 + seed);
  constexpr int kProcs = 3;
  constexpr Addr kLocks[2] = {0x100, 0x200};
  constexpr Addr kCounters[2] = {0x300, 0x400};  // counter i protected by lock i
  int expected[2] = {0, 0};

  std::vector<Program> programs;
  for (int p = 0; p < kProcs; ++p) {
    ProgramBuilder b;
    int iters = 2 + rng.next_below(3);
    for (int i = 0; i < iters; ++i) {
      int which = rng.next_below(2);
      b.lock(kLocks[which]);
      b.load(1, ProgramBuilder::abs(kCounters[which]));
      b.addi(1, 1, 1);
      b.store(1, ProgramBuilder::abs(kCounters[which]));
      b.unlock(kLocks[which]);
      ++expected[which];
      // Private traffic between critical sections.
      Addr priv = 0x1000 + 0x100 * p + 4 * rng.next_below(8);
      b.li(2, i);
      b.store(2, ProgramBuilder::abs(priv));
      b.load(3, ProgramBuilder::abs(priv));
    }
    b.halt();
    programs.push_back(b.build());
  }

  SystemConfig cfg = SystemConfig::realistic(kProcs, model);
  cfg.record_accesses = true;
  cfg.core.speculative_loads = (seed % 2) != 0;
  cfg.core.prefetch = (seed % 2) != 0 ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
  Machine m(cfg, std::move(programs));
  RunResult r = m.run();
  ASSERT_FALSE(r.deadlocked) << to_string(model) << " seed=" << seed;
  EXPECT_EQ(m.read_word(kCounters[0]), static_cast<Word>(expected[0]));
  EXPECT_EQ(m.read_word(kCounters[1]), static_cast<Word>(expected[1]));

  sva::Report rep = sva::analyze(m.access_logs());
  EXPECT_TRUE(rep.sequentially_consistent())
      << to_string(model) << " seed=" << seed << ": "
      << (rep.races.empty() ? "" : rep.races[0].describe());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomMpTest,
    ::testing::Combine(::testing::Values(ConsistencyModel::kSC, ConsistencyModel::kPC,
                                         ConsistencyModel::kWC, ConsistencyModel::kRC),
                       ::testing::Range(0, 6)),
    [](const testing::TestParamInfo<std::tuple<ConsistencyModel, int>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mcsim
