// Malformed-input contract of the trace reader: truncated files,
// unknown op kinds, out-of-range processor ids and zero-op traces are
// rejected with TraceError — and through the ExperimentRunner they
// become per-cell kError results (the sweep never exits or hangs on a
// bad trace file).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/experiment.hpp"
#include "trace/trace_core.hpp"
#include "trace/trace_format.hpp"
#include "trace/workload_gen.hpp"

namespace mcsim {
namespace {

TraceFile tiny_trace() {
  TraceFile t;
  t.kind = "unit";
  t.params["seed"] = "7";
  t.mem_bytes = 1u << 20;
  t.init.emplace_back(0x1000, 5);
  t.expect.emplace_back(0x2000, 5);
  t.ops.resize(2);
  t.ops[0] = {TraceOp{TraceOpKind::kLoad, 0x1000, 0, 0},
              TraceOp{TraceOpKind::kStore, 0x2000, 5, 2},
              TraceOp{TraceOpKind::kStoreRelease, 0x2040, 1, 0}};
  t.ops[1] = {TraceOp{TraceOpKind::kWait, 0x2040, 1, 0},
              TraceOp{TraceOpKind::kLoadAcquire, 0x2000, 0, 0},
              TraceOp{TraceOpKind::kFence, 0, 0, 0}};
  return t;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void expect_error_containing(const std::string& bytes, const std::string& needle,
                             const std::string& what) {
  try {
    parse_trace(bytes);
    FAIL() << what << ": malformed trace accepted";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << what << ": error was '" << e.what() << "', expected to mention '"
        << needle << "'";
  }
}

TEST(TraceReader, RoundTripsBothEncodings) {
  const TraceFile t = tiny_trace();
  EXPECT_EQ(parse_trace(write_trace_text(t)), t);
  EXPECT_EQ(parse_trace(write_trace_binary(t)), t);
}

TEST(TraceReader, RejectsTruncatedBinary) {
  const std::string whole = write_trace_binary(tiny_trace());
  // Every proper prefix must be rejected cleanly — no crash, no accept.
  // (A cut inside the 4-byte magic falls through to the text parser and
  // is rejected as a bad header instead — still a TraceError.)
  EXPECT_THROW(parse_trace(whole.substr(0, 2)), TraceError);
  for (std::size_t cut : {std::size_t{6}, whole.size() / 2, whole.size() - 1}) {
    expect_error_containing(whole.substr(0, cut), "truncated",
                            "binary cut at " + std::to_string(cut));
  }
}

TEST(TraceReader, RejectsTruncatedText) {
  const std::string whole = write_trace_text(tiny_trace());
  // Cut mid-directive: "procs" declared but streams missing ops is fine
  // (text gathers per line), so truncate to a half-written op line.
  const std::string cut = whole.substr(0, whole.rfind("0x"));
  EXPECT_THROW(parse_trace(cut), TraceError);
}

TEST(TraceReader, RejectsUnknownOpKind) {
  expect_error_containing(
      "mcsim-trace v1\nprocs 1\n0 frobnicate 0x100\n", "unknown op kind",
      "bad mnemonic");
}

TEST(TraceReader, RejectsOutOfRangeProcId) {
  expect_error_containing("mcsim-trace v1\nprocs 2\n5 ld 0x100\n",
                          "out of range", "proc 5 of 2");
}

TEST(TraceReader, RejectsZeroOpTrace) {
  expect_error_containing("mcsim-trace v1\nprocs 2\n", "op", "no ops at all");
}

TEST(TraceReader, RejectsBinaryTrailingGarbage) {
  std::string bytes = write_trace_binary(tiny_trace());
  bytes += "extra";
  EXPECT_THROW(parse_trace(bytes), TraceError);
}

TEST(TraceReader, RejectsUnalignedAndOutOfBoundsAddresses) {
  expect_error_containing("mcsim-trace v1\nprocs 1\n0 ld 0x101\n", "align",
                          "unaligned address");
  expect_error_containing(
      "mcsim-trace v1\nprocs 1\nmem 0x1000\n0 ld 0x2000\n", "mem",
      "address beyond mem_bytes");
}

TEST(TraceReader, RejectsSignedAndTooWideNumbers) {
  const std::string head = "mcsim-trace v1\nprocs 1\n";
  // Each would otherwise wrap or truncate into a different trace.
  expect_error_containing(head + "0 st 0x40 -1\n", "line 3: bad value: '-1'",
                          "negative value");
  expect_error_containing(head + "0 st 0x40 4294967297\n",
                          "line 3: bad value: '4294967297'", "value wider than a word");
  expect_error_containing(head + "0 st 0x40 1 +-4294967295\n",
                          "line 3: bad delay: '-4294967295'", "negative delay");
  expect_error_containing(head + "0 st 0x40 1 +4294967296\n", "line 3: bad delay",
                          "delay wider than 32 bits");
  expect_error_containing(head + "0 ld -4\n", "line 3: bad address: '-4'",
                          "negative address");
  expect_error_containing(head + "init 0x40 -2\n0 ld 0x40\n", "line 3: bad value",
                          "negative init value");
  expect_error_containing("mcsim-trace v1\nprocs +2\n0 ld 0x40\n",
                          "line 2: bad processor count", "signed processor count");
  expect_error_containing("mcsim-trace v1\nprocs 4097\n0 ld 0x40\n",
                          "line 2: bad processor count", "too many processors");
  // The largest values each field holds still parse.
  const TraceFile t = parse_trace(head + "0 st 0x40 4294967295 +4294967295\n");
  EXPECT_EQ(t.ops[0][0].value, 4294967295u);
  EXPECT_EQ(t.ops[0][0].delay, 4294967295u);
}

TEST(TraceReader, AddressCheckDoesNotWrapAround) {
  // 0xfffffffffffffffc + 4 wraps to 0, which is below any mem_bytes.
  expect_error_containing(
      "mcsim-trace v1\nprocs 1\nmem 0x1000\n0 ld 0xfffffffffffffffc\n", "outside mem_bytes",
      "address at the top of the address space");
  TraceFile t = tiny_trace();
  t.mem_bytes = 2;  // smaller than one word
  EXPECT_THROW(t.validate(), TraceError);
}

TEST(TraceReader, ReadTraceNamesTheFileOnIoError) {
  try {
    read_trace("/nonexistent/definitely/missing.mct");
    FAIL() << "missing file accepted";
  } catch (const TraceError& e) {
    EXPECT_NE(std::string(e.what()).find("missing.mct"), std::string::npos);
  }
}

/// The message read_trace throws for `path`, or "" when it accepts it.
std::string read_error(const std::string& path) {
  try {
    read_trace(path);
  } catch (const TraceError& e) {
    return e.what();
  }
  return "";
}

TEST(TraceReader, ReadTraceNamesTheFileAfterOnePrefix) {
  const std::string text = temp_path("prefix_once.mct");
  write_file(text, "mcsim-trace v1\nprocs 1\n0 ld 0x40 +x\n");
  EXPECT_EQ(read_error(text),
            "trace: '" + text + "': line 3: bad delay: 'x' (expected an integer from 0 to "
            "4294967295)");
  const std::string binary = temp_path("prefix_once.mctb");
  write_file(binary, write_trace_binary(tiny_trace()).substr(0, 10));
  EXPECT_EQ(read_error(binary), "trace: '" + binary +
                                    "': truncated binary trace (reading processor count at offset 8)");
}

TEST(TraceReader, AddressesWithoutAMemLineStayInTheDefaultMemory) {
  // No `mem` line: the trace runs on MemConfig{}'s 1 MiB, so an address
  // past it fails here, naming its op, and not in every cell at run time.
  const std::string head = "mcsim-trace v1\nprocs 1\n";
  expect_error_containing(head + "0 ld 0xfffffffffffffffc\n",
                          "proc 0 op 0: address 0xfffffffffffffffc outside mem_bytes 1048576",
                          "address at the top of the address space");
  expect_error_containing(head + "0 ld 0x40\n0 st 0x100000 1\n",
                          "proc 0 op 1: address 0x100000 outside mem_bytes 1048576",
                          "address one past the default memory");
  EXPECT_EQ(parse_trace(head + "0 ld 0xffffc\n").ops[0][0].addr, 0xffffcu);
}

// ---- per-cell error behavior through the ExperimentRunner -------------

CellResult run_trace_cell(const std::string& path) {
  ExperimentCell cell;
  cell.workload.name = "bad-trace";
  cell.workload.trace_path = path;
  cell.config = SystemConfig::paper_default(1, ConsistencyModel::kSC);
  return run_cell(cell);
}

TEST(TraceReader, MalformedTraceFailsItsCellNotTheSweep) {
  const struct {
    const char* name;
    std::string bytes;
  } cases[] = {
      {"truncated.mctb", write_trace_binary(tiny_trace()).substr(0, 10)},
      {"unknown_kind.mct", "mcsim-trace v1\nprocs 1\n0 frobnicate 0x100\n"},
      {"bad_proc.mct", "mcsim-trace v1\nprocs 2\n9 ld 0x100\n"},
      {"zero_ops.mct", "mcsim-trace v1\nprocs 4\n"},
  };
  for (const auto& c : cases) {
    const std::string path = temp_path(c.name);
    write_file(path, c.bytes);
    CellResult r = run_trace_cell(path);
    EXPECT_EQ(r.status, CellStatus::kError) << c.name;
    EXPECT_FALSE(r.error.empty()) << c.name;
  }
  // Missing file: same contract, no crash.
  CellResult r = run_trace_cell(temp_path("never_written.mct"));
  EXPECT_EQ(r.status, CellStatus::kError);
}

TEST(TraceReader, MalformedCellsSurviveAParallelSweepAlongsideGoodOnes) {
  const std::string bad = temp_path("sweep_bad.mct");
  write_file(bad, "mcsim-trace v1\nprocs 1\n0 zap 0x0\n");
  WorkloadGenSpec spec;
  spec.nprocs = 2;
  spec.ops = 60;
  const std::string good = temp_path("sweep_good.mct");
  ASSERT_TRUE(save_trace(generate_trace(spec), good, false));

  ExperimentGrid grid("reader-errors");
  for (const std::string& path : {bad, good, bad}) {
    Workload w;
    w.name = "trace-file";
    w.trace_path = path;
    grid.add(std::move(w), SystemConfig::paper_default(1, ConsistencyModel::kRC));
  }
  std::vector<CellResult> results = ExperimentRunner(3).run(grid);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status, CellStatus::kError);
  EXPECT_EQ(results[1].status, CellStatus::kOk) << results[1].error;
  EXPECT_EQ(results[2].status, CellStatus::kError);
  // The good cell resolved its processor count and provenance at run
  // time (the v6 "trace" JSON object feeds from these).
  EXPECT_EQ(results[1].num_procs, 2u);
  EXPECT_EQ(results[1].trace_meta.at("kind"), "producer_consumer");
}

TEST(TraceReader, LazyLoadedTraceCellValidatesExpectedFinals) {
  WorkloadGenSpec spec;
  spec.nprocs = 2;
  spec.ops = 120;
  spec.seed = 3;
  const std::string path = temp_path("lazy_ok.mctb");
  ASSERT_TRUE(save_trace(generate_trace(spec), path, true));
  CellResult r = run_trace_cell(path);
  EXPECT_EQ(r.status, CellStatus::kOk) << r.error;
  EXPECT_GT(r.stats.cycles, 0u);
}

}  // namespace
}  // namespace mcsim
