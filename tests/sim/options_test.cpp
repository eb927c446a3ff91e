#include "sim/options.hpp"

#include <gtest/gtest.h>

namespace mcsim {
namespace {

OptionsResult parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parse_options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, DefaultsAreScRealistic) {
  OptionsResult r = parse({});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.model, ConsistencyModel::kSC);
  EXPECT_EQ(r.config.num_procs, 1u);
  EXPECT_FALSE(r.config.core.ideal_frontend);
  EXPECT_FALSE(r.config.core.speculative_loads);
  EXPECT_EQ(r.config.core.prefetch, PrefetchMode::kOff);
  EXPECT_EQ(r.config.clean_miss_latency(), 100u);
}

TEST(Options, FullConfiguration) {
  OptionsResult r = parse({"--model=RC", "--procs=4", "--spec", "--prefetch",
                           "--miss=200", "--protocol=upd", "--ideal", "--rob=128",
                           "--mshrs=8", "--max-cycles=5000"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.model, ConsistencyModel::kRC);
  EXPECT_EQ(r.config.num_procs, 4u);
  EXPECT_TRUE(r.config.core.speculative_loads);
  EXPECT_EQ(r.config.core.prefetch, PrefetchMode::kNonBinding);
  EXPECT_EQ(r.config.clean_miss_latency(), 200u);
  EXPECT_EQ(r.config.mem.coherence, CoherenceKind::kUpdate);
  EXPECT_TRUE(r.config.core.ideal_frontend);
  EXPECT_EQ(r.config.core.rob_entries, 128u);
  EXPECT_EQ(r.config.cache.mshrs, 8u);
  EXPECT_EQ(r.config.max_cycles, 5000u);
}

TEST(Options, PrefetchModes) {
  EXPECT_EQ(parse({"--prefetch=off"}).config.core.prefetch, PrefetchMode::kOff);
  EXPECT_EQ(parse({"--prefetch=binding"}).config.core.prefetch, PrefetchMode::kBinding);
  EXPECT_EQ(parse({"--prefetch=nonbinding"}).config.core.prefetch,
            PrefetchMode::kNonBinding);
  EXPECT_FALSE(parse({"--prefetch=bogus"}).ok());
}

TEST(Options, TopologyFlagSelectsInterconnect) {
  OptionsResult r = parse({});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.config.mem.topology, Topology::kCrossbar);  // paper default
  EXPECT_EQ(r.config.mem.link_bw, 1u);
  EXPECT_EQ(r.config.mem.link_queue, 8u);

  r = parse({"--topology=mesh2d", "--link-bw=2", "--link-queue=4"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.mem.topology, Topology::kMesh2D);
  EXPECT_EQ(r.config.mem.link_bw, 2u);
  EXPECT_EQ(r.config.mem.link_queue, 4u);

  EXPECT_EQ(parse({"--topology=ring"}).config.mem.topology, Topology::kRing);
  EXPECT_EQ(parse({"--topology=crossbar"}).config.mem.topology,
            Topology::kCrossbar);
  EXPECT_FALSE(parse({"--topology=torus"}).ok());
  // validate() rejects a routed topology with no queue space.
  EXPECT_FALSE(parse({"--topology=ring", "--link-queue=0"}).ok());
  // ...but the crossbar ignores the link knobs entirely.
  EXPECT_TRUE(parse({"--topology=crossbar", "--link-queue=0"}).ok());
}

TEST(Options, LaterFlagsWin) {
  OptionsResult r = parse({"--spec", "--no-spec", "--model=PC", "--model=WC"});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.config.core.speculative_loads);
  EXPECT_EQ(r.config.model, ConsistencyModel::kWC);
}

TEST(Options, PositionalArgumentsPassThrough) {
  OptionsResult r = parse({"12", "--model=RC", "workload.s"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.positional.size(), 2u);
  EXPECT_EQ(r.positional[0], "12");
  EXPECT_EQ(r.positional[1], "workload.s");
}

TEST(Options, ErrorsAreReported) {
  EXPECT_FALSE(parse({"--model=XX"}).ok());
  EXPECT_FALSE(parse({"--procs=abc"}).ok());
  EXPECT_FALSE(parse({"--bogus"}).ok());
  EXPECT_FALSE(parse({"--miss=1"}).ok());  // too small to split into legs
}

TEST(Options, HelpFlag) {
  EXPECT_TRUE(parse({"--help"}).show_help);
  EXPECT_TRUE(parse({"-h"}).show_help);
  EXPECT_NE(options_help().find("--model"), std::string::npos);
}

TEST(Options, HexValuesAccepted) {
  OptionsResult r = parse({"--rob=0x40"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.config.core.rob_entries, 64u);
}

TEST(Options, TraceOutCapturesPath) {
  EXPECT_EQ(parse({}).trace_out, "");
  OptionsResult r = parse({"--trace-out=out/trace.json"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.trace_out, "out/trace.json");
  EXPECT_FALSE(parse({"--trace-out="}).ok());
}

TEST(Options, HelpDocumentsTraceAndEnvironment) {
  std::string help = options_help();
  EXPECT_NE(help.find("--trace-out"), std::string::npos);
  EXPECT_NE(help.find("MCSIM_JOBS"), std::string::npos);
}

TEST(Options, DirectorySchemeAndBankingFlags) {
  OptionsResult r = parse({"--dir-scheme=coarse", "--dir-cluster=8", "--dir-banks=4"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.mem.dir_scheme, DirScheme::kCoarseVector);
  EXPECT_EQ(r.config.mem.dir_cluster, 8u);
  EXPECT_EQ(r.config.mem.dir_banks, 4u);
  r = parse({"--dir-scheme=limptr", "--dir-ptrs=2"});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.config.mem.dir_scheme, DirScheme::kLimitedPtr);
  EXPECT_EQ(r.config.mem.dir_pointers, 2u);
  EXPECT_EQ(parse({}).config.mem.dir_scheme, DirScheme::kFullMap);
  EXPECT_EQ(parse({}).config.mem.dir_banks, 1u);
  // Bad values are named in the error, and validate() guards the
  // scheme-specific knobs.
  OptionsResult bad = parse({"--dir-scheme=hierarchical"});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error.find("fullmap|limptr|coarse"), std::string::npos);
  EXPECT_FALSE(parse({"--dir-scheme=limptr", "--dir-ptrs=0"}).ok());
  EXPECT_FALSE(parse({"--dir-scheme=coarse", "--dir-cluster=0"}).ok());
  EXPECT_FALSE(parse({"--dir-banks=0"}).ok());
  EXPECT_NE(options_help().find("--dir-scheme"), std::string::npos);
  EXPECT_NE(options_help().find("--dir-banks"), std::string::npos);
}

TEST(Options, ValuesThatDoNotFitTheirFieldAreRejected) {
  // A 32-bit field must not wrap: 2^32 is not 0 (unlimited bandwidth),
  // 2^32 + 1 is not 1 bank, and -1 is not 4294967295.
  EXPECT_FALSE(parse({"--link-bw=4294967296"}).ok());
  EXPECT_FALSE(parse({"--dir-banks=4294967297"}).ok());
  EXPECT_FALSE(parse({"--link-bw=-1"}).ok());
  EXPECT_FALSE(parse({"--link-bw=abc"}).ok());
  EXPECT_FALSE(parse({"--link-bw="}).ok());
  EXPECT_FALSE(parse({"--link-bw= 2"}).ok());
  EXPECT_FALSE(parse({"--max-cycles=18446744073709551616"}).ok());
  EXPECT_EQ(parse({"--link-bw=4294967295"}).config.mem.link_bw, 4294967295u);
  EXPECT_EQ(parse({"--max-cycles=18446744073709551615"}).config.max_cycles,
            18446744073709551615ull);
  OptionsResult r = parse({"--link-bw=4294967296"});
  EXPECT_NE(r.error.find("--link-bw"), std::string::npos) << r.error;
}

TEST(Options, CheckedValueReaderForBenchFlags) {
  std::uint32_t procs = 7;
  std::string err;
  EXPECT_FALSE(parse_uint_flag(std::string("--procsx=4"), "--procs", procs, err));
  EXPECT_FALSE(parse_uint_flag(std::string("--procs"), "--procs", procs, err));
  EXPECT_TRUE(parse_uint_flag(std::string("--procs=0x10"), "--procs", procs, err));
  EXPECT_EQ(procs, 16u);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(parse_uint_flag(std::string("--procs=-4"), "--procs", procs, err));
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(procs, 16u);  // a rejected value leaves the field alone
  unsigned char narrow = 0;
  err.clear();
  EXPECT_TRUE(parse_uint_flag(std::string("--n=256"), "--n", narrow, err));
  EXPECT_FALSE(err.empty());
}

TEST(Options, CheckedReaderForPositionalCounts) {
  std::uint64_t n = 7;
  std::string err;
  EXPECT_TRUE(parse_uint("12", "items", 0, 1024, n, err));
  EXPECT_EQ(n, 12u);
  for (const char* bad : {"abc", "-1", "+1", " 4", "4x", "", "0", "1025",
                          "18446744073709551616"}) {
    err.clear();
    EXPECT_FALSE(parse_uint(bad, "items", 1, 1024, n, err)) << bad;
    EXPECT_NE(err.find("items"), std::string::npos) << err;
    EXPECT_NE(err.find("from 1 to 1024"), std::string::npos) << err;
  }
  EXPECT_EQ(n, 12u);  // a rejected value leaves the count alone
}

TEST(Options, MemFlagsRoundTripThroughTheParser) {
  EXPECT_EQ(mem_flags(MemConfig{}), "");
  MemConfig mem;
  mem.topology = Topology::kMesh2D;
  mem.link_bw = 2;
  mem.link_queue = 3;
  mem.coherence = CoherenceKind::kUpdate;
  mem.dir_scheme = DirScheme::kLimitedPtr;
  mem.dir_pointers = 2;
  mem.dir_cluster = 8;
  mem.dir_banks = 4;
  const std::string flags = mem_flags(mem);
  EXPECT_EQ(flags,
            "--topology=mesh2d --link-bw=2 --link-queue=3 --protocol=upd "
            "--dir-scheme=limptr --dir-ptrs=2 --dir-cluster=8 --dir-banks=4");
  MemConfig back;
  std::string err;
  std::size_t from = 0;
  while (from < flags.size()) {
    std::size_t to = flags.find(' ', from);
    if (to == std::string::npos) to = flags.size();
    ASSERT_TRUE(parse_mem_flag(flags.substr(from, to - from), back, err));
    ASSERT_TRUE(err.empty()) << err;
    from = to + 1;
  }
  EXPECT_EQ(back, mem);
  EXPECT_FALSE(parse_mem_flag("--procs=4", back, err));
  EXPECT_TRUE(parse_mem_flag("--protocol=mesi", back, err));
  EXPECT_NE(err.find("inv|upd"), std::string::npos) << err;
}

TEST(Options, PresetMachinesUseTheDefaultMemorySystem) {
  // The fuzzer replaces a preset's MemConfig with a cell's whole, and a
  // reproducer omits a default one: both rely on the presets' 49/2
  // latencies being MemConfig{}'s.
  EXPECT_EQ(SystemConfig::paper_default(2, ConsistencyModel::kSC).mem, MemConfig{});
  EXPECT_EQ(SystemConfig::realistic(2, ConsistencyModel::kRC).mem, MemConfig{});
}

TEST(Options, ProcessorCountsBeyondSixtyFourAreAccepted) {
  // The historical uint64_t sharer mask capped machines at 64
  // processors; the SharerSet directory lifts that to kMaxProcs.
  for (std::uint32_t procs : {64u, 128u, 256u}) {
    const std::string flag = "--procs=" + std::to_string(procs);
    OptionsResult r = parse({flag.c_str()});
    ASSERT_TRUE(r.ok()) << procs << ": " << r.error;
    EXPECT_EQ(r.config.num_procs, procs);
  }
  // ...but not past the trace-format ceiling, with a message that says
  // where the wall is.
  OptionsResult huge = parse({"--procs=5000"});
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.error.find("4096"), std::string::npos) << huge.error;
}

}  // namespace
}  // namespace mcsim
