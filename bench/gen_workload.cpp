// gen_workload: CLI over the seeded workload generator — emit a trace
// file for any of the five sharing patterns at any op count.
//
//   gen_workload --kind=producer_consumer --procs=8 --ops=1000000 --seed=7 --out=pc_1m.mctb
//
// The output encoding follows the extension: .mct = text (diffable,
// corpus-friendly), .mctb = binary (~17 bytes/op, for the 10^6-op
// campaigns); --text / --binary override. The same spec always emits a
// byte-identical file, so a trace is fully described by its command
// line — which is also what the bench JSON's per-cell "trace" object
// records.
#include <cstdio>
#include <cstring>
#include <string>

#include "trace/workload_gen.hpp"

using namespace mcsim;

namespace {

void usage() {
  std::printf(
      "usage: gen_workload [options]\n"
      "  --kind=K        producer_consumer | work_stealing | lock_convoy |\n"
      "                  barrier_tree | zipfian        (default producer_consumer)\n"
      "  --procs=N       processor count               (default 4)\n"
      "  --ops=N         target total op count         (default 1000)\n"
      "  --seed=N        generator seed                (default 1)\n"
      "  --sharing=N     sharing degree (kind-specific; 0 = default)\n"
      "  --sync-period=N ops between extra sync points (0 = kind default)\n"
      "  --delay=N       mean compute delay per data op (default 0)\n"
      "  --zipf-s=X      zipfian skew exponent         (default 1.2)\n"
      "  --out=PATH      output file (default workload.mct)\n"
      "  --text/--binary force the encoding (default: by extension, .mctb=binary)\n");
}

bool parse_u64_arg(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadGenSpec spec;
  std::string out = "workload.mct";
  int encoding = 0;  // 0 = by extension, 1 = text, 2 = binary
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](std::size_t n) { return arg.substr(n); };
    std::uint64_t u = 0;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--kind=", 0) == 0) {
      if (!workload_kind_from_string(val(7), spec.kind)) {
        std::fprintf(stderr, "gen_workload: unknown kind '%s'\n", val(7).c_str());
        return 1;
      }
    } else if (arg.rfind("--procs=", 0) == 0 && parse_u64_arg(argv[i] + 8, u)) {
      spec.nprocs = static_cast<std::uint32_t>(u);
    } else if (arg.rfind("--ops=", 0) == 0 && parse_u64_arg(argv[i] + 6, u)) {
      spec.ops = u;
    } else if (arg.rfind("--seed=", 0) == 0 && parse_u64_arg(argv[i] + 7, u)) {
      spec.seed = u;
    } else if (arg.rfind("--sharing=", 0) == 0 && parse_u64_arg(argv[i] + 10, u)) {
      spec.sharing = static_cast<std::uint32_t>(u);
    } else if (arg.rfind("--sync-period=", 0) == 0 && parse_u64_arg(argv[i] + 14, u)) {
      spec.sync_period = static_cast<std::uint32_t>(u);
    } else if (arg.rfind("--delay=", 0) == 0 && parse_u64_arg(argv[i] + 8, u)) {
      spec.delay = static_cast<std::uint32_t>(u);
    } else if (arg.rfind("--zipf-s=", 0) == 0) {
      spec.zipf_s = std::strtod(argv[i] + 9, nullptr);
    } else if (arg.rfind("--out=", 0) == 0) {
      out = val(6);
    } else if (arg == "--text") {
      encoding = 1;
    } else if (arg == "--binary") {
      encoding = 2;
    } else {
      std::fprintf(stderr, "gen_workload: unknown argument '%s'\n", argv[i]);
      usage();
      return 1;
    }
  }

  const bool binary =
      encoding == 2 ||
      (encoding == 0 && out.size() > 5 && out.rfind(".mctb") == out.size() - 5);
  try {
    TraceFile t = generate_trace(spec);
    if (!save_trace(t, out, binary)) {
      std::fprintf(stderr, "gen_workload: cannot write '%s'\n", out.c_str());
      return 1;
    }
    std::printf("%s: %s, %u procs, %llu ops (%s)\n", out.c_str(), t.kind.c_str(),
                t.num_procs(), static_cast<unsigned long long>(t.total_ops()),
                binary ? "binary" : "text");
  } catch (const TraceError& e) {
    std::fprintf(stderr, "gen_workload: %s\n", e.what());
    return 1;
  }
  return 0;
}
