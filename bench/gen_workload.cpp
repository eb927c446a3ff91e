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
#include <cstdlib>
#include <string>

#include "sim/options.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  WorkloadGenSpec spec;
  std::string out = "workload.mct";
  int encoding = 0;  // 0 = by extension, 1 = text, 2 = binary
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](std::size_t n) { return arg.substr(n); };
    std::string err;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--kind=", 0) == 0) {
      if (!workload_kind_from_string(val(7), spec.kind)) {
        std::fprintf(stderr, "gen_workload: unknown kind '%s'\n", val(7).c_str());
        return 1;
      }
    } else if (parse_uint_flag(arg, "--procs", spec.nprocs, err) ||
               parse_uint_flag(arg, "--ops", spec.ops, err) ||
               parse_uint_flag(arg, "--seed", spec.seed, err) ||
               parse_uint_flag(arg, "--sharing", spec.sharing, err) ||
               parse_uint_flag(arg, "--sync-period", spec.sync_period, err) ||
               parse_uint_flag(arg, "--delay", spec.delay, err)) {
      if (!err.empty()) {
        std::fprintf(stderr, "gen_workload: %s\n", err.c_str());
        return 1;
      }
    } else if (arg.rfind("--zipf-s=", 0) == 0) {
      char* end = nullptr;
      spec.zipf_s = std::strtod(argv[i] + 9, &end);
      if (end == argv[i] + 9 || *end != '\0') {
        std::fprintf(stderr, "gen_workload: bad --zipf-s: '%s'\n", argv[i] + 9);
        return 1;
      }
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
