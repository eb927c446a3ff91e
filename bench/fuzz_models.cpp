// Differential litmus fuzz campaign across the model × technique grid.
//
// Generates N seeded random litmus programs, runs every one through the
// detailed machine on all four consistency models with all four
// technique combinations, and validates each cell against the per-model
// execution checkers plus (for SC) the exhaustive interleaving oracle.
// Any failure is greedily shrunk to a minimal reproducer file.
//
//   fuzz_models --programs=500 --seed=1
//   fuzz_models --programs=50 --fault=sc-load     # must FIND the bug
//
// With --fault the corresponding test-only weakening is injected into
// consistency/policy enforcement; the run then succeeds (exit 0) only
// if the fuzzer catches it — the harness's own end-to-end self-test.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "common/json.hpp"
#include "consistency/policy.hpp"
#include "sva/fuzz_harness.hpp"

using namespace mcsim;
using namespace mcsim::sva;

namespace {

bool parse_u64(const char* arg, const char* name, std::uint64_t* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = std::strtoull(arg + n + 1, nullptr, 0);
  return true;
}

bool parse_str(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

void usage() {
  std::printf(
      "fuzz_models: differential litmus fuzzer (model x technique grid)\n"
      "  --programs=N     litmus programs to generate (default 100)\n"
      "  --seed=N         master seed; program i uses child seed i (default 1)\n"
      "  --workers=N      runner worker threads (default MCSIM_JOBS / cores)\n"
      "  --threads=N      max threads per program (default 3)\n"
      "  --insts=N        max memory instructions per thread (default 6)\n"
      "  --sync=PCT       acquire/release density percent (default 20)\n"
      "  --rmw=PCT        RMW density percent (default 15)\n"
      "  --topology=T     interconnect for every cell: crossbar|ring|mesh2d\n"
      "                   (default crossbar; ring/mesh add link contention\n"
      "                   as a timing adversary for the same checkers)\n"
      "  --link-bw=N      ring/mesh per-link bandwidth (default 1)\n"
      "  --dir-scheme=S   directory sharer encoding for every cell:\n"
      "                   fullmap|limptr|coarse (default fullmap)\n"
      "  --dir-banks=N    directory banks for every cell (default 1)\n"
      "  --sc-states=N    SC enumeration state budget (default 2000000)\n"
      "  --repro-dir=DIR  write shrunk reproducers here (default .)\n"
      "  --no-shrink      keep failing programs unshrunk\n"
      "  --fault=F        inject a policy bug: sc-load | sc-spec-tag | rc-release\n"
      "                   (exit 0 then means the fuzzer CAUGHT the bug)\n"
      "  --json=PATH      machine-readable report (default BENCH_fuzz.json)\n"
      "  --replay=FILE    re-run one reproducer file and re-check it\n");
}

// Re-run one reproducer file on its recorded cell and re-check it.
// Exit 0 = the execution is (now) clean, 1 = it still fails.
int replay(const std::string& path, std::uint64_t sc_max_states) {
  Reproducer r;
  try {
    r = load_reproducer(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay: %s\n", e.what());
    return 2;
  }
  FuzzCell cell{r.model, {r.prefetch, r.speculative_loads}};
  std::printf("replay %s: %s, %s\n", path.c_str(), cell.label().c_str(),
              describe(r.litmus).c_str());
  if (!r.note.empty()) std::printf("  recorded note: %s\n", r.note.c_str());
  EnumerationResult sc;
  const EnumerationResult* scp = nullptr;
  if (r.model == ConsistencyModel::kSC) {
    try {
      sc = enumerate_sc_outcomes(r.litmus.programs, 1u << 20, r.litmus.addrs,
                                 sc_max_states);
      if (sc.complete) scp = &sc;
    } catch (const std::exception&) {
    }
  }
  CellCheck c = verify_litmus_cell(r.litmus, cell, scp);
  if (c.failed) {
    std::printf("STILL FAILING [%s]: %s\n", to_string(c.kind), c.detail.c_str());
    return 1;
  }
  std::printf("clean (%llu arcs, %llu reads checked)\n",
              static_cast<unsigned long long>(c.arcs_checked),
              static_cast<unsigned long long>(c.reads_checked));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzConfig cfg;
  cfg.repro_dir = std::string(".");  // move-assigned: GCC 12 -O3 -Wrestrict false positive
  std::string fault = "none";
  std::string json_path = "BENCH_fuzz.json";
  std::string replay_path;
  std::uint64_t u = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (parse_u64(a, "--programs", &cfg.programs)) continue;
    if (parse_u64(a, "--seed", &cfg.seed)) continue;
    if (parse_u64(a, "--workers", &u)) { cfg.workers = static_cast<unsigned>(u); continue; }
    if (parse_u64(a, "--threads", &u)) {
      cfg.gen.max_threads = static_cast<std::uint32_t>(u);
      continue;
    }
    if (parse_u64(a, "--insts", &u)) {
      cfg.gen.max_insts = static_cast<std::uint32_t>(u);
      continue;
    }
    if (parse_u64(a, "--sync", &u)) {
      cfg.gen.sync_pct = static_cast<std::uint32_t>(u);
      continue;
    }
    if (parse_u64(a, "--rmw", &u)) {
      cfg.gen.rmw_pct = static_cast<std::uint32_t>(u);
      continue;
    }
    if (parse_u64(a, "--link-bw", &u)) {
      cfg.link_bw = static_cast<std::uint32_t>(u);
      continue;
    }
    if (parse_u64(a, "--dir-banks", &u)) {
      cfg.dir_banks = static_cast<std::uint32_t>(u);
      continue;
    }
    std::string scheme;
    if (parse_str(a, "--dir-scheme", &scheme)) {
      if (scheme == "fullmap") cfg.dir_scheme = DirScheme::kFullMap;
      else if (scheme == "limptr") cfg.dir_scheme = DirScheme::kLimitedPtr;
      else if (scheme == "coarse") cfg.dir_scheme = DirScheme::kCoarseVector;
      else {
        std::fprintf(stderr, "unknown --dir-scheme=%s\n", scheme.c_str());
        return 2;
      }
      continue;
    }
    std::string topo;
    if (parse_str(a, "--topology", &topo)) {
      if (topo == "crossbar") cfg.topology = Topology::kCrossbar;
      else if (topo == "ring") cfg.topology = Topology::kRing;
      else if (topo == "mesh2d") cfg.topology = Topology::kMesh2D;
      else {
        std::fprintf(stderr, "unknown --topology=%s\n", topo.c_str());
        return 2;
      }
      continue;
    }
    if (parse_u64(a, "--sc-states", &cfg.sc_max_states)) continue;
    if (parse_str(a, "--repro-dir", &cfg.repro_dir)) continue;
    if (parse_str(a, "--fault", &fault)) continue;
    if (parse_str(a, "--json", &json_path)) continue;
    if (parse_str(a, "--replay", &replay_path)) continue;
    if (std::strcmp(a, "--no-shrink") == 0) { cfg.shrink = false; continue; }
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage();
      return 0;
    }
    std::fprintf(stderr, "unknown flag: %s\n", a);
    usage();
    return 2;
  }

  PolicyFault pf = PolicyFault::kNone;
  if (fault == "sc-load") pf = PolicyFault::kSCLoadIgnoresStores;
  else if (fault == "sc-spec-tag") pf = PolicyFault::kSCSpecIgnoresStoreTag;
  else if (fault == "rc-release") pf = PolicyFault::kRCReleaseIgnoresStores;
  else if (fault != "none") {
    std::fprintf(stderr, "unknown --fault=%s\n", fault.c_str());
    return 2;
  }
  set_policy_fault(pf);

  if (!replay_path.empty()) return replay(replay_path, cfg.sc_max_states);

  std::printf("fuzz campaign: %llu programs, master seed %llu, fault=%s\n",
              static_cast<unsigned long long>(cfg.programs),
              static_cast<unsigned long long>(cfg.seed), fault.c_str());

  const FuzzReport rep = run_fuzz(cfg);
  set_policy_fault(PolicyFault::kNone);

  // Campaign table: violations per grid cell.
  std::map<std::string, std::size_t> per_cell;
  for (const FuzzViolation& v : rep.violations) ++per_cell[v.cell.label()];
  std::printf("\n%-10s %10s %12s\n", "cell", "programs", "violations");
  for (ConsistencyModel m :
       {ConsistencyModel::kSC, ConsistencyModel::kPC, ConsistencyModel::kWC,
        ConsistencyModel::kRC}) {
    for (const TechniqueKnobs& t : cfg.techniques) {
      FuzzCell c{m, t, cfg.topology, cfg.link_bw};
      std::printf("%-10s %10llu %12zu\n", c.label().c_str(),
                  static_cast<unsigned long long>(rep.programs),
                  per_cell.count(c.label()) ? per_cell[c.label()] : 0);
    }
  }
  std::printf("\n%s\n", rep.summary().c_str());

  Json j = Json::object();
  j.set("bench", Json::string("fuzz"));
  j.set("fault", Json::string(fault));
  j.set("topology", Json::string(to_string(cfg.topology)));
  j.set("seed", Json::number(cfg.seed));
  j.set("programs", Json::number(rep.programs));
  j.set("cells", Json::number(rep.cells));
  j.set("arcs_checked", Json::number(rep.arcs_checked));
  j.set("reads_checked", Json::number(rep.reads_checked));
  j.set("sc_outcomes_checked", Json::number(rep.sc_outcomes_checked));
  j.set("inconclusive_sc", Json::number(rep.inconclusive_sc));
  j.set("divergences", Json::number(rep.divergences));
  Json viols = Json::array();
  for (const FuzzViolation& v : rep.violations) {
    Json o = Json::object();
    o.set("program", Json::number(v.program_index));
    o.set("seed", Json::number(v.seed));
    o.set("cell", Json::string(v.cell.label()));
    o.set("kind", Json::string(to_string(v.kind)));
    o.set("detail", Json::string(v.detail));
    o.set("shrunk_insts", Json::number(static_cast<std::uint64_t>(v.shrunk_insts)));
    o.set("repro", Json::string(v.repro_path));
    viols.push_back(std::move(o));
  }
  j.set("violations", std::move(viols));
  std::ofstream out(json_path);
  if (out) {
    out << j.dump(2) << '\n';
    std::printf("[fuzz] wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "WARNING: could not write %s\n", json_path.c_str());
  }

  if (pf != PolicyFault::kNone) {
    // Self-test mode: the injected bug MUST be caught.
    if (rep.ok()) {
      std::printf("FAIL: injected fault %s escaped the fuzzer\n", fault.c_str());
      return 1;
    }
    std::printf("OK: injected fault %s caught and shrunk\n", fault.c_str());
    return 0;
  }
  return rep.ok() ? 0 : 1;
}
