// CLI wrapper over validate_bench_json: check one or more BENCH_*.json
// files against the mcsim-bench-v8 schema (required keys, percentile
// ordering, cycle accounting, profiler conservation sums). Exits
// nonzero naming the first violation, so the CI bench-smoke step fails
// the build on schema drift instead of letting downstream tooling rot.
//
//   ./bench/validate_bench BENCH_*.json
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s BENCH_file.json [more...]\n", argv[0]);
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i]);
    if (!in.good()) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string parse_err;
    mcsim::Json report = mcsim::Json::parse(buf.str(), &parse_err);
    if (!parse_err.empty()) {
      std::fprintf(stderr, "%s: JSON parse error: %s\n", argv[i], parse_err.c_str());
      ++failures;
      continue;
    }
    std::string err = mcsim::validate_bench_json(report);
    if (!err.empty()) {
      std::fprintf(stderr, "%s: schema violation: %s\n", argv[i], err.c_str());
      ++failures;
      continue;
    }
    std::printf("%s: ok (%s, %zu cells)\n", argv[i],
                report["schema"].as_string().c_str(), report["cells"].size());
  }
  return failures == 0 ? 0 : 1;
}
