// mcsim benchmark driver: runs one workload serially for a fixed time
// and prints its metrics as the last line of stdout.
//
//   mcsim_perfbench --workload spin_barrier8|contended_p256|litmus_fuzz
//                   --seed N --seconds S --trace 0|1
//
// --trace 0 repeats untraced passes until S seconds have passed (two
// at least, so determinism is checked within the run) and reports the
// end-to-end metrics in reference seconds, from each timed unit's
// median over passes. --trace 1 alternates an untraced and a traced
// pass and reports the per-layer metrics. See README.md in this
// directory for what each metric means.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "passes.hpp"

namespace {

using perfbench::PassResult;
using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shortest decimal that reads back as exactly `v`.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

/// A fixed integer workload (a dependent xorshift chain) whose time is
/// recorded beside the results, so that runs on different hosts are
/// compared through it and never raw. Median of five.
double calibration_seconds() {
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    t.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(t);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median of f(pass) over passes.
double med(const std::vector<PassResult>& passes, const std::function<double(const PassResult&)>& f) {
  std::vector<double> v;
  for (const PassResult& p : passes) v.push_back(f(p));
  return median(v);
}

/// Reference seconds of `field`: per unit, its host seconds times the
/// host's pace around it to the workload's elasticity, median over
/// passes; summed over the units. See README.md, "Host speed".
double reference_seconds(const std::vector<PassResult>& passes,
                         double perfbench::UnitTimes::*field, double elasticity) {
  double sum = 0;
  std::vector<double> v;
  for (std::size_t u = 0; u < passes.front().units.size(); ++u) {
    v.clear();
    for (const PassResult& p : passes)
      v.push_back(p.units[u].*field * std::pow(p.units[u].pace, elasticity));
    sum += median(v);
  }
  return sum;
}

/// The host's pace, median over the units of passes[first..].
double median_pace(const std::vector<PassResult>& passes, std::size_t first = 0) {
  std::vector<double> v;
  for (std::size_t i = first; i < passes.size(); ++i) {
    for (const perfbench::UnitTimes& u : passes[i].units) v.push_back(u.pace);
  }
  return v.empty() ? 0.0 : median(v);
}

std::vector<Metric> end_to_end(const std::vector<PassResult>& passes, double elasticity) {
  using perfbench::UnitTimes;
  const perfbench::Modelled& mo = passes.front().model;
  const double run = reference_seconds(passes, &UnitTimes::run, elasticity);
  return {
      // Less litmus_fuzz's SC enumeration, cross-checks and shrinking,
      // which only the first pass does (HostTimes::once()).
      {"wall_s", reference_seconds(passes, &UnitTimes::wall, elasticity), "s"},
      {"setup_s", reference_seconds(passes, &UnitTimes::setup, elasticity), "s"},
      {"guest_ips", ratio(double(mo.retired), run), "1/s"},
      {"guest_cycles_per_s", ratio(double(mo.ticks), run), "1/s"},
      {"peak_rss_mb", passes.front().sim_peak_rss_mb, "MiB"},
      {"ok_share", ratio(double(mo.cells - mo.failed), double(mo.cells)), "ratio"},
      {"guest_cycles", double(mo.cycles), "cycles"},
  };
}

std::vector<Metric> per_layer(const std::vector<PassResult>& traced,
                              const std::vector<PassResult>& untraced, double calibration) {
  using perfbench::HostTimes;
  const perfbench::Modelled& mo = traced.front().model;
  auto t = [&](double HostTimes::*field) {
    return med(traced, [field](const PassResult& p) { return p.host.*field; });
  };
  auto per_call_ns = [&](double HostTimes::*s, std::uint64_t HostTimes::*calls) {
    return med(traced, [=](const PassResult& p) {
      return 1e9 * ratio(p.host.*s, double(p.host.*calls));
    });
  };
  std::vector<double> overhead;
  for (std::size_t i = 0; i < traced.size(); ++i)
    overhead.push_back(traced[i].host.wall - untraced[i].host.wall);

  std::vector<Metric> m = {
      {"trace.generate_s", t(&HostTimes::trace_generate), "s"},
      {"trace.lower_s", t(&HostTimes::trace_lower), "s"},
      {"trace.ops", double(mo.trace_ops), "count"},
      {"sim.cells", double(mo.cells), "count"},
      {"sim.construct_s", t(&HostTimes::construct), "s"},
      {"sim.run_s", t(&HostTimes::run), "s"},
      {"sim.ticks", double(mo.ticks), "count"},
      {"sim.ns_per_tick",
       med(traced, [](const PassResult& p) { return 1e9 * ratio(p.host.run, double(p.model.ticks)); }),
       "ns"},
      {"sim.stage_loop_s", t(&HostTimes::stage_loop), "s"},
      {"sim.stage_unattributed_s", med(traced, [](const PassResult& p) {
         const HostTimes& h = p.host;
         return h.stage_loop - h.deliver - h.dir_tick - h.cache_tick - h.core_tick;
       }), "s"},
      {"interconnect.deliver_s", t(&HostTimes::deliver), "s"},
      {"interconnect.deliver_calls", double(traced.front().host.deliver_calls), "count"},
      {"interconnect.deliver_ns", per_call_ns(&HostTimes::deliver, &HostTimes::deliver_calls), "ns"},
      {"interconnect.msgs", double(mo.msgs), "count"},
      {"interconnect.msg_latency_p50", double(mo.msg_latency.p50()), "cycles"},
      {"interconnect.msg_latency_p99", double(mo.msg_latency.p99()), "cycles"},
      {"coherence.dir_tick_s", t(&HostTimes::dir_tick), "s"},
      {"coherence.dir_tick_calls", double(traced.front().host.dir_tick_calls), "count"},
      {"coherence.dir_tick_ns", per_call_ns(&HostTimes::dir_tick, &HostTimes::dir_tick_calls), "ns"},
      {"coherence.cache_tick_s", t(&HostTimes::cache_tick), "s"},
      {"coherence.cache_tick_calls", double(traced.front().host.cache_tick_calls), "count"},
      {"coherence.cache_tick_ns", per_call_ns(&HostTimes::cache_tick, &HostTimes::cache_tick_calls), "ns"},
      {"coherence.load_latency_p50", double(mo.load_latency.p50()), "cycles"},
      {"coherence.load_latency_p99", double(mo.load_latency.p99()), "cycles"},
      {"coherence.store_latency_p50", double(mo.store_latency.p50()), "cycles"},
      {"coherence.store_latency_p99", double(mo.store_latency.p99()), "cycles"},
      {"coherence.inv_fanout_p90", double(mo.inv_fanout.p90()), "count"},
      {"cpu.core_tick_s", t(&HostTimes::core_tick), "s"},
      {"cpu.core_tick_calls", double(traced.front().host.core_tick_calls), "count"},
      {"cpu.core_tick_ns", per_call_ns(&HostTimes::core_tick, &HostTimes::core_tick_calls), "ns"},
      {"cpu.retired", double(mo.retired), "count"},
      {"cpu.squashes", double(mo.squashes), "count"},
  };
  for (std::size_t i = 0; i < mcsim::kNumStallCauses; ++i) {
    m.push_back({std::string("cpu.stall.") + mcsim::to_string(static_cast<mcsim::StallCause>(i)),
                 double(mo.stall[i]), "cycles"});
  }
  const std::vector<Metric> rest = {
      {"consistency.spec_reissues", double(mo.reissues), "count"},
      {"consistency.prefetches", double(mo.prefetches), "count"},
      {"consistency.prefetch_useful_ratio",
       ratio(double(mo.prefetch_useful), double(mo.prefetches)), "ratio"},
      {"consistency.rollback.invalidate", double(mo.rb_invalidate), "count"},
      {"consistency.rollback.update", double(mo.rb_update), "count"},
      {"consistency.rollback.replacement", double(mo.rb_replacement), "count"},
      {"consistency.rollback.flush", double(mo.rb_flush), "count"},
      {"consistency.sc_over_rc", ratio(double(mo.sc_both_cycles), double(mo.rc_both_cycles)),
       "ratio"},
      {"sva.litmus_gen_s", t(&HostTimes::litmus_gen), "s"},
      {"sva.sc_enum_s", t(&HostTimes::sc_enum), "s"},
      {"sva.check_s", t(&HostTimes::check), "s"},
      {"sva.shrink_s", t(&HostTimes::shrink), "s"},
      {"sva.cross_check_s", t(&HostTimes::cross_check), "s"},
      {"sva.cells", double(mo.sva_cells), "count"},
      {"sva.arcs_checked", double(mo.arcs_checked), "count"},
      {"host.trace_overhead_s", median(overhead), "s"},
      {"host.calibration_s", calibration, "s"},
      {"host.pace", median_pace(traced), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "mcsim_perfbench: %s\n"
               "usage: mcsim_perfbench --workload spin_barrier8|contended_p256|litmus_fuzz "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, out);
  return res.ec == std::errc() && res.ptr == end && !s.empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") workload_name = value;
    else if (flag == "--seed") have_seed = parse_u64(value, seed);
    else if (flag == "--seconds") parse_u64(value, seconds);
    else if (flag == "--trace") parse_u64(value, trace);
    else return usage(("unknown flag " + flag).c_str());
  }
  perfbench::WorkloadId workload;
  if (!perfbench::workload_from_name(workload_name, workload))
    return usage(("unknown workload '" + workload_name + "'").c_str());
  if (!have_seed) return usage("--seed must be a non-negative integer");
  if (seconds == 0 || seconds > 600) return usage("--seconds must be in 1..600");
  if (trace > 1) return usage("--trace must be 0 or 1");

  const double calibration = calibration_seconds();
  const unsigned nproc = std::thread::hardware_concurrency();
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("{\"host\": {\"cpu\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"asserts\": %s, \"calibration_s\": %s}, "
              "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %llu}\n",
              json_escape(cpu_model()).c_str(), nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              asserts ? "true" : "false", num(calibration).c_str(), workload_name.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(trace));
  std::fflush(stdout);

  // Serial passes until the time is up. Untraced runs make two passes
  // at least, so that every run checks that its modelled counts repeat.
  const auto start = Clock::now();
  auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - start).count(); };
  std::vector<PassResult> untraced, traced;
  std::vector<std::string> errors;
  const std::size_t min_passes = trace == 1 ? 1 : 2;
  // An untraced litmus_fuzz run enumerates SC outcomes, cross-checks and
  // shrinks in its first pass only. A traced run does them in every
  // pass, to time them.
  std::vector<perfbench::ScOracle> memo;
  while (untraced.size() < min_passes || elapsed() < double(seconds)) {
    untraced.push_back(
        perfbench::run_pass(workload, seed, false, trace == 1 ? nullptr : &memo));
    std::fprintf(stderr, "pass %zu: untraced wall %.3f s, pace %.3f\n", untraced.size(),
                 untraced.back().host.wall, median_pace(untraced, untraced.size() - 1));
    if (trace == 1) {
      traced.push_back(perfbench::run_pass(workload, seed, true));
      std::fprintf(stderr, "pass %zu: traced wall %.3f s, pace %.3f\n", traced.size(),
                   traced.back().host.wall, median_pace(traced, traced.size() - 1));
    }
  }

  const perfbench::Modelled& first = untraced.front().model;
  auto check = [&](const PassResult& p, const char* what) {
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    if (!p.model.same_counts(first))
      errors.push_back(std::string(what) + " pass's modelled counts differ from the first pass");
    if (p.units.size() != untraced.front().units.size())
      errors.push_back(std::string(what) + " pass has another number of timed units");
  };
  for (const PassResult& p : untraced) check(p, "an untraced");
  for (const PassResult& p : traced) check(p, "a traced (profiled)");
  for (const std::string& f : untraced.front().failures)
    std::fprintf(stderr, "failed cell: %s\n", f.c_str());
  for (const std::string& e : errors) std::fprintf(stderr, "benchmark error: %s\n", e.c_str());

  const std::vector<Metric> metrics =
      trace == 1 ? per_layer(traced, untraced, calibration)
                 : end_to_end(untraced, perfbench::pace_elasticity(workload));
  std::string line = "{\"correct\": " + std::string(errors.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(first.cells) +
                     ", \"failed\": " + std::to_string(first.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
