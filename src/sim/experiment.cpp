#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "trace/trace_core.hpp"

namespace mcsim {

const char* to_string(CellStatus s) {
  switch (s) {
    case CellStatus::kOk: return "ok";
    case CellStatus::kDeadlock: return "deadlock";
    case CellStatus::kValidationFailed: return "validation_failed";
    case CellStatus::kError: return "error";
  }
  return "?";
}

std::size_t ExperimentGrid::add(Workload workload, SystemConfig config,
                                std::string technique,
                                std::map<std::string, std::string> tags) {
  ExperimentCell cell;
  cell.workload = std::move(workload);
  cell.config = std::move(config);
  cell.technique = std::move(technique);
  cell.tags = std::move(tags);
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

namespace {

std::string label_of(const ExperimentCell& cell) {
  std::string label = "(" + cell.workload.name + ", " + to_string(cell.config.model);
  if (!cell.technique.empty()) label += ", " + cell.technique;
  return label + ")";
}

unsigned resolve_workers(unsigned requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("MCSIM_JOBS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

}  // namespace

CellResult run_cell(const ExperimentCell& cell) {
  using clock = std::chrono::steady_clock;
  CellResult out;
  out.cell_label = label_of(cell);
  const auto t0 = clock::now();
  try {
    // Trace-frontend cells carry a path instead of programs; loading +
    // compiling inside the try block turns a malformed trace file into
    // a per-cell kError instead of killing the sweep.
    const Workload* wl = &cell.workload;
    Workload lazy;
    if (!cell.workload.trace_path.empty() && cell.workload.programs.empty()) {
      lazy = load_trace_workload(cell.workload.trace_path);
      if (!cell.workload.name.empty()) lazy.name = cell.workload.name;
      wl = &lazy;
    }
    out.num_procs = static_cast<std::uint32_t>(wl->programs.size());
    out.trace_meta = wl->trace_meta;

    SystemConfig cfg = cell.config;
    cfg.num_procs = out.num_procs;
    if (wl->min_mem_bytes > cfg.mem.mem_bytes) {
      const std::uint64_t line = cfg.cache.line_bytes;
      cfg.mem.mem_bytes = (wl->min_mem_bytes + line - 1) / line * line;
    }
    if (cell.record_accesses) cfg.record_accesses = true;
    Machine m(cfg, wl->programs);
    for (const auto& [proc, addr] : wl->preload_shared) {
      m.preload_shared(proc, addr);
    }
    if (!cell.trace_out.empty()) m.trace_events().enable();
    RunResult r = m.run();

    RunStats& s = out.stats;
    s.cycles = r.cycles;
    s.ticks = r.ticks;
    s.drain_cycles = r.drain_cycle;
    s.retired = r.retired;
    s.stall = r.stall;
    auto merge_hist = [](LogHistogram& into, const StatSet& from, const char* name) {
      if (const LogHistogram* h = from.histogram(name)) into.merge(*h);
    };
    for (ProcId p = 0; p < cfg.num_procs; ++p) {
      s.squashes += m.core(p).stats().get("squashes");
      s.reissues += m.core(p).lsu().stats().get("spec_reissue");
      s.prefetches += m.cache(p).stats().get("prefetch_read_issued") +
                      m.cache(p).stats().get("prefetch_ex_issued");
      s.prefetch_useful += m.cache(p).stats().get("prefetch_useful_hit") +
                           m.cache(p).stats().get("prefetch_useful_merge");
      const StatSet& ls = m.core(p).lsu().stats();
      merge_hist(s.load_latency, ls, "load_latency");
      merge_hist(s.store_latency, ls, "store_latency");
      merge_hist(s.store_release_latency, ls, "store_release_latency");
      merge_hist(s.prefetch_to_use, m.cache(p).stats(), "prefetch_to_use");
    }
    merge_hist(s.net_latency, m.network().stats(), "msg_latency");
    merge_hist(s.net_hops, m.network().stats(), "msg_hops");
    merge_hist(s.net_queuing, m.network().stats(), "msg_queuing");

    if (cfg.profile) {
      ProfileStats& ps = s.profile;
      ps.enabled = true;
      auto merge_id = [](LogHistogram& into, const StatSet& from, StatId id) {
        if (const LogHistogram* h = from.histogram(id)) into.merge(*h);
      };
      for (ProcId p = 0; p < cfg.num_procs; ++p) {
        const StatSet& cs = m.cache(p).stats();
        ps.prefetch.issued += cs.get(prof::pf_issued);
        ps.prefetch.useful += cs.get(prof::pf_useful);
        ps.prefetch.late += cs.get(prof::pf_late);
        ps.prefetch.useless += cs.get(prof::pf_useless);
        ps.prefetch.killed_inval += cs.get(prof::pf_killed_inval);
        ps.prefetch.killed_update += cs.get(prof::pf_killed_update);
        ps.prefetch.pending_at_end += m.cache(p).profile_pending();
        merge_id(ps.pf_head_start, cs, prof::pf_head_start);
        merge_id(ps.pf_use_distance, cs, prof::pf_use_distance);
        const StatSet& lsu = m.core(p).lsu().stats();
        ps.rollbacks.invalidate += lsu.get(prof::rb_invalidate);
        ps.rollbacks.update += lsu.get(prof::rb_update);
        ps.rollbacks.replacement += lsu.get(prof::rb_replacement);
        ps.rollbacks.flush += lsu.get(prof::rb_flush);
        merge_id(ps.rb_wasted, lsu, prof::rb_wasted);
        merge_id(ps.squash_depth, m.core(p).stats(), prof::rb_squash_depth);
      }
      const DirectoryGroup& group = m.directory();
      for (std::uint32_t b = 0; b < group.num_banks(); ++b) {
        const StatSet& ds = group.bank(b).stats();
        merge_id(ps.inv_fanout, ds, prof::sh_inv_fanout);
        merge_id(ps.upd_fanout, ds, prof::sh_upd_fanout);
        merge_id(ps.read_share, ds, prof::sh_read_share);
        merge_id(ps.queue_wait, ds, prof::dir_queue_wait);
        DirBankProfile bp;
        bp.bank = b;
        merge_id(bp.inv_fanout, ds, prof::sh_inv_fanout);
        merge_id(bp.upd_fanout, ds, prof::sh_upd_fanout);
        merge_id(bp.read_share, ds, prof::sh_read_share);
        merge_id(bp.queue_wait, ds, prof::dir_queue_wait);
        ps.dir_banks.push_back(std::move(bp));
      }
      ps.top_lines = group.contended_lines_json(cfg.profile_top_lines);
    }

    if (cell.record_accesses) {
      out.access_logs = m.access_logs();
      out.final_regs.resize(cfg.num_procs);
      for (ProcId p = 0; p < cfg.num_procs; ++p) {
        for (RegId i = 0; i < kNumArchRegs; ++i) out.final_regs[p][i] = m.core(p).reg(i);
      }
    }
    out.watch_values.reserve(cell.watch.size());
    for (Addr a : cell.watch) out.watch_values.push_back(m.read_word(a));

    if (!cell.trace_out.empty()) {
      out.trace_path = cell.trace_out;
      out.trace_events = m.trace_events().event_count();
      if (!m.trace_events().write(cell.trace_out)) {
        out.error = out.cell_label + " failed to write trace: " + cell.trace_out;
      }
    }

    if (r.deadlocked) {
      out.status = CellStatus::kDeadlock;
      out.error = out.cell_label + " deadlocked after " + std::to_string(r.cycles) +
                  " cycles";
      out.post_mortem = m.post_mortem();
    } else {
      out.status = CellStatus::kOk;
      for (const auto& [addr, value] : wl->expected) {
        Word got = m.read_word(addr);
        if (got != value) {
          out.status = CellStatus::kValidationFailed;
          char buf[128];
          std::snprintf(buf, sizeof buf, " wrong result: [0x%llx]=%u != %u",
                        static_cast<unsigned long long>(addr), got, value);
          out.error = out.cell_label + buf;
          break;
        }
      }
    }
  } catch (const std::exception& e) {
    out.status = CellStatus::kError;
    out.error = out.cell_label + " " + e.what();
  }
  const auto t1 = clock::now();
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (out.wall_ms > 0.0) {
    out.sims_per_sec = static_cast<double>(out.stats.cycles) / (out.wall_ms / 1000.0);
  }
  if (out.wall_ns > 0) {
    out.sim_cycles_per_sec =
        static_cast<double>(out.stats.ticks) / (static_cast<double>(out.wall_ns) / 1e9);
  }
  return out;
}

ExperimentRunner::ExperimentRunner(unsigned workers) : workers_(resolve_workers(workers)) {}

std::vector<CellResult> ExperimentRunner::run(const ExperimentGrid& grid) {
  using clock = std::chrono::steady_clock;
  const std::vector<ExperimentCell>& cells = grid.cells();
  std::vector<CellResult> results(cells.size());
  const auto t0 = clock::now();

  const unsigned nthreads =
      static_cast<unsigned>(std::min<std::size_t>(workers_, cells.size()));
  if (nthreads <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) results[i] = run_cell(cells[i]);
  } else {
    // Work-stealing by atomic index: cells land in results[] at their
    // submission index, so the output order never depends on timing.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      while (true) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cells.size()) return;
        results[i] = run_cell(cells[i]);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  const auto t1 = clock::now();
  last_sweep_.workers = nthreads == 0 ? 1 : nthreads;
  last_sweep_.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  last_sweep_.guest_cycles = 0;
  last_sweep_.agg_load_latency = LogHistogram{};
  last_sweep_.agg_store_latency = LogHistogram{};
  last_sweep_.agg_net_latency = LogHistogram{};
  for (const CellResult& r : results) {
    last_sweep_.guest_cycles += r.stats.cycles;
    if (!r.ok()) continue;  // failed cells would skew the campaign view
    last_sweep_.agg_load_latency.merge(r.stats.load_latency);
    last_sweep_.agg_store_latency.merge(r.stats.store_latency);
    last_sweep_.agg_net_latency.merge(r.stats.net_latency);
  }
  return results;
}

namespace {

/// {count, mean, p50, p90, p99, max} for one latency distribution.
Json histogram_to_json(const LogHistogram& h) {
  Json j = Json::object();
  j.set("count", Json::number(h.count()));
  j.set("mean", Json::number(h.mean()));
  j.set("p50", Json::number(h.p50()));
  j.set("p90", Json::number(h.p90()));
  j.set("p99", Json::number(h.p99()));
  j.set("max", Json::number(h.max()));
  return j;
}

//// v5: the per-cell "profile" object (cells run with cfg.profile).
Json profile_to_json(const ProfileStats& ps) {
  Json j = Json::object();
  Json pf = Json::object();
  pf.set("issued", Json::number(ps.prefetch.issued));
  pf.set("useful", Json::number(ps.prefetch.useful));
  pf.set("late", Json::number(ps.prefetch.late));
  pf.set("useless", Json::number(ps.prefetch.useless));
  pf.set("killed_inval", Json::number(ps.prefetch.killed_inval));
  pf.set("killed_update", Json::number(ps.prefetch.killed_update));
  pf.set("pending_at_end", Json::number(ps.prefetch.pending_at_end));
  pf.set("head_start", histogram_to_json(ps.pf_head_start));
  pf.set("use_distance", histogram_to_json(ps.pf_use_distance));
  j.set("prefetch", std::move(pf));
  Json rb = Json::object();
  rb.set("invalidate", Json::number(ps.rollbacks.invalidate));
  rb.set("update", Json::number(ps.rollbacks.update));
  rb.set("replacement", Json::number(ps.rollbacks.replacement));
  rb.set("flush", Json::number(ps.rollbacks.flush));
  rb.set("total", Json::number(ps.rollbacks.total()));
  rb.set("wasted", histogram_to_json(ps.rb_wasted));
  rb.set("squash_depth", histogram_to_json(ps.squash_depth));
  j.set("rollbacks", std::move(rb));
  j.set("inv_fanout", histogram_to_json(ps.inv_fanout));
  j.set("upd_fanout", histogram_to_json(ps.upd_fanout));
  j.set("read_share", histogram_to_json(ps.read_share));
  j.set("queue_wait", histogram_to_json(ps.queue_wait));
  // v7: per-home-bank attribution of the sharing histograms (v8 adds
  // queue_wait). Every fan-out round and every deferred request lands
  // at exactly one bank, so per-bank counts sum to the aggregates above
  // (validated as a conservation law).
  Json banks = Json::array();
  for (const DirBankProfile& bp : ps.dir_banks) {
    Json b = Json::object();
    b.set("bank", Json::number(static_cast<std::uint64_t>(bp.bank)));
    b.set("inv_fanout", histogram_to_json(bp.inv_fanout));
    b.set("upd_fanout", histogram_to_json(bp.upd_fanout));
    b.set("read_share", histogram_to_json(bp.read_share));
    b.set("queue_wait", histogram_to_json(bp.queue_wait));
    banks.push_back(std::move(b));
  }
  j.set("dir_banks", std::move(banks));
  j.set("top_lines", ps.top_lines);
  return j;
}

}  // namespace

Json results_to_json(const ExperimentGrid& grid, const std::vector<CellResult>& results,
                     const SweepInfo& sweep) {
  Json root = Json::object();
  root.set("schema", Json::string("mcsim-bench-v8"));
  root.set("bench", Json::string(grid.name()));
  root.set("workers", Json::number(static_cast<std::uint64_t>(sweep.workers)));
  root.set("wall_ms", Json::number(sweep.wall_ms));
  root.set("guest_cycles", Json::number(sweep.guest_cycles));
  double sweep_sims =
      sweep.wall_ms > 0.0 ? static_cast<double>(sweep.guest_cycles) / (sweep.wall_ms / 1000.0)
                          : 0.0;
  root.set("sims_per_sec", Json::number(sweep_sims));

  // v5: campaign-level latency distributions merged across ok cells.
  Json agg = Json::object();
  agg.set("load_latency", histogram_to_json(sweep.agg_load_latency));
  agg.set("store_latency", histogram_to_json(sweep.agg_store_latency));
  agg.set("net_latency", histogram_to_json(sweep.agg_net_latency));
  root.set("aggregate", std::move(agg));

  Json cells = Json::array();
  for (std::size_t i = 0; i < results.size() && i < grid.cells().size(); ++i) {
    const ExperimentCell& cell = grid.cells()[i];
    const CellResult& r = results[i];
    Json c = Json::object();
    c.set("workload", Json::string(cell.workload.name));
    c.set("model", Json::string(to_string(cell.config.model)));
    c.set("technique", Json::string(cell.technique));
    c.set("num_procs",
          Json::number(static_cast<std::uint64_t>(
              r.num_procs != 0 ? r.num_procs : cell.workload.programs.size())));
    // v6: trace-frontend provenance — workload kind, generator params,
    // seed and op count — so any cell can be regenerated and replayed.
    const auto& tmeta =
        !r.trace_meta.empty() ? r.trace_meta : cell.workload.trace_meta;
    if (!tmeta.empty()) {
      Json tr = Json::object();
      for (const auto& [k, v] : tmeta) tr.set(k, Json::string(v));
      if (!cell.workload.trace_path.empty())
        tr.set("path", Json::string(cell.workload.trace_path));
      c.set("trace", std::move(tr));
    }
    Json tags = Json::object();
    for (const auto& [k, v] : cell.tags) tags.set(k, Json::string(v));
    c.set("tags", std::move(tags));
    if (cell.seed != 0) c.set("seed", Json::number(cell.seed));
    c.set("status", Json::string(to_string(r.status)));
    if (!r.error.empty()) c.set("error", Json::string(r.error));
    c.set("cycles", Json::number(static_cast<std::uint64_t>(r.stats.cycles)));
    c.set("ticks", Json::number(static_cast<std::uint64_t>(r.stats.ticks)));
    c.set("squashes", Json::number(r.stats.squashes));
    c.set("reissues", Json::number(r.stats.reissues));
    c.set("prefetches", Json::number(r.stats.prefetches));
    c.set("prefetch_useful", Json::number(r.stats.prefetch_useful));
    c.set("load_latency_mean", Json::number(r.stats.load_latency.mean()));
    c.set("store_latency_mean", Json::number(r.stats.store_latency.mean()));
    Json drains = Json::array();
    for (Cycle d : r.stats.drain_cycles) {
      drains.push_back(Json::number(static_cast<std::uint64_t>(d)));
    }
    c.set("drain_cycles", std::move(drains));
    Json retired = Json::array();
    for (std::uint64_t n : r.stats.retired) retired.push_back(Json::number(n));
    c.set("retired", std::move(retired));

    // v2: cycle accounting. busy_cycles[p] + sum over stall_cycles
    // arrays at p equals ticks for every processor.
    Json busy = Json::array();
    for (const StallBreakdown& b : r.stats.stall) {
      busy.push_back(Json::number(b[static_cast<std::size_t>(StallCause::kBusy)]));
    }
    c.set("busy_cycles", std::move(busy));
    Json stalls = Json::object();
    for (std::size_t cause = 0; cause < kNumStallCauses; ++cause) {
      if (cause == static_cast<std::size_t>(StallCause::kBusy)) continue;
      std::uint64_t total = 0;
      for (const StallBreakdown& b : r.stats.stall) total += b[cause];
      if (total == 0) continue;  // keep the report small: nonzero causes only
      Json per_proc = Json::array();
      for (const StallBreakdown& b : r.stats.stall) {
        per_proc.push_back(Json::number(b[cause]));
      }
      stalls.set(to_string(static_cast<StallCause>(cause)), std::move(per_proc));
    }
    c.set("stall_cycles", std::move(stalls));

    // v2: latency distributions (log2-bucketed percentiles, exact max).
    c.set("load_latency", histogram_to_json(r.stats.load_latency));
    c.set("store_latency", histogram_to_json(r.stats.store_latency));
    c.set("store_release_latency", histogram_to_json(r.stats.store_release_latency));
    c.set("prefetch_to_use", histogram_to_json(r.stats.prefetch_to_use));
    c.set("net_latency", histogram_to_json(r.stats.net_latency));

    // v3: interconnect topology + contention distributions (additive;
    // hop/queuing counts are 0 on the crossbar, which has no links).
    c.set("topology", Json::string(to_string(cell.config.mem.topology)));
    c.set("net_hops", histogram_to_json(r.stats.net_hops));
    c.set("net_queuing", histogram_to_json(r.stats.net_queuing));

    // v5: technique-efficacy profiler breakdown (profiled cells only).
    if (r.stats.profile.enabled) c.set("profile", profile_to_json(r.stats.profile));

    if (!r.trace_path.empty()) {
      c.set("trace_out", Json::string(r.trace_path));
      c.set("trace_events", Json::number(r.trace_events));
    }
    if (!r.post_mortem.is_null()) c.set("post_mortem", r.post_mortem);

    c.set("wall_ms", Json::number(r.wall_ms));
    c.set("sims_per_sec", Json::number(r.sims_per_sec));
    c.set("wall_ns", Json::number(r.wall_ns));
    c.set("sim_cycles_per_sec", Json::number(r.sim_cycles_per_sec));
    cells.push_back(std::move(c));
  }
  root.set("cells", std::move(cells));
  return root;
}

namespace {

/// One {count, mean, p50, p90, p99, max} block: keys present, counters
/// numeric, percentiles nondecreasing and capped by max.
std::string check_histogram(const Json& h, const std::string& where) {
  if (!h.is_object()) return where + ": histogram is not an object";
  for (const char* key : {"count", "mean", "p50", "p90", "p99", "max"}) {
    const Json* v = h.find(key);
    if (v == nullptr) return where + ": missing key '" + key + "'";
    if (!v->is_number()) return where + ": '" + key + "' is not a number";
  }
  const std::uint64_t p50 = h["p50"].as_uint(), p90 = h["p90"].as_uint();
  const std::uint64_t p99 = h["p99"].as_uint(), mx = h["max"].as_uint();
  if (h["count"].as_uint() == 0) {
    if (mx != 0) return where + ": empty histogram with nonzero max";
    return "";
  }
  if (p50 > p90 || p90 > p99 || p99 > mx)
    return where + ": percentiles not ordered (p50<=p90<=p99<=max)";
  return "";
}

}  // namespace

std::string validate_bench_json(const Json& report) {
  if (!report.is_object()) return "report is not a JSON object";
  for (const char* key :
       {"schema", "bench", "workers", "wall_ms", "guest_cycles", "sims_per_sec",
        "aggregate", "cells"}) {
    if (!report.contains(key)) return std::string("missing root key '") + key + "'";
  }
  if (report["schema"].as_string() != "mcsim-bench-v8")
    return "schema is '" + report["schema"].as_string() + "', expected 'mcsim-bench-v8'";
  const Json& agg = report["aggregate"];
  for (const char* key : {"load_latency", "store_latency", "net_latency"}) {
    const Json* h = agg.find(key);
    if (h == nullptr) return std::string("aggregate: missing '") + key + "'";
    std::string err = check_histogram(*h, std::string("aggregate.") + key);
    if (!err.empty()) return err;
  }
  if (!report["cells"].is_array()) return "'cells' is not an array";

  for (std::size_t i = 0; i < report["cells"].size(); ++i) {
    const Json& c = report["cells"][i];
    const std::string where = "cells[" + std::to_string(i) + "]";
    for (const char* key : {"workload", "model", "status", "cycles", "ticks",
                            "num_procs", "busy_cycles", "stall_cycles", "retired"}) {
      if (!c.contains(key)) return where + ": missing key '" + key + "'";
    }
    for (const char* key :
         {"load_latency", "store_latency", "net_latency", "net_hops", "net_queuing"}) {
      const Json* h = c.find(key);
      if (h == nullptr) return where + ": missing histogram '" + key + "'";
      std::string err = check_histogram(*h, where + "." + key);
      if (!err.empty()) return err;
    }
    // v6: the per-cell "trace" object (trace-frontend cells only) must
    // at least name the workload kind and carry the op count.
    if (const Json* tr = c.find("trace")) {
      if (!tr->is_object()) return where + ": 'trace' is not an object";
      for (const char* key : {"kind", "ops"}) {
        if (tr->find(key) == nullptr)
          return where + ".trace: missing key '" + key + "'";
      }
    }
    if (c["status"].as_string() != "ok") continue;  // failed cells may be partial

    // v2 cycle accounting: busy + every stall cause sums to ticks, per
    // processor.
    const std::uint64_t ticks = c["ticks"].as_uint();
    const Json& busy = c["busy_cycles"];
    const Json& stalls = c["stall_cycles"];
    for (std::size_t p = 0; p < busy.size(); ++p) {
      std::uint64_t total = busy[p].as_uint();
      for (const auto& [cause, arr] : stalls.members()) {
        (void)cause;
        if (p < arr.size()) total += arr[p].as_uint();
      }
      if (total != ticks)
        return where + ": cycle accounting off for proc " + std::to_string(p) + " (" +
               std::to_string(total) + " != ticks " + std::to_string(ticks) + ")";
    }

    // v5 conservation sums for profiled cells.
    if (const Json* prof = c.find("profile")) {
      const Json* pf = prof->find("prefetch");
      if (pf == nullptr) return where + ".profile: missing 'prefetch'";
      std::uint64_t resolved = 0;
      for (const char* key : {"useful", "late", "useless", "killed_inval",
                              "killed_update", "pending_at_end"}) {
        const Json* v = pf->find(key);
        if (v == nullptr) return where + ".profile.prefetch: missing '" + key + "'";
        resolved += v->as_uint();
      }
      if (pf->find("issued") == nullptr) return where + ".profile.prefetch: missing 'issued'";
      if ((*pf)["issued"].as_uint() != resolved)
        return where + ".profile.prefetch: conservation broken (issued " +
               std::to_string((*pf)["issued"].as_uint()) + " != resolved+pending " +
               std::to_string(resolved) + ")";
      const Json* rb = prof->find("rollbacks");
      if (rb == nullptr) return where + ".profile: missing 'rollbacks'";
      std::uint64_t causes = 0;
      for (const char* key : {"invalidate", "update", "replacement", "flush"}) {
        const Json* v = rb->find(key);
        if (v == nullptr) return where + ".profile.rollbacks: missing '" + key + "'";
        causes += v->as_uint();
      }
      if (rb->find("total") == nullptr) return where + ".profile.rollbacks: missing 'total'";
      if ((*rb)["total"].as_uint() != causes)
        return where + ".profile.rollbacks: total != sum of causes";
      if (prof->find("top_lines") == nullptr || !(*prof)["top_lines"].is_array())
        return where + ".profile: missing 'top_lines' array";

      // v7: per-bank fan-out attribution (v8: and queue waits),
      // conserved against the aggregate histograms (each round and
      // each deferred request has exactly one home bank).
      const Json* banks = prof->find("dir_banks");
      if (banks == nullptr || !banks->is_array() || banks->size() == 0)
        return where + ".profile: missing non-empty 'dir_banks' array";
      for (const char* key : {"inv_fanout", "upd_fanout", "read_share", "queue_wait"}) {
        const Json* aggh = prof->find(key);
        if (aggh == nullptr) return where + ".profile: missing '" + key + "'";
        std::uint64_t bank_sum = 0;
        for (std::size_t b = 0; b < banks->size(); ++b) {
          const Json& bank = (*banks)[b];
          if (bank.find("bank") == nullptr)
            return where + ".profile.dir_banks: missing 'bank' id";
          const Json* h = bank.find(key);
          if (h == nullptr)
            return where + ".profile.dir_banks[" + std::to_string(b) +
                   "]: missing '" + key + "'";
          std::string err = check_histogram(
              *h, where + ".profile.dir_banks[" + std::to_string(b) + "]." + key);
          if (!err.empty()) return err;
          bank_sum += (*h)["count"].as_uint();
        }
        if (bank_sum != (*aggh)["count"].as_uint())
          return where + ".profile." + key + ": per-bank counts sum to " +
                 std::to_string(bank_sum) + " but aggregate count is " +
                 std::to_string((*aggh)["count"].as_uint());
      }
    }
  }
  return "";
}

bool write_json(const std::string& path, const ExperimentGrid& grid,
                const std::vector<CellResult>& results, const SweepInfo& sweep) {
  std::string text = results_to_json(grid, results, sweep).dump(2);
  text += '\n';
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = (std::fclose(f) == 0) && ok;
  return ok;
}

}  // namespace mcsim
