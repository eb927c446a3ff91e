#include "common/config.hpp"

#include <string>

namespace mcsim {

const char* to_string(SyncKind k) {
  switch (k) {
    case SyncKind::kNone: return "none";
    case SyncKind::kAcquire: return "acquire";
    case SyncKind::kRelease: return "release";
  }
  return "?";
}

const char* to_string(ConsistencyModel m) {
  switch (m) {
    case ConsistencyModel::kSC: return "SC";
    case ConsistencyModel::kPC: return "PC";
    case ConsistencyModel::kWC: return "WC";
    case ConsistencyModel::kRC: return "RC";
  }
  return "?";
}

const char* to_string(CoherenceKind k) {
  switch (k) {
    case CoherenceKind::kInvalidation: return "invalidation";
    case CoherenceKind::kUpdate: return "update";
  }
  return "?";
}

const char* to_string(PrefetchMode m) {
  switch (m) {
    case PrefetchMode::kOff: return "off";
    case PrefetchMode::kNonBinding: return "non-binding";
    case PrefetchMode::kBinding: return "binding";
  }
  return "?";
}

const char* to_string(Topology t) {
  switch (t) {
    case Topology::kCrossbar: return "crossbar";
    case Topology::kRing: return "ring";
    case Topology::kMesh2D: return "mesh2d";
  }
  return "?";
}

const char* to_string(DirScheme s) {
  switch (s) {
    case DirScheme::kFullMap: return "fullmap";
    case DirScheme::kLimitedPtr: return "limptr";
    case DirScheme::kCoarseVector: return "coarse";
  }
  return "?";
}

SystemConfig& SystemConfig::with_clean_miss_latency(std::uint32_t cycles) {
  // probe(0) + net + dir + net = cycles, with dir picked to absorb parity.
  mem.dir_latency = 2 + (cycles % 2);
  mem.net_latency = (cycles - mem.dir_latency) / 2;
  return *this;
}

SystemConfig SystemConfig::paper_default(std::uint32_t nprocs, ConsistencyModel m) {
  SystemConfig cfg;
  cfg.num_procs = nprocs;
  cfg.model = m;
  cfg.core.ideal_frontend = true;
  cfg.with_clean_miss_latency(100);
  return cfg;
}

SystemConfig SystemConfig::realistic(std::uint32_t nprocs, ConsistencyModel m) {
  SystemConfig cfg;
  cfg.num_procs = nprocs;
  cfg.model = m;
  cfg.core.ideal_frontend = false;
  cfg.with_clean_miss_latency(100);
  return cfg;
}

namespace {
bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

void validate_core(const CoreConfig& core, std::string& err) {
  if (core.rob_entries == 0 || core.ls_rs_entries == 0 || core.store_buffer_entries == 0)
    err += "core buffer sizes must be >= 1; ";
  if (core.speculative_loads && core.spec_load_buffer_entries == 0)
    err += "speculative loads need spec_load_buffer_entries >= 1; ";
  if (core.fetch_width == 0 || core.decode_width == 0 || core.commit_width == 0)
    err += "pipeline widths must be >= 1; ";
  if (core.num_alus == 0) err += "core.num_alus must be >= 1; ";
  if (core.prefetch != PrefetchMode::kOff && core.prefetch_buffer_entries == 0)
    err += "prefetching needs prefetch_buffer_entries >= 1; ";
}
}  // namespace

std::string SystemConfig::validate() const {
  // Built only when something is wrong: a valid config allocates nothing.
  std::string err;
  if (num_procs == 0) err += "num_procs must be >= 1; ";
  if (num_procs > kMaxProcs)
    err += "num_procs must be <= " + std::to_string(kMaxProcs) +
           " (trace formats and endpoint ids cap the machine size); ";
  if (mem.dir_banks == 0) err += "mem.dir_banks must be >= 1; ";
  if (mem.dir_banks > kMaxProcs)
    err += "mem.dir_banks must be <= " + std::to_string(kMaxProcs) + "; ";
  if (mem.dir_scheme == DirScheme::kLimitedPtr && mem.dir_pointers == 0)
    err += "limited-pointer directory needs mem.dir_pointers >= 1; ";
  if (mem.dir_scheme == DirScheme::kCoarseVector && mem.dir_cluster == 0)
    err += "coarse-vector directory needs mem.dir_cluster >= 1; ";
  if (!is_pow2(cache.line_bytes) || cache.line_bytes < kWordBytes)
    err += "cache.line_bytes must be a power of two >= word size; ";
  if (cache.line_bytes > kMaxLineBytes)
    err += "cache.line_bytes must be <= " + std::to_string(kMaxLineBytes) +
           " (coherence messages carry the line inline); ";
  if (!is_pow2(cache.num_sets)) err += "cache.num_sets must be a power of two; ";
  if (cache.num_sets > CacheConfig::kMaxSets) err += "cache.num_sets must be <= 2^24; ";
  if (cache.ways == 0 || cache.ways > CacheConfig::kMaxWays)
    err += "cache.ways must be in [1, 255]; ";
  if (cache.mshrs == 0) err += "cache.mshrs must be >= 1; ";
  // Every core's pipeline buffers are sized once, at construction, so
  // a per-core override gets the same checks as the machine default.
  validate_core(core, err);
  for (const CoreConfig& c : per_core) validate_core(c, err);
  if (mem.net_latency == 0) err += "net_latency must be >= 1; ";
  if (mem.topology != Topology::kCrossbar && mem.link_queue == 0)
    err += "ring/mesh topologies need link_queue >= 1; ";
  if (mem.mem_bytes % cache.line_bytes != 0)
    err += "mem_bytes must be a multiple of the cache line size; ";
  if (!per_core.empty() && per_core.size() != num_procs)
    err += "per_core must be empty or have exactly num_procs entries; ";
  return err;
}

}  // namespace mcsim
