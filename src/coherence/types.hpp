// Vocabulary shared between the cache, the directory, and the
// processor-side consumers (LSU, prefetch engine, speculative-load
// buffer).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "isa/instruction.hpp"  // RmwOp

namespace mcsim {

/// Home directory bank of a line number, shared by the cache's request
/// routing and DirectoryGroup's dispatch (they MUST agree). The line
/// number goes through a full splitmix64 finalizer before the modulo:
/// plain `line % banks` resonates with the power-of-two strides the
/// workloads use (0x40-byte spacing with 16-byte lines makes every hot
/// line ≡ 0 mod 4, homing ALL traffic to bank 0), and a single
/// multiplicative hash still starves banks on those strides. Pure
/// function of the line — deterministic, a fixed partition of the
/// line space.
inline std::uint32_t home_bank_of_line(std::uint64_t line,
                                       std::uint32_t banks) {
  std::uint64_t h = line;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::uint32_t>(h % banks);
}

/// Stable cache-line state (transients live in the MSHRs).
enum class LineState : std::uint8_t {
  kInvalid,
  kShared,     ///< readable, clean
  kExclusive,  ///< readable + writable; memory may be stale (DASH "dirty")
};

/// What the processor asks its cache to do.
enum class CacheOp : std::uint8_t {
  kLoad,
  kLoadEx,          ///< load that requests exclusive ownership: the
                    ///< speculative read-exclusive issued for an RMW
                    ///< (paper Appendix A)
  kStore,
  kRmw,             ///< atomic read-modify-write, performed in exclusive state
  kPrefetchShared,  ///< §3 read prefetch (non-binding)
  kPrefetchEx,      ///< §3 read-exclusive prefetch (non-binding)
};

struct CacheRequest {
  CacheOp op = CacheOp::kLoad;
  Addr addr = 0;            ///< word-aligned
  Word store_value = 0;     ///< kStore
  RmwOp rmw_op = RmwOp::kTestAndSet;  ///< kRmw
  Word rmw_cmp = 0;         ///< kRmw compare operand (CAS)
  Word rmw_src = 0;         ///< kRmw source operand
  std::uint64_t token = 0;  ///< echoed in the response; prefetches use 0
};

struct CacheResponse {
  std::uint64_t token = 0;
  Word value = 0;       ///< load result / RMW old value
  Cycle ready_at = 0;   ///< completion ("performed") cycle
  bool was_hit = false;
};

/// Outcome of presenting a request to the cache this cycle.
enum class ProbeResult : std::uint8_t {
  kHit,       ///< completed; response queued for ready_at = now + 1
  kMiss,      ///< accepted; response queued when the fill/ownership arrives
  kMerged,    ///< accepted by merging into an outstanding request (§3.2)
  kDropped,   ///< prefetch discarded (line already present / already pending)
  kRejected,  ///< structural hazard (MSHRs full); retry next cycle
};

/// Coherence transactions visible to the processor, monitored by the
/// speculative-load buffer (paper §4.2 detection mechanism).
enum class LineEventKind : std::uint8_t {
  kInvalidate,   ///< line invalidated (ownership request by another proc)
  kUpdate,       ///< update-protocol new value arrived for the line
  kReplacement,  ///< line evicted by this cache; coherence messages for it
                 ///< will no longer reach us
};

/// Processor-side listener for coherence transactions on cached lines.
class LineEventObserver {
 public:
  virtual ~LineEventObserver() = default;
  virtual void on_line_event(LineEventKind kind, Addr line_addr, Cycle now) = 0;
};

}  // namespace mcsim
