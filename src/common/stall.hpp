// Stall-cause taxonomy for per-cycle retirement attribution.
//
// Every machine tick, each core charges exactly one StallCause: kBusy
// if it retired at least one instruction that cycle, otherwise the
// reason its ROB head could not retire. The per-core counts therefore
// always sum to the number of ticks the core ran — the accounting
// identity the observability tests assert — and the breakdown is the
// cycles-by-cause view the paper's technique comparisons are about
// (how many cycles each model spends on consistency delay arcs vs.
// plain cache misses, and how much prefetch/speculation buys back).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace mcsim {

enum class StallCause : std::uint8_t {
  kBusy = 0,         ///< retired >= 1 instruction this cycle
  kFrontend,         ///< ROB empty: fetch/dispatch starved (e.g. mispredict refill)
  kExec,             ///< head waiting on ALU/branch operands or a forwarded value
  kAddrGen,          ///< head memory op's address operands not yet ready
  kStoreBufferFull,  ///< structural: store buffer / load queue slot unavailable
  kConsistency,      ///< gated by the model's delay arcs (fences, acquire/release)
  kCacheMiss,        ///< head's access outstanding in its cache (MSHR active)
  kDirPending,       ///< never charged: folded into kCacheMiss (see dir.queue_wait)
  kNetwork,          ///< head's access in flight with no MSHR (update-protocol word op)
  kSpeculation,      ///< SLB: value speculatively bound but not yet safe, replay, or SLB full
  kIdle,             ///< halted and drained; ticking only while the machine quiesces
  kCount
};

inline constexpr std::size_t kNumStallCauses = static_cast<std::size_t>(StallCause::kCount);

/// Per-core cycles-by-cause vector; index with static_cast<size_t>(cause).
using StallBreakdown = std::array<std::uint64_t, kNumStallCauses>;

inline const char* to_string(StallCause c) {
  switch (c) {
    case StallCause::kBusy: return "busy";
    case StallCause::kFrontend: return "frontend";
    case StallCause::kExec: return "exec";
    case StallCause::kAddrGen: return "addr_gen";
    case StallCause::kStoreBufferFull: return "sb_full";
    case StallCause::kConsistency: return "consistency";
    case StallCause::kCacheMiss: return "cache_miss";
    case StallCause::kDirPending: return "dir_pending";
    case StallCause::kNetwork: return "network";
    case StallCause::kSpeculation: return "speculation";
    case StallCause::kIdle: return "idle";
    case StallCause::kCount: break;
  }
  return "?";
}

}  // namespace mcsim
