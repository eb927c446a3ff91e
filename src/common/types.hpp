// Fundamental scalar types and identifiers shared by every mcsim module.
#pragma once

#include <cstdint>
#include <limits>

namespace mcsim {

/// Simulated time, in processor clock cycles.
using Cycle = std::uint64_t;

/// Byte address in the simulated shared physical address space.
using Addr = std::uint64_t;

/// All data paths are one machine word wide (32-bit, as in the era's
/// RISC machines the paper assumes).
using Word = std::uint32_t;

/// Processor (and private-cache) identifier, dense from 0.
using ProcId = std::uint32_t;

/// Architectural register index (r0..r31, r0 hardwired to zero).
using RegId = std::uint8_t;

inline constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();
inline constexpr ProcId kNoProc = std::numeric_limits<ProcId>::max();
inline constexpr std::uint32_t kNumArchRegs = 32;

/// Width of one word in bytes; every memory access in the ISA is one word.
inline constexpr Addr kWordBytes = 4;

/// Largest cache line the machine supports. A coherence message carries
/// its line payload inline, sized by this bound, so moving a line between
/// cache, network and directory allocates nothing.
/// SystemConfig::validate() rejects larger `cache.line_bytes`.
inline constexpr Addr kMaxLineBytes = 64;

/// Synchronization classification of a memory access (paper §2).
///
/// Release consistency classifies synchronization accesses into
/// acquires (read-synchronization: lock, flag spin) and releases
/// (write-synchronization: unlock, flag set). Weak consistency treats
/// both uniformly as "sync". Ordinary accesses carry kNone.
enum class SyncKind : std::uint8_t {
  kNone,     ///< ordinary data access
  kAcquire,  ///< read synchronization (gains access to shared data)
  kRelease,  ///< write synchronization (grants access to shared data)
};

const char* to_string(SyncKind k);

}  // namespace mcsim
