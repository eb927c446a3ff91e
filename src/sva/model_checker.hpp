// Per-model execution checkers: validate one observed execution of the
// detailed machine against the axioms of its consistency model.
//
// The machine records an architectural access log per processor
// (AccessRecord, with a global `performed_at` timestamp at which the
// access became visible machine-wide; speculative loads are restamped
// to their retirement instant, the point where coherence monitoring
// guarantees the bound value still equals memory). On this simulator
// the timestamp order therefore IS the execution's memory order, and
// legality reduces to three checks:
//
//  1. uniprocessor semantics ("replay"): feeding the logged load/RMW
//     values through the reference instruction semantics must reproduce
//     the log exactly — same accesses, same addresses, same store
//     values, same control flow;
//  2. delay arcs: for every program-order pair of accesses whose
//     classes requires_delay() orders under the model (the Figure-1
//     matrix in consistency/policy — the single source of ordering
//     truth), perform timestamps must be non-decreasing;
//  3. reads-from: every load (and RMW read) must return a value the
//     global perform order justifies — the most recent write to that
//     word, a write performing the same cycle (intra-cycle order is
//     unobservable), or an in-flight program-order-earlier store of
//     this processor (store-to-load forwarding, which the LSU only
//     allows when the model permits the load to perform).
//
// SC additionally has the exhaustive interleaving oracle
// (sc_enumerator); these checkers are what makes PC, WC, and RC
// executions checkable at all.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/access_record.hpp"
#include "consistency/policy.hpp"
#include "isa/program.hpp"

namespace mcsim {
namespace sva {

struct CheckViolation {
  enum class Kind : std::uint8_t {
    kReplayMismatch,  ///< log disagrees with uniprocessor semantics
    kDelayArc,        ///< a required ordering arc ran backwards
    kReadValue,       ///< a load returned an unjustifiable value
  };
  Kind kind;
  ProcId proc = 0;      ///< processor of the offending (later) access
  std::uint64_t seq = 0;///< its per-processor dynamic id
  std::string detail;
};

const char* to_string(CheckViolation::Kind k);

struct CheckResult {
  std::vector<CheckViolation> violations;
  std::uint64_t arcs_checked = 0;
  std::uint64_t reads_checked = 0;
  bool ok() const { return violations.empty(); }
  /// All violation details, one per line (empty string when ok()).
  std::string describe() const;
};

/// Validate one execution. `logs[p]` is processor p's architectural
/// access log in program order (Machine::access_logs() /
/// CellResult.access_logs); `programs[p]` the program it ran.
/// Reporting stops after `max_violations`.
CheckResult check_execution(ConsistencyModel m, const std::vector<Program>& programs,
                            const std::vector<std::vector<AccessRecord>>& logs,
                            std::size_t max_violations = 8);

/// The Figure-1 classes one access occupies: one, or two for an RMW.
struct AccessClasses {
  std::array<AccessClass, 2> c{};
  std::uint8_t n = 0;
  const AccessClass* begin() const { return c.data(); }
  const AccessClass* end() const { return c.data() + n; }
  AccessClass front() const { return c[0]; }
};

/// The Figure-1 access classes an architectural access occupies: a
/// plain load is {kLoad}, an acquire RMW is {kAcquire, kStore}, etc.
/// Exposed for the property tests.
AccessClasses classes_of(AccessKind kind, SyncKind sync);

}  // namespace sva
}  // namespace mcsim
