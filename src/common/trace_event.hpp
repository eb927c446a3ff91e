// Chrome trace-event sink: an opt-in timeline of duration/instant
// events loadable in Perfetto or chrome://tracing ("Load legacy trace").
//
// This sink is the simulator's one instrumentation path: spans, stall
// episodes, counters, and the Figure-5 pipeline events (speculative-load
// buffer inserts, line events, squashes) are all recorded here, and
// in-process readers such as bench/fig5_trace walk events() directly.
//
// Recording is allocation-light by construction: event and arg names
// are interned process-wide into 16-bit ids (cold, at static init or
// first use), a stored event is 40 bytes with no strings, and every
// emission site is guarded by enabled() so a disabled sink costs one
// branch. Strings are only materialised at export time (to_json/write).
//
// Track convention (set up by Machine): tid 0..P-1 are cores, P..2P-1
// their private caches, 2P the directory, 2P+1 onward one track per
// interconnect link (ring/mesh only). Cycles are written 1:1 as
// microseconds — Perfetto has no "cycles" unit, and 1 cycle == 1 us
// keeps the timeline readable and exact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace mcsim {

class TraceEventSink {
 public:
  using NameId = std::uint16_t;

  /// Intern an event name process-wide (thread-safe, cold). Ids are
  /// stable for the process lifetime, so call sites cache them in
  /// static locals.
  static NameId name_id(std::string_view name);
  static std::string name_of(NameId id);

  static constexpr NameId kNoArg = 0xFFFF;

  /// A named integer argument of an instant event, exported as a Chrome
  /// `args` entry. Intern `key` with name_id(); kNoArg means "absent".
  /// Constructors rather than member initializers, because instant()'s
  /// `= {}` defaults are parsed before this enclosing class is complete.
  struct Arg {
    constexpr Arg() : key(kNoArg), value(0) {}
    constexpr Arg(NameId k, std::uint64_t v) : key(k), value(v) {}
    NameId key;
    std::uint64_t value;
  };

  enum class Phase : std::uint8_t { kComplete, kInstant, kCounter };

  /// One recorded timeline event. An instant carries up to two args; a
  /// counter carries one, its sampled value under the key "value"; a
  /// complete span keeps its duration in value[0] and has no args.
  struct Event {
    Cycle ts;
    std::uint64_t value[2];
    NameId name;
    std::uint16_t track;
    NameId key[2];
    Phase phase;

    Cycle dur() const { return phase == Phase::kComplete ? value[0] : 0; }
    /// The value of the arg named `k`; `fallback` when absent.
    std::uint64_t arg(NameId k, std::uint64_t fallback = 0) const {
      return key[0] == k ? value[0] : key[1] == k ? value[1] : fallback;
    }
  };

  void enable(bool on = true) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Name a track (Chrome "thread"); shown as the row label.
  void set_track(std::uint16_t track, std::string name);

  /// Complete ("X") event spanning [start, end] cycles. No-op when
  /// disabled or when the span is empty.
  void complete(NameId name, std::uint16_t track, Cycle start, Cycle end) {
    if (!enabled_ || end <= start) return;
    events_.push_back(
        Event{start, {end - start, 0}, name, track, {kNoArg, kNoArg}, Phase::kComplete});
  }
  /// Instant ("i") event at `ts` cycles with up to two integer args.
  void instant(NameId name, std::uint16_t track, Cycle ts, Arg a0 = {}, Arg a1 = {}) {
    if (!enabled_) return;
    events_.push_back(
        Event{ts, {a0.value, a1.value}, name, track, {a0.key, a1.key}, Phase::kInstant});
  }
  /// Counter ("C") sample: the named counter track on `track` takes
  /// `value` at `ts`. Perfetto renders these as stepped area charts —
  /// the profiler uses them for pending-prefetch and fan-out series.
  void counter(NameId name, std::uint16_t track, Cycle ts, std::uint64_t value) {
    if (!enabled_) return;
    static const NameId value_key = name_id("value");
    events_.push_back(Event{ts, {value, 0}, name, track, {value_key, kNoArg}, Phase::kCounter});
  }

  /// Recorded timeline events in record order (excludes track-name
  /// metadata). Spans are recorded when they close.
  const std::vector<Event>& events() const { return events_; }
  std::size_t event_count() const { return events_.size(); }

  /// Chrome trace JSON: {"traceEvents": [...]} — metadata first, then
  /// timeline events sorted by start timestamp.
  Json to_json() const;

  /// Serialize to_json() to `path`. Returns false on I/O failure.
  bool write(const std::string& path) const;

  void clear() { events_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<Event> events_;
  std::vector<std::string> track_names_;  ///< indexed by track id; may have gaps
};

}  // namespace mcsim
