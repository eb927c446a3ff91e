// Named statistic counters with a registry for report generation.
//
// Names are interned process-wide into small-integer StatId handles
// (StatNames::intern). Components resolve their counter names ONCE, at
// static init, so a run interns none, and the per-event hot path
// (StatSet::add(StatId)) is a plain vector increment: no std::string
// construction, no tree/hash lookup per simulated event. The
// string-keyed API remains for cold callers (tests, reports); it
// interns on every call.
#pragma once

#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"

namespace mcsim {

/// Interned statistic name: a process-wide dense integer.
class StatId {
 public:
  StatId() = default;
  std::uint32_t value() const { return v_; }
  bool valid() const { return v_ != kInvalid; }
  bool operator==(const StatId& o) const { return v_ == o.v_; }

 private:
  friend class StatNames;
  friend class StatSet;
  explicit StatId(std::uint32_t v) : v_(v) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t v_ = kInvalid;
};

/// Process-global intern table. Thread-safe; only cold paths touch it
/// (interning a new name, resolving an id back for a report).
class StatNames {
 public:
  static StatId intern(std::string_view name);
  static std::string name(StatId id);
  /// Number of distinct names interned so far (ids are 0..count()-1).
  static std::size_t count();
};

/// A flat bag of named 64-bit counters plus scalar samples.
///
/// Components own a StatSet each; Machine aggregates them into the
/// experiment reports the benches print (DESIGN.md §3). Storage is
/// indexed by StatId, so distinct StatSets (one per core/cache/...,
/// one simulated machine per worker thread) never contend.
class StatSet {
 public:
  /// Counters for every name interned so far (components intern at
  /// static init, well before any StatSet exists), so the steady-state
  /// add(StatId) below never takes the resize branch, and histograms for
  /// the `sampled` distinct ids the owner samples on every run, from
  /// `arena`. Histograms are kept only for the ids actually sampled.
  explicit StatSet(std::string prefix, std::size_t sampled = 0,
                   std::pmr::memory_resource* arena = std::pmr::get_default_resource())
      : prefix_(std::move(prefix)), counters_(StatNames::count(), arena), samples_(arena) {
    samples_.reserve(sampled);
  }

  // --- hot path: pre-interned handles --------------------------------
  void add(StatId id, std::uint64_t delta = 1) {
    Counter& c = counter_slot(id);
    c.value += delta;
    if (!c.touched) {
      c.touched = true;
      ++touched_;
    }
  }
  std::uint64_t get(StatId id) const {
    return id.value() < counters_.size() ? counters_[id.value()].value : 0;
  }

  /// Record one latency observation into a log2-bucketed histogram
  /// (exact mean/count/max plus p50/p90/p99 estimates).
  void sample(StatId id, std::uint64_t value);
  /// The full histogram behind a sampled id; nullptr if never sampled.
  const LogHistogram* histogram(StatId id) const;

  // --- cold path: string keys (interned per call) --------------------
  void add(const std::string& name, std::uint64_t delta = 1) {
    add(StatNames::intern(name), delta);
  }
  std::uint64_t get(const std::string& name) const { return get(StatNames::intern(name)); }
  void sample(const std::string& name, std::uint64_t value) {
    sample(StatNames::intern(name), value);
  }
  const LogHistogram* histogram(const std::string& name) const {
    return histogram(StatNames::intern(name));
  }

  const std::string& prefix() const { return prefix_; }

  /// Touched counters as a name-sorted map (report-building; cold).
  std::map<std::string, std::uint64_t> counters() const;

  /// Human-readable dump, one "prefix.name value" line per counter.
  std::string report() const;

  void clear() {
    counters_.assign(counters_.size(), Counter{});  // keep the pre-sizing
    touched_ = 0;
    touched_ids_.clear();
    samples_.clear();
  }

  /// Visit every touched counter (in id order) and every histogram for a PeriodWalk.
  template <typename Walk>
  void walk(Walk& w) {
    if (touched_ids_.size() != touched_) {
      // Only here, so that add() never allocates.
      touched_ids_.clear();
      for (std::uint32_t i = 0; i < counters_.size(); ++i)
        if (counters_[i].touched) touched_ids_.push_back(i);
    }
    w.plain(touched_ids_.size());
    for (std::uint32_t i : touched_ids_) {
      w.plain(i);
      w.counter(counters_[i].value);
    }
    w.plain(samples_.size());
    for (Sampled& s : samples_) {
      w.plain(s.id);
      s.hist.walk(w);
    }
  }

  /// Allocated counter slots (pre-sizing introspection for tests/benches).
  std::size_t counter_slots() const { return counters_.size(); }

 private:
  struct Counter {
    std::uint64_t value = 0;
    bool touched = false;  ///< add seen; untouched slots stay out of reports
  };

  Counter& counter_slot(StatId id) {
    // Growth branch kept only for names interned AFTER this set was
    // constructed (string-keyed one-offs); pre-interned ids never hit it.
    while (id.value() >= counters_.size()) counters_.emplace_back();
    return counters_[id.value()];
  }
  /// One sampled id's histogram. A set samples a handful of ids, so a
  /// short list beats a table indexed by id (288 bytes per slot).
  struct Sampled {
    std::uint32_t id;
    LogHistogram hist;
  };
  LogHistogram& sample_slot(StatId id) {
    for (Sampled& s : samples_) {
      if (s.id == id.value()) return s.hist;
    }
    return samples_.emplace_back(Sampled{id.value(), {}}).hist;
  }

  std::string prefix_;
  std::pmr::vector<Counter> counters_;  ///< indexed by StatId
  std::size_t touched_ = 0;        ///< counters add has touched
  std::vector<std::uint32_t> touched_ids_;  ///< ascending; rebuilt when touched_ moves
  std::pmr::vector<Sampled> samples_;   ///< in first-sample order; every count > 0
};

}  // namespace mcsim
