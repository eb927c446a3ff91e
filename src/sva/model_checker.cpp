#include "sva/model_checker.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "isa/interp.hpp"

namespace mcsim {
namespace sva {

const char* to_string(CheckViolation::Kind k) {
  switch (k) {
    case CheckViolation::Kind::kReplayMismatch: return "replay-mismatch";
    case CheckViolation::Kind::kDelayArc: return "delay-arc";
    case CheckViolation::Kind::kReadValue: return "read-value";
  }
  return "?";
}

std::string CheckResult::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i != 0) os << '\n';
    os << "[" << to_string(violations[i].kind) << "] P" << violations[i].proc
       << " seq=" << violations[i].seq << ": " << violations[i].detail;
  }
  return os.str();
}

AccessClasses classes_of(AccessKind kind, SyncKind sync) {
  switch (kind) {
    case AccessKind::kLoad:
      return {{sync == SyncKind::kAcquire ? AccessClass::kAcquire : AccessClass::kLoad}, 1};
    case AccessKind::kStore:
      return {{sync == SyncKind::kRelease ? AccessClass::kRelease : AccessClass::kStore}, 1};
    case AccessKind::kRmw: {
      // An RMW is a read and a write performing atomically: its read
      // side is an acquire when so flavored, its write side a release
      // when so flavored (plain otherwise).
      AccessClass rd = sync == SyncKind::kAcquire ? AccessClass::kAcquire : AccessClass::kLoad;
      AccessClass wr = sync == SyncKind::kRelease ? AccessClass::kRelease : AccessClass::kStore;
      return {{rd, wr}, 2};
    }
  }
  return {{AccessClass::kLoad}, 1};
}

namespace {

struct Checker {
  ConsistencyModel model;
  const std::vector<Program>& programs;
  const std::vector<std::vector<AccessRecord>>& logs;
  std::size_t max_violations;
  CheckResult out;

  /// Write value of each record (store value, or the RMW's new value
  /// reconstructed by the replay), processor by processor: processor
  /// p's record i is at p's base plus i. Loads unused.
  std::vector<Word> write_values;
  bool replay_ok = true;
  /// check_reads' per-read scratch, reused: the values a read may return.
  std::vector<Word> candidates;

  bool full() const { return out.violations.size() >= max_violations; }

  void flag(CheckViolation::Kind kind, ProcId p, std::uint64_t seq, std::string detail) {
    if (full()) return;
    out.violations.push_back({kind, p, seq, std::move(detail)});
  }

  // ---- 1. uniprocessor replay ---------------------------------------
  //
  // Step the program through the ISA's semantics (isa/interp's
  // execute(), which the interpreter and the SC enumerator share)
  // against a port that takes every load/RMW-read value from the log.
  // Any divergence — wrong address, wrong kind, wrong store value, an
  // access the program cannot produce — is a core/LSU bug, and it also
  // voids the RMW write values the reads-from check needs, so a failed
  // replay skips that check.
  struct LogPort {
    Checker& c;
    ProcId p;
    const std::vector<AccessRecord>& log;
    Word* write_values;  ///< p's slice of Checker::write_values
    std::size_t pc = 0;
    std::size_t li = 0;  ///< next unconsumed log record
    bool failed = false;

    void mismatch(const std::string& what) {
      c.flag(CheckViolation::Kind::kReplayMismatch, p, li < log.size() ? log[li].seq : li,
             what + " at pc=" + std::to_string(pc));
      c.replay_ok = false;
      failed = true;
    }
    /// The record `inst` must match next, or null after a mismatch.
    const AccessRecord* next(const Instruction& inst, AccessKind kind, const char* what,
                             Addr ea) {
      if (li >= log.size()) {
        mismatch(std::string(what) + " has no log record");
        return nullptr;
      }
      const AccessRecord& r = log[li];
      if (r.kind != kind || r.addr != ea || r.sync != inst.sync) {
        mismatch(std::string(what) + " record disagrees (addr/kind/sync)");
        return nullptr;
      }
      return &r;
    }
    Word load(const Instruction& inst, Addr ea) {
      const AccessRecord* r = next(inst, AccessKind::kLoad, "load", ea);
      if (r == nullptr) return 0;
      ++li;
      return r->value;
    }
    void store(const Instruction& inst, Addr ea, Word v) {
      const AccessRecord* r = next(inst, AccessKind::kStore, "store", ea);
      if (r == nullptr) return;
      if (r->value != v)
        return mismatch("store wrote " + std::to_string(r->value) + ", semantics say " +
                        std::to_string(v));
      write_values[li++] = v;
    }
    Word rmw(const Instruction& inst, Addr ea, Word rs1, Word rs2) {
      const AccessRecord* r = next(inst, AccessKind::kRmw, "rmw", ea);
      if (r == nullptr) return 0;
      write_values[li++] = apply_rmw(inst.rmw, r->value, rs1, rs2);
      return r->value;
    }
  };

  void replay(ProcId p, std::size_t base) {
    const Program& prog = programs[p];
    LogPort port{*this, p, logs[p], write_values.data() + base};
    RegFile regs{};
    // Generous budget: every logged access plus slack for ALU/branch
    // instructions (spin loops consume log records, so this bounds).
    std::uint64_t budget = 64 * (port.log.size() + prog.size() + 16);
    while (port.pc < prog.size()) {
      if (budget-- == 0) return port.mismatch("replay did not terminate (budget exhausted)");
      const Instruction& inst = prog.at(port.pc);
      if (inst.op == Opcode::kHalt) {
        if (port.li != port.log.size())
          port.mismatch("program halted with " + std::to_string(port.log.size() - port.li) +
                        " unexplained log records");
        return;
      }
      const std::size_t next_pc = execute(inst, port.pc, regs, port);
      if (port.failed) return;
      port.pc = next_pc;
    }
    if (port.li != port.log.size()) port.mismatch("program ended with unexplained log records");
  }

  // ---- 2. delay arcs -------------------------------------------------
  //
  // For every program-order pair whose Figure-1 classes the model
  // orders, the perform timestamps must be non-decreasing. Pairwise
  // (not just adjacent) because requires_delay() is not transitive:
  // under WC, load -> sync -> load orders both ends to the sync but the
  // two plain loads only through it.
  void check_arcs(ProcId p) {
    const std::vector<AccessRecord>& log = logs[p];
    for (std::size_t j = 1; j < log.size() && !full(); ++j) {
      const AccessClasses cj = classes_of(log[j].kind, log[j].sync);
      for (std::size_t i = 0; i < j && !full(); ++i) {
        const AccessClasses ci = classes_of(log[i].kind, log[i].sync);
        bool required = false;
        for (AccessClass a : ci) {
          for (AccessClass b : cj) required = required || requires_delay(model, a, b);
        }
        ++out.arcs_checked;
        if (required && log[j].performed_at < log[i].performed_at) {
          std::ostringstream os;
          os << to_string(ci.front()) << " pc=" << log[i].pc << " @" << log[i].performed_at
             << " -> " << to_string(cj.front()) << " pc=" << log[j].pc << " @"
             << log[j].performed_at << " ran backwards under " << to_string(model);
          flag(CheckViolation::Kind::kDelayArc, p, log[j].seq, os.str());
        }
      }
    }
  }

  // ---- 3. reads-from -------------------------------------------------

  struct Event {
    Cycle at;
    ProcId proc;
    std::size_t idx;   ///< index into logs[proc]
    std::size_t flat;  ///< index into write_values
  };

  /// Initial memory image: later programs' data inits override (the
  /// Machine applies them in program order at construction).
  Word initial_value(Addr word) const {
    Word v = 0;
    for (const Program& prog : programs) {
      for (const DataInit& d : prog.data())
        if ((d.addr & ~static_cast<Addr>(kWordBytes - 1)) == word) v = d.value;
    }
    return v;
  }

  void candidate(Word v) {
    if (std::find(candidates.begin(), candidates.end(), v) == candidates.end())
      candidates.push_back(v);
  }

  void check_reads() {
    std::vector<Event> events;
    events.reserve(write_values.size());
    for (ProcId p = 0; p < logs.size(); ++p) {
      for (std::size_t i = 0; i < logs[p].size(); ++i)
        events.push_back({logs[p][i].performed_at, p, i, events.size()});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.proc != b.proc) return a.proc < b.proc;
      return a.idx < b.idx;
    });

    for (const Event& e : events) {
      if (full()) return;
      const AccessRecord& r = logs[e.proc][e.idx];
      if (r.kind == AccessKind::kStore) continue;
      ++out.reads_checked;

      // Collect every value the global perform order could justify.
      candidates.clear();
      Cycle best = 0;
      bool have_store = false;
      for (const Event& w : events) {
        const AccessRecord& wr = logs[w.proc][w.idx];
        if (wr.kind == AccessKind::kLoad || wr.addr != r.addr) continue;
        if (w.proc == e.proc && wr.seq == r.seq) continue;  // the RMW itself
        if (w.at < e.at) {
          if (!have_store || w.at > best) best = w.at;
          have_store = true;
        }
      }
      for (const Event& w : events) {
        const AccessRecord& wr = logs[w.proc][w.idx];
        if (wr.kind == AccessKind::kLoad || wr.addr != r.addr) continue;
        if (w.proc == e.proc && wr.seq == r.seq) continue;
        // The latest performed write(s) before the read.
        if (w.at < e.at && have_store && w.at == best) candidate(write_values[w.flat]);
        // Writes performing the same cycle: intra-cycle order is not
        // observable, so either side of the race is legal — except this
        // processor's own program-order-later accesses.
        if (w.at == e.at && !(w.proc == e.proc && wr.seq > r.seq))
          candidate(write_values[w.flat]);
      }
      if (!have_store) candidate(initial_value(r.addr & ~static_cast<Addr>(kWordBytes - 1)));
      // Store-to-load forwarding: a plain program-order-earlier store of
      // this processor may supply the value before it performs globally
      // (the LSU only forwards when the model lets the load perform, so
      // the ordering side is already covered by the arc check).
      if (r.kind == AccessKind::kLoad) {
        const std::vector<AccessRecord>& mylog = logs[e.proc];
        const std::size_t base = e.flat - e.idx;
        for (std::size_t i = e.idx; i-- > 0;) {
          const AccessRecord& wr = mylog[i];
          if (wr.addr != r.addr || wr.kind == AccessKind::kLoad) continue;
          if (wr.kind == AccessKind::kStore && wr.performed_at >= r.performed_at)
            candidate(write_values[base + i]);
          break;  // only the nearest earlier same-address write can forward
        }
      }

      if (std::find(candidates.begin(), candidates.end(), r.value) == candidates.end()) {
        std::sort(candidates.begin(), candidates.end());
        std::ostringstream os;
        os << (r.kind == AccessKind::kRmw ? "rmw read" : "load") << " pc=" << r.pc
           << " addr=0x" << std::hex << r.addr << std::dec << " @" << r.performed_at
           << " returned " << r.value << "; justified values:";
        for (Word v : candidates) os << ' ' << v;
        flag(CheckViolation::Kind::kReadValue, e.proc, r.seq, os.str());
      }
    }
  }
};

}  // namespace

CheckResult check_execution(ConsistencyModel m, const std::vector<Program>& programs,
                            const std::vector<std::vector<AccessRecord>>& logs,
                            std::size_t max_violations) {
  Checker c{m, programs, logs, max_violations, {}, {}, true, {}};
  if (programs.size() != logs.size()) {
    c.flag(CheckViolation::Kind::kReplayMismatch, 0, 0,
           "log has " + std::to_string(logs.size()) + " processors, program set " +
               std::to_string(programs.size()));
    return std::move(c.out);
  }
  std::size_t records = 0;
  for (const std::vector<AccessRecord>& log : logs) records += log.size();
  c.write_values.assign(records, 0);
  std::size_t base = 0;
  for (ProcId p = 0; p < programs.size() && !c.full(); ++p) {
    c.replay(p, base);
    base += logs[p].size();
  }
  for (ProcId p = 0; p < programs.size() && !c.full(); ++p) c.check_arcs(p);
  if (c.replay_ok && !c.full()) c.check_reads();
  return std::move(c.out);
}

}  // namespace sva
}  // namespace mcsim
