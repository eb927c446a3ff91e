// The load/store unit answers Figure 1's delay-arc question — "has every
// earlier access of class X performed?" — from per-class watermarks.
// This randomized cross-check drives one LSU, its cache and a directory
// through random dispatch, issue, completion, retirement and squash
// sequences under all four models, and compares every IssueContext
// with the reference below: the scan of the load queue, store buffer
// and speculative-load buffer that the watermarks replaced.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/cache.hpp"
#include "coherence/directory.hpp"
#include "common/rng.hpp"
#include "cpu/lsu.hpp"

namespace mcsim {
namespace {

std::string show(const IssueContext& c) {
  return std::string("load=") + (c.earlier_load_incomplete ? "1" : "0") +
         " store=" + (c.earlier_store_incomplete ? "1" : "0") +
         " sync=" + (c.earlier_sync_incomplete ? "1" : "0") +
         " acq=" + (c.earlier_acquire_incomplete ? "1" : "0");
}

bool same(const IssueContext& a, const IssueContext& b) {
  return a.earlier_load_incomplete == b.earlier_load_incomplete &&
         a.earlier_store_incomplete == b.earlier_store_incomplete &&
         a.earlier_sync_incomplete == b.earlier_sync_incomplete &&
         a.earlier_acquire_incomplete == b.earlier_acquire_incomplete &&
         a.self_sync == b.self_sync;
}

/// A one-processor machine around a bare LSU. The harness plays the
/// core: it dispatches random memory ops, retires them in order the way
/// the reorder buffer does (releasing stores at its head), and squashes.
class Harness : public LsuHost, public LineEventObserver {
 public:
  Harness(ConsistencyModel model, bool spec, bool prefetch, std::uint64_t seed)
      : rng_(seed) {
    cfg_ = SystemConfig::realistic(1, model);
    cfg_.core.speculative_loads = spec;
    cfg_.core.prefetch = prefetch ? PrefetchMode::kNonBinding : PrefetchMode::kOff;
    cfg_.core.ls_rs_entries = 6;
    cfg_.core.store_buffer_entries = 4;
    cfg_.core.spec_load_buffer_entries = 4;
    cfg_.cache.num_sets = 2;  // six lines in four ways: replacements
    cfg_.cache.ways = 2;
    cfg_.cache.mshrs = 4;
    cfg_.mem.net_latency = 3;
    cfg_.mem.dir_latency = 2;
    cfg_.mem.mem_bytes = 1 << 16;
    net_ = std::make_unique<Network>(2, cfg_.mem.net_latency);
    dir_ = std::make_unique<DirectoryGroup>(1, cfg_.cache, cfg_.mem, *net_);
    cache_ = std::make_unique<CoherentCache>(0, cfg_.cache, cfg_.mem, *net_, 1,
                                             cfg_.core.max_requests());
    lsu_ = std::make_unique<LoadStoreUnit>(0, cfg_, 0, *cache_, *this, nullptr);
    cache_->set_observer(this);
    for (Opcode op : {Opcode::kLoad, Opcode::kStore, Opcode::kRmw}) {
      for (SyncKind k : {SyncKind::kNone, SyncKind::kAcquire, SyncKind::kRelease}) {
        Instruction in;
        in.op = op;
        in.sync = k;
        in.rmw = RmwOp::kFetchAdd;
        templates_.push_back(in);
      }
    }
    fence_.op = Opcode::kFence;
  }

  void run(Cycle cycles) {
    for (now_ = 0; now_ < cycles; ++now_) {
      net_->deliver(now_);
      dir_->tick(now_);
      cache_->tick(now_);
      wake_data();
      lsu_->drain_responses(now_);
      lsu_->retire_spec_entries(now_);
      lsu_->tick_addr_unit(now_);
      commit();
      if (rob_.size() >= 2 && rng_.chance(1, 40)) {
        squash(rob_[1 + rng_.next_below(static_cast<std::uint32_t>(rob_.size() - 1))].seq,
               SquashOrigin::kPipeline);
      }
      for (int n = 0; n < 2 && lsu_->can_dispatch(); ++n) dispatch();
      check();
      lsu_->tick_issue(now_);
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // --- LsuHost --------------------------------------------------------
  void mem_completed(std::uint64_t seq, Word, Cycle) override {
    for (Op& op : rob_) {
      if (op.seq == seq) op.done = true;
    }
  }
  void rmw_spec_value(std::uint64_t, Word, Cycle) override {}
  void request_squash_refetch(std::uint64_t seq, Cycle) override {
    // Seqs between memory ops stand for ALU ops, so any seq up to the
    // newest dispatched one is still in the window.
    if (seq > last_seq_) return;
    ++coherence_squashes;
    squash(seq, SquashOrigin::kCoherence);
  }
  void on_line_event(LineEventKind kind, Addr line, Cycle now) override {
    lsu_->on_line_event(kind, line, now);
  }

  std::uint64_t checks = 0;
  std::uint64_t coherence_squashes = 0;
  std::uint64_t retired = 0;
  /// How often each flag was set, across every check.
  std::uint64_t load_set = 0, store_set = 0, sync_set = 0, acq_set = 0;
  std::uint64_t slb_acq_seen = 0;  ///< checks with an acq non-RMW SLB entry

 private:
  struct Op {
    std::uint64_t seq = 0;
    const Instruction* inst = nullptr;
    bool released = false;
    bool done = false;
  };
  struct DataWake {
    std::uint64_t consumer = 0;
    std::uint64_t producer = 0;
    Cycle at = 0;
  };

  void dispatch() {
    const bool fence = rng_.chance(1, 25);
    const Instruction& in =
        fence ? fence_ : templates_[rng_.next_below(static_cast<std::uint32_t>(templates_.size()))];
    const std::uint64_t seq = last_seq_ + 1 + rng_.next_below(3);
    const Addr addr = 0x1000 + cfg_.cache.line_bytes * rng_.next_below(6) +
                      kWordBytes * rng_.next_below(2);
    Operand data = Operand::immediate(static_cast<Word>(seq));
    if ((in.is_store() || in.is_rmw()) && rng_.chance(1, 4)) {
      // The store's value comes from an ALU op just before it.
      data = Operand::tagged(seq - 1);
      wakes_.push_back(DataWake{seq, seq - 1, now_ + 1 + rng_.next_below(8)});
    }
    lsu_->dispatch(seq, 0, in, Operand::immediate(addr), Operand::immediate(0), data,
                   Operand::immediate(0));
    rob_.push_back(Op{seq, &in});
    sync_of_[seq] = in.sync;
    last_seq_ = seq;
  }

  void wake_data() {
    for (std::size_t i = 0; i < wakes_.size();) {
      if (wakes_[i].at > now_) {
        ++i;
        continue;
      }
      lsu_->wake_operand(wakes_[i].consumer, LoadStoreUnit::kData, wakes_[i].producer, 7);
      wakes_[i] = wakes_.back();
      wakes_.pop_back();
    }
  }

  /// In-order retirement, as Core::do_commit does it.
  void commit() {
    for (int n = 0; n < 2 && !rob_.empty(); ++n) {
      Op& h = rob_.front();
      const Instruction& in = *h.inst;
      if (in.is_fence()) {
        if (!h.done) return;
      } else if (in.is_load()) {
        if (!h.done || !lsu_->load_retirable(h.seq)) return;
      } else {
        if (!h.released) {
          if (!lsu_->store_in_buffer(h.seq)) return;
          lsu_->release_store(h.seq, now_);
          h.released = true;
        }
        if (in.is_rmw()) {
          if (!h.done || !lsu_->load_retirable(h.seq)) return;
        } else if (cfg_.model == ConsistencyModel::kSC && !h.done) {
          return;
        }
      }
      rob_.pop_front();
      ++retired;
    }
  }

  void squash(std::uint64_t seq, SquashOrigin origin) {
    while (!rob_.empty() && rob_.back().seq >= seq) rob_.pop_back();
    for (std::size_t i = 0; i < wakes_.size();) {
      if (wakes_[i].consumer >= seq) {
        wakes_[i] = wakes_.back();
        wakes_.pop_back();
      } else {
        ++i;
      }
    }
    lsu_->squash_from(seq, origin);
  }

  /// The scan the watermarks replaced, over the LSU's visible state.
  IssueContext reference(const Json& snap, std::uint64_t seq, SyncKind self_sync) const {
    IssueContext ctx;
    ctx.self_sync = self_sync;
    for (const Json& e : snap["load_queue"].items()) {
      const std::uint64_t s = e["seq"].as_uint();
      if (s >= seq) continue;
      ctx.earlier_load_incomplete = true;
      const SyncKind k = sync_of_.at(s);
      if (k != SyncKind::kNone) ctx.earlier_sync_incomplete = true;
      if (k == SyncKind::kAcquire) ctx.earlier_acquire_incomplete = true;
    }
    for (const Json& e : snap["store_buffer"].items()) {
      const std::uint64_t s = e["seq"].as_uint();
      if (s >= seq) continue;
      ctx.earlier_store_incomplete = true;
      if (e["rmw"].as_bool()) ctx.earlier_load_incomplete = true;
      const SyncKind k = sync_of_.at(s);
      if (k != SyncKind::kNone) ctx.earlier_sync_incomplete = true;
      if (k == SyncKind::kAcquire) ctx.earlier_acquire_incomplete = true;
    }
    lsu_->spec_buffer().for_each([&](const SpecLoadBuffer::Entry& e) {
      if (e.seq >= seq || e.is_rmw_read || !e.acq) return;
      ctx.earlier_sync_incomplete = true;
      ctx.earlier_acquire_incomplete = true;
    });
    return ctx;
  }

  void check() {
    const Json snap = lsu_->snapshot_json();
    bool slb_acq = false;
    lsu_->spec_buffer().for_each([&](const SpecLoadBuffer::Entry& e) {
      if (e.acq && !e.is_rmw_read) slb_acq = true;
    });
    if (slb_acq) ++slb_acq_seen;
    // Every seq from well before the oldest entry to one past the newest.
    const std::uint64_t from = last_seq_ > 40 ? last_seq_ - 40 : 0;
    for (std::uint64_t seq = from; seq <= last_seq_ + 1; ++seq) {
      const auto it = sync_of_.find(seq);
      const SyncKind self = it == sync_of_.end() ? SyncKind::kNone : it->second;
      const IssueContext want = reference(snap, seq, self);
      const IssueContext got = lsu_->context_for(seq, self);
      ASSERT_TRUE(same(got, want)) << "cycle " << now_ << " seq " << seq << ": got "
                                   << show(got) << ", scan says " << show(want)
                                   << "\nlsu: " << snap.dump();
      ++checks;
      load_set += got.earlier_load_incomplete;
      store_set += got.earlier_store_incomplete;
      sync_set += got.earlier_sync_incomplete;
      acq_set += got.earlier_acquire_incomplete;
    }
  }

  SystemConfig cfg_;
  Pcg32 rng_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<DirectoryGroup> dir_;
  std::unique_ptr<CoherentCache> cache_;
  std::unique_ptr<LoadStoreUnit> lsu_;
  std::vector<Instruction> templates_;
  Instruction fence_;
  std::deque<Op> rob_;
  std::vector<DataWake> wakes_;
  std::unordered_map<std::uint64_t, SyncKind> sync_of_;
  std::uint64_t last_seq_ = 0;
  Cycle now_ = 0;
};

TEST(LsuWatermarks, IssueContextMatchesTheQueueScan) {
  for (ConsistencyModel model : {ConsistencyModel::kSC, ConsistencyModel::kPC,
                                 ConsistencyModel::kWC, ConsistencyModel::kRC}) {
    std::uint64_t coherence_squashes = 0, slb_acq_seen = 0;
    for (bool spec : {false, true}) {
      for (bool prefetch : {false, true}) {
        for (std::uint64_t seed : {1u, 2u}) {
          const std::string what = std::string(to_string(model)) + (spec ? " spec" : "") +
                                   (prefetch ? " pf" : "") + " seed " + std::to_string(seed);
          Harness h(model, spec, prefetch, seed);
          h.run(1000);
          if (::testing::Test::HasFatalFailure()) {
            ADD_FAILURE() << what;
            return;
          }
          EXPECT_GT(h.retired, 200u) << what;
          EXPECT_GT(h.load_set, 0u) << what;
          EXPECT_GT(h.store_set, 0u) << what;
          EXPECT_GT(h.sync_set, 0u) << what;
          EXPECT_GT(h.acq_set, 0u) << what;
          EXPECT_LT(h.acq_set, h.checks) << what;
          coherence_squashes += h.coherence_squashes;
          slb_acq_seen += h.slb_acq_seen;
        }
      }
    }
    // Replacements in the tiny cache roll speculation back, and the
    // speculative-load buffer holds acq entries, under every model.
    EXPECT_GT(coherence_squashes, 0u) << to_string(model);
    EXPECT_GT(slb_acq_seen, 0u) << to_string(model);
  }
}

}  // namespace
}  // namespace mcsim
