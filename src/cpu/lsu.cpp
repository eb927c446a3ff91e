#include "cpu/lsu.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <sstream>

#include "common/profile.hpp"

namespace mcsim {

namespace {
// Stat names interned once at static-init; hot paths use the ids.
namespace stat {
const StatId load_forwarded = StatNames::intern("load_forwarded");
const StatId load_latency = StatNames::intern("load_latency");
const StatId load_reissued = StatNames::intern("load_reissued");
const StatId spec_entries = StatNames::intern("spec_entries");
const StatId spec_reissue = StatNames::intern("spec_reissue");
const StatId spec_retired = StatNames::intern("spec_retired");
const StatId spec_squash = StatNames::intern("spec_squash");
const StatId spec_squash_after_rmw = StatNames::intern("spec_squash_after_rmw");
const StatId spec_squash_rmw = StatNames::intern("spec_squash_rmw");
const StatId store_latency = StatNames::intern("store_latency");
const StatId store_release_latency = StatNames::intern("store_release_latency");
}  // namespace stat

// Trace-event and arg names likewise intern once; call sites pass
// integers so a disabled sink costs one branch.
namespace ev {
const TraceEventSink::NameId load = TraceEventSink::name_id("load");
const TraceEventSink::NameId rmw_read = TraceEventSink::name_id("rmw-read");
const TraceEventSink::NameId store = TraceEventSink::name_id("store");
const TraceEventSink::NameId rmw = TraceEventSink::name_id("rmw");
// Figure-5 pipeline events, instants on the core's track.
const TraceEventSink::NameId sb_release = TraceEventSink::name_id("sb-release");
const TraceEventSink::NameId sb_issue = TraceEventSink::name_id("sb-issue");
const TraceEventSink::NameId lq_issue = TraceEventSink::name_id("lq-issue");
const TraceEventSink::NameId lq_reissue = TraceEventSink::name_id("lq-reissue");
const TraceEventSink::NameId slb_insert = TraceEventSink::name_id("slb-insert");
const TraceEventSink::NameId slb_retired = TraceEventSink::name_id("slb-retired");
const TraceEventSink::NameId slb_reissue = TraceEventSink::name_id("slb-reissue");
/// One per LineEventKind, in enum order.
const std::array<TraceEventSink::NameId, 3> line_event = {
    TraceEventSink::name_id("line:invalidate"), TraceEventSink::name_id("line:update"),
    TraceEventSink::name_id("line:replacement")};
}  // namespace ev

namespace arg {
const TraceEventSink::NameId seq = TraceEventSink::name_id("seq");
const TraceEventSink::NameId addr = TraceEventSink::name_id("addr");
const TraceEventSink::NameId line = TraceEventSink::name_id("line");
const TraceEventSink::NameId count = TraceEventSink::name_id("count");
}  // namespace arg
}  // namespace

LoadStoreUnit::LoadStoreUnit(ProcId id, const SystemConfig& cfg, std::size_t program_size,
                             CoherentCache& cache, LsuHost& host, TraceEventSink* events,
                             std::pmr::memory_resource* arena)
    : id_(id),
      cfg_(cfg),
      cache_(cache),
      host_(host),
      events_(events),
      ls_rs_(cfg.core.ls_rs_entries, arena),
      load_q_(cfg.core.ls_rs_entries, arena),
      store_buf_(cfg.core.store_buffer_entries, arena),
      spec_buffer_(cfg.core.spec_load_buffer_entries, arena),
      prefetch_(cfg.core.prefetch, cfg.mem.coherence, cfg.core.prefetch_buffer_entries, arena),
      sync_(cfg.core.ls_rs_entries + cfg.core.store_buffer_entries, arena),
      acquires_(cfg.core.ls_rs_entries + cfg.core.store_buffer_entries, arena),
      rmws_(cfg.core.store_buffer_entries, arena),
      slb_acquires_(cfg.core.spec_load_buffer_entries, arena),
      local_completions_(cfg.core.ls_rs_entries, arena),
      records_(arena),
      // load_latency, store_latency, store_release_latency; rb_wasted
      // when profiling.
      stats_("lsu" + std::to_string(id), cfg.profile ? 4 : 3, arena) {
  if (cfg.record_accesses) records_.reserve(program_size);
}

void LoadStoreUnit::SeqFifo::erase(std::uint64_t seq) {
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (q_.at(i) == seq) {
      q_.erase_at(i);
      return;
    }
  }
  assert(false && "erased seq is not in its class");
}

void LoadStoreUnit::dispatch(std::uint64_t seq, std::size_t pc, const Instruction& inst,
                             Operand base, Operand index, Operand data, Operand cmp) {
  assert(can_dispatch());
  ls_rs_.push(RsEntry{seq, pc, &inst, base, index, data, cmp});
  note_progress();
}

void LoadStoreUnit::wake_operand(std::uint64_t seq, OperandSlot slot, std::uint64_t producer,
                                 Word value) {
  for (std::size_t i = 0; i < ls_rs_.size(); ++i) {
    RsEntry& e = ls_rs_.at(i);
    if (e.seq != seq) continue;
    Operand* ops[] = {&e.base, &e.index, &e.data, &e.cmp};
    ops[slot]->wake(producer, value);
    return;
  }
  // Past the station only a store/RMW keeps operands: its data and compare.
  if (slot != kData && slot != kCmp) return;
  StoreEntry* s = find_store(seq);
  if (s != nullptr) (slot == kData ? s->data : s->cmp).wake(producer, value);
}

void LoadStoreUnit::release_store(std::uint64_t seq, Cycle now) {
  StoreEntry* s = find_store(seq);
  assert(s != nullptr && "released store must have its address translated");
  s->released = true;
  s->released_at = now;
  note_progress();
  instant(ev::sb_release, now, {arg::seq, seq});
}

bool LoadStoreUnit::store_in_buffer(std::uint64_t seq) const {
  return find_store(seq) != nullptr;
}

bool LoadStoreUnit::load_retirable(std::uint64_t seq) const {
  return spec_buffer_.find(seq) == nullptr;
}

std::size_t LoadStoreUnit::load_index(std::uint64_t seq) const {
  std::size_t i = 0;
  while (i < load_q_.size() && load_q_.at(i).seq != seq) ++i;
  return i;
}

std::size_t LoadStoreUnit::store_index(std::uint64_t seq) const {
  std::size_t i = 0;
  while (i < store_buf_.size() && store_buf_.at(i).seq != seq) ++i;
  return i;
}

LoadStoreUnit::LoadEntry* LoadStoreUnit::find_load(std::uint64_t seq) {
  const std::size_t i = load_index(seq);
  return i == load_q_.size() ? nullptr : &load_q_.at(i);
}

const LoadStoreUnit::LoadEntry* LoadStoreUnit::find_load(std::uint64_t seq) const {
  const std::size_t i = load_index(seq);
  return i == load_q_.size() ? nullptr : &load_q_.at(i);
}

LoadStoreUnit::StoreEntry* LoadStoreUnit::find_store(std::uint64_t seq) {
  const std::size_t i = store_index(seq);
  return i == store_buf_.size() ? nullptr : &store_buf_.at(i);
}

const LoadStoreUnit::StoreEntry* LoadStoreUnit::find_store(std::uint64_t seq) const {
  const std::size_t i = store_index(seq);
  return i == store_buf_.size() ? nullptr : &store_buf_.at(i);
}

void LoadStoreUnit::push_load(const LoadEntry& e) {
  assert((load_q_.empty() || load_q_.back().seq < e.seq) && "load queue fills in seq order");
  load_q_.push(e);
  if (e.sync != SyncKind::kNone) sync_.push(e.seq);
  if (e.sync == SyncKind::kAcquire) acquires_.push(e.seq);
}

void LoadStoreUnit::push_store(const StoreEntry& e) {
  assert((store_buf_.empty() || store_buf_.back().seq < e.seq) &&
         "store buffer fills in seq order");
  store_buf_.push(e);
  if (e.sync != SyncKind::kNone) sync_.push(e.seq);
  if (e.sync == SyncKind::kAcquire) acquires_.push(e.seq);
  if (e.is_rmw) rmws_.push(e.seq);
}

void LoadStoreUnit::erase_load_at(std::size_t i) {
  const LoadEntry& e = load_q_.at(i);
  if (e.sync != SyncKind::kNone) sync_.erase(e.seq);
  if (e.sync == SyncKind::kAcquire) acquires_.erase(e.seq);
  load_q_.erase_at(i);
}

void LoadStoreUnit::erase_store_at(std::size_t i) {
  const StoreEntry& e = store_buf_.at(i);
  if (e.sync != SyncKind::kNone) sync_.erase(e.seq);
  if (e.sync == SyncKind::kAcquire) acquires_.erase(e.seq);
  if (e.is_rmw) rmws_.erase(e.seq);
  store_buf_.erase_at(i);
}

void LoadStoreUnit::withdraw(LoadEntry& ld) {
  if (ld.token == 0) return;
  cache_.cancel(ld.addr, ld.token);
  ld.token = 0;
}

void LoadStoreUnit::tick_addr_unit(Cycle now) {
  if (ls_rs_.empty()) return;
  RsEntry& head = ls_rs_.front();
  const Instruction& inst = *head.inst;

  if (inst.is_fence()) {
    // Full fence: completes only when every earlier access has
    // performed. Nothing behind it can reach the address unit, so the
    // two queues contain exactly the earlier accesses.
    if (load_q_.empty() && store_buf_.empty()) {
      host_.mem_completed(head.seq, 0, now);
      ls_rs_.pop();
      note_progress();
    }
    return;
  }

  if (!head.addr_operands_ready()) return;
  const Addr ea = static_cast<Addr>(head.base.value) +
                  (static_cast<Addr>(head.index.value) << inst.mem.scale_log2) +
                  static_cast<Addr>(inst.mem.disp);

  if (inst.is_sw_prefetch()) {
    bool exclusive = inst.op == Opcode::kPrefetchEx;
    if (prefetch_.offer_software(cache_.line_of(ea), exclusive, stats_)) {
      host_.mem_completed(head.seq, 0, now);
      ls_rs_.pop();
      note_progress();
    }
    return;
  }

  if (inst.is_load()) {
    if (load_q_.size() >= cfg_.core.ls_rs_entries) return;  // structural stall
    LoadEntry e;
    e.seq = head.seq;
    e.pc = head.pc;
    e.sync = inst.sync;
    e.addr = ea;
    e.ready_at = now;
    push_load(e);
    ls_rs_.pop();
    note_progress();
    return;
  }

  // Store or RMW.
  if (store_buf_.size() >= cfg_.core.store_buffer_entries) return;
  const bool rmw_split = inst.is_rmw() && cfg_.core.speculative_loads &&
                         cfg_.mem.coherence == CoherenceKind::kInvalidation;
  // The Appendix-A split is mandatory once speculation is on: the
  // read-exclusive's speculative-load-buffer entry is what makes later
  // speculative loads wait (FIFO) for this acquire. Stall rather than
  // silently skip it.
  if (rmw_split && load_q_.size() >= cfg_.core.ls_rs_entries) return;
  StoreEntry s;
  s.seq = head.seq;
  s.pc = head.pc;
  s.inst = head.inst;
  s.addr = ea;
  s.data = head.data;
  s.cmp = head.cmp;
  s.sync = inst.sync;
  s.is_rmw = inst.is_rmw();
  s.ready_at = now;
  push_store(s);
  if (rmw_split) {
    // Appendix A: split the RMW into a speculative read-exclusive load
    // plus the buffered atomic operation.
    LoadEntry le;
    le.seq = head.seq;
    le.pc = head.pc;
    le.sync = inst.sync;
    le.addr = ea;
    le.is_rmw_read = true;
    le.ready_at = now;
    push_load(le);
  }
  ls_rs_.pop();
  note_progress();
}

IssueContext LoadStoreUnit::context_for(std::uint64_t seq, SyncKind self_sync) const {
  IssueContext ctx;
  ctx.self_sync = self_sync;
  ctx.earlier_load_incomplete = load_before(seq) || rmws_.any_before(seq);  // an RMW reads too
  ctx.earlier_store_incomplete = store_before(seq);
  // A speculative sync load leaves the load queue when its value binds,
  // but it has not *performed* until its buffer entry retires — that
  // retirement is its serialization point. While the entry lingers
  // (store tag pending, or vetoed behind earlier plain accesses), later
  // accesses must still treat the sync as incomplete. Entries carry
  // `acq` only for genuine sync loads under WC/RC; SC/PC set it on
  // every load but their gates never read the sync flags. RMW read
  // entries are not counted: the RMW still occupies the store buffer,
  // which sync_ and acquires_ already count with its true sync kind.
  const bool slb_acquire = slb_acquires_.any_before(seq);
  ctx.earlier_sync_incomplete = sync_.any_before(seq) || slb_acquire;
  ctx.earlier_acquire_incomplete = acquires_.any_before(seq) || slb_acquire;
  return ctx;
}

LoadStoreUnit::StoreEntry* LoadStoreUnit::forwarding_source(const LoadEntry& ld,
                                                            bool& blocked) {
  blocked = false;
  for (std::size_t i = store_buf_.size(); i-- > 0;) {
    StoreEntry& st = store_buf_.at(i);
    if (st.seq >= ld.seq) continue;
    if (st.addr != ld.addr) continue;
    if (st.is_rmw || !st.data.ready) {
      blocked = true;  // value unknown until the RMW performs / data arrives
      return nullptr;
    }
    return &st;
  }
  return nullptr;
}

void LoadStoreUnit::insert_spec_entry(const LoadEntry& ld, Cycle now) {
  SpecLoadBuffer::Entry e;
  e.seq = ld.seq;
  e.addr = ld.addr;
  e.line = cache_.line_of(ld.addr);
  e.is_rmw_read = ld.is_rmw_read;
  if (ld.is_rmw_read) {
    e.acq = true;
    e.store_tag = ld.seq;  // gated by its own buffered RMW (Appendix A)
  } else {
    e.acq = spec_load_treated_as_acquire(cfg_.model, ld.sync);
    switch (spec_load_store_tag_rule(cfg_.model)) {
      case StoreTagRule::kNone:
        break;
      case StoreTagRule::kAnyStore:
        for (std::size_t i = store_buf_.size(); i-- > 0;) {
          const StoreEntry& st = store_buf_.at(i);
          if (st.seq < ld.seq) {
            e.store_tag = st.seq;
            break;
          }
        }
        break;
      case StoreTagRule::kSyncStore:
        for (std::size_t i = store_buf_.size(); i-- > 0;) {
          const StoreEntry& st = store_buf_.at(i);
          if (st.seq < ld.seq && st.sync != SyncKind::kNone) {
            e.store_tag = st.seq;
            break;
          }
        }
        break;
    }
    // An earlier incomplete RMW whose *read* side gates this load must
    // also hold the entry: under PC every RMW (load->load order),
    // under RC an acquire RMW. With the invalidation protocol the
    // RMW's own read-exclusive entry sits ahead in the FIFO and covers
    // this; under the update protocol there is no such entry, so the
    // store tag must carry the dependence. (RMWs that gate this way
    // issue serially under both models, so the newest one suffices.)
    if (e.store_tag == SpecLoadBuffer::kNoTag) {
      const bool gate_any_rmw = cfg_.model == ConsistencyModel::kPC;
      const bool gate_acq_rmw = cfg_.model == ConsistencyModel::kRC;
      if (gate_any_rmw || gate_acq_rmw) {
        for (std::size_t i = store_buf_.size(); i-- > 0;) {
          const StoreEntry& st = store_buf_.at(i);
          if (st.seq >= ld.seq || !st.is_rmw) continue;
          if (gate_any_rmw || st.sync == SyncKind::kAcquire) {
            e.store_tag = st.seq;
            break;
          }
        }
      }
    }
  }
  spec_buffer_.insert(e);
  if (e.acq && !e.is_rmw_read) slb_acquires_.push(e.seq);
  stats_.add(stat::spec_entries);
  instant(ev::slb_insert, now, {arg::seq, e.seq}, {arg::addr, e.addr});
}

void LoadStoreUnit::issue_load(LoadEntry& ld, Cycle now) {
  const bool spec_mode = cfg_.core.speculative_loads;
  if (!ld.is_rmw_read && !ld.reissue) {
    bool blocked = false;
    StoreEntry* src = forwarding_source(ld, blocked);
    if (blocked) return;  // wait for the matching store's value
    if (src != nullptr) {
      // Store-to-load forwarding binds the load to our own store's
      // value with NO coherence detection possible (the line need not
      // even be cached), so it is only sound when the consistency
      // model already allows the load to perform — never as a
      // speculation. Otherwise the load waits: either the gate opens,
      // or the store performs and the load re-checks via the cache.
      if (spec_mode && !load_may_issue(cfg_.model, context_for(ld.seq, ld.sync))) return;
      local_completions_.push(LocalCompletion{ld.seq, src->data.value, now + 1});
      ld.issued = true;
      stats_.add(stat::load_forwarded);
      note_progress();
      return;
    }
  }
  if (!cache_.port_free(now)) return;
  const bool needs_entry = spec_mode && !ld.reissue;
  if (needs_entry && spec_buffer_.full()) return;
  CacheRequest req;
  req.op = ld.is_rmw_read ? CacheOp::kLoadEx : CacheOp::kLoad;
  req.addr = ld.addr;
  req.token = next_token_++;
  ProbeResult r = cache_.probe(req, now);
  if (r == ProbeResult::kRejected) {
    --next_token_;
    return;  // retry next cycle
  }
  ld.token = req.token;
  if (ld.is_rmw_read) {
    if (StoreEntry* st = find_store(ld.seq)) st->spec_read_issued = true;
  }
  note_progress();
  const bool was_reissue = ld.reissue;
  ld.issued = true;
  ld.reissue = false;
  if (needs_entry) insert_spec_entry(ld, now);
  if (spec_mode && !ld.is_rmw_read &&
      load_may_issue(cfg_.model, context_for(ld.seq, ld.sync))) {
    // The issue gate is already open, so this (re)issue performs at a
    // point the model permits — the load is not speculative and its
    // return value binds unconditionally, like a conventional blocking
    // load's. This is also the forward-progress guarantee: the oldest
    // load's fill can no longer be discarded by a concurrent
    // invalidation of a hot line (which otherwise reissues it forever).
    spec_buffer_.mark_nonspec(ld.seq);
  }
  if (was_reissue) stats_.add(stat::load_reissued);
  instant(was_reissue ? ev::lq_reissue : ev::lq_issue, now, {arg::seq, ld.seq},
          {arg::addr, ld.addr});
}

void LoadStoreUnit::issue_store(StoreEntry& st, Cycle now) {
  CacheRequest req;
  req.addr = st.addr;
  req.token = next_token_;
  if (st.is_rmw) {
    req.op = CacheOp::kRmw;
    req.rmw_op = st.inst->rmw;
    req.rmw_cmp = st.cmp.value;
    req.rmw_src = st.data.value;
  } else {
    req.op = CacheOp::kStore;
    req.store_value = st.data.value;
  }
  // An RMW whose Appendix-A speculative read-exclusive is still
  // outstanding combines with it in the MSHR ("so that a duplicate
  // request is not sent out", §3.2) — no tag-array port needed.
  bool merged_free = false;
  if (st.is_rmw && st.spec_read_issued && cache_.mshr_active(st.addr)) {
    merged_free = cache_.merge_into_mshr(req);
  }
  if (!merged_free) {
    if (!cache_.port_free(now)) return;
    ProbeResult r = cache_.probe(req, now);
    if (r == ProbeResult::kRejected) return;
  }
  ++next_token_;
  st.token = req.token;
  st.issued = true;
  note_progress();
  instant(ev::sb_issue, now, {arg::seq, st.seq}, {arg::addr, st.addr});
}

void LoadStoreUnit::offer_prefetches(Cycle now) {
  (void)now;
  const bool rmw_split =
      cfg_.core.speculative_loads && cfg_.mem.coherence == CoherenceKind::kInvalidation;
  const bool spec_mode = cfg_.core.speculative_loads;
  if (!prefetch_.enabled()) return;
  // §3.2: prefetches are generated only for accesses that are being
  // *delayed* — an access the model already allows will issue on its
  // own and a prefetch for it would only burn the cache port.
  if (!spec_mode) {
    for (std::size_t i = 0; i < load_q_.size(); ++i) {
      LoadEntry& e = load_q_.at(i);
      if (e.issued || e.offered || e.is_rmw_read) continue;
      IssueContext ctx = context_for(e.seq, e.sync);
      bool allowed = load_may_issue(cfg_.model, ctx);
      if (allowed) continue;
      if (prefetch_.offer(cache_.line_of(e.addr), /*exclusive=*/false, allowed, stats_)) {
        e.offered = true;
        note_progress();
      }
    }
  }
  for (std::size_t i = 0; i < store_buf_.size(); ++i) {
    StoreEntry& e = store_buf_.at(i);
    if (e.issued || e.offered) continue;
    // Under speculative execution (invalidation protocol) an RMW's line
    // is already being fetched exclusively by its Appendix-A read.
    if (e.is_rmw && rmw_split) continue;
    IssueContext ctx = context_for(e.seq, e.sync);
    bool allowed = e.released && (e.is_rmw ? rmw_may_issue(cfg_.model, ctx)
                                           : store_may_issue(cfg_.model, ctx));
    if (allowed) continue;
    if (prefetch_.offer(cache_.line_of(e.addr), /*exclusive=*/true, allowed, stats_)) {
      e.offered = true;
      note_progress();
    }
  }
}

void LoadStoreUnit::tick_issue(Cycle now) {
  const bool spec_mode = cfg_.core.speculative_loads;

  // Pick issue candidates: the oldest actionable load and store.
  LoadEntry* lcand = nullptr;
  for (std::size_t i = 0; i < load_q_.size(); ++i) {
    LoadEntry& e = load_q_.at(i);
    if (e.reissue || !e.issued) {
      lcand = &e;
      break;
    }
  }
  if (lcand != nullptr && !lcand->reissue && !spec_mode) {
    // Conventional enforcement: gate at the reservation-station/queue
    // head until the consistency model allows the load to perform.
    IssueContext ctx = context_for(lcand->seq, lcand->sync);
    if (!load_may_issue(cfg_.model, ctx)) lcand = nullptr;
  }

  StoreEntry* scand = nullptr;
  for (std::size_t i = 0; i < store_buf_.size(); ++i) {
    StoreEntry& e = store_buf_.at(i);
    if (!e.issued) {
      scand = &e;
      break;
    }
  }
  if (scand != nullptr) {
    bool ready = scand->released && scand->data.ready && scand->cmp.ready;
    if (ready) {
      IssueContext ctx = context_for(scand->seq, scand->sync);
      ready = scand->is_rmw ? rmw_may_issue(cfg_.model, ctx)
                            : store_may_issue(cfg_.model, ctx);
    }
    if (!ready) scand = nullptr;
  }

  // One demand access per cycle, oldest first. A tie is the Appendix-A
  // RMW pair (the atomic and its own speculative read-exclusive carry
  // the same seq): the speculative load goes first, so the merged
  // waiters read the old value before the atomic rewrites it. An RMW
  // that will combine into its own outstanding read-exclusive MSHR
  // does not need the port and never displaces a load.
  const bool store_merges_free = scand != nullptr && scand->is_rmw &&
                                 scand->spec_read_issued &&
                                 cache_.mshr_active(scand->addr);
  if (lcand != nullptr && scand != nullptr && !store_merges_free) {
    if (lcand->seq <= scand->seq)
      scand = nullptr;
    else
      lcand = nullptr;
  }
  if (scand != nullptr && store_merges_free) issue_store(*scand, now);
  if (lcand != nullptr) issue_load(*lcand, now);
  if (scand != nullptr && !store_merges_free) issue_store(*scand, now);

  offer_prefetches(now);
  if (cache_.port_free(now)) {
    const std::size_t queued_before = prefetch_.size();
    prefetch_.drain(cache_, now);
    // A rejected drain leaves the queue untouched (pure retry); any
    // pop — issued or dropped — is a state change.
    if (prefetch_.size() != queued_before) note_progress();
  }
}

void LoadStoreUnit::record(std::uint64_t seq, std::size_t pc, Addr addr, AccessKind kind,
                           SyncKind sync, Word value, Cycle now) {
  if (!cfg_.record_accesses) return;
  AccessRecord r;
  r.seq = seq;
  r.pc = pc;
  r.addr = addr;
  r.kind = kind;
  r.sync = sync;
  r.value = value;
  r.performed_at = now;
  records_.push_back(r);
}

std::vector<AccessRecord> LoadStoreUnit::access_log() const {
  std::vector<AccessRecord> out(records_.begin(), records_.end());
  std::sort(out.begin(), out.end(),
            [](const AccessRecord& a, const AccessRecord& b) { return a.seq < b.seq; });
  return out;
}

void LoadStoreUnit::drain_responses(Cycle now) {
  while (!local_completions_.empty() && local_completions_.front().ready_at <= now) {
    const LocalCompletion lc = local_completions_.pop();
    note_progress();
    const std::size_t i = load_index(lc.seq);
    if (i == load_q_.size()) continue;  // squashed
    const LoadEntry& le = load_q_.at(i);
    record(lc.seq, le.pc, le.addr, AccessKind::kLoad, le.sync, lc.value, now);
    erase_load_at(i);
    host_.mem_completed(lc.seq, lc.value, now);
  }

  CacheResponse r;
  while (cache_.pop_response(now, r)) {
    note_progress();  // the response pop itself mutates cache state
    // Every response answers the load or store that issued it: a load
    // that is dropped or reissued withdraws its request.
    std::size_t i = 0;
    while (i < load_q_.size() && load_q_.at(i).token != r.token) ++i;
    if (i < load_q_.size()) {
      const LoadEntry& e = load_q_.at(i);
      const std::uint64_t seq = e.seq;
      if (e.is_rmw_read) {
        if (events_ != nullptr && events_->enabled())
          events_->complete(ev::rmw_read, static_cast<std::uint16_t>(id_), e.ready_at, now);
        erase_load_at(i);
        spec_buffer_.mark_done(seq, r.value, now);
        host_.rmw_spec_value(seq, r.value, now);
        continue;
      }
      record(seq, e.pc, e.addr, AccessKind::kLoad, e.sync, r.value, now);
      stats_.sample(stat::load_latency, now - e.ready_at);
      if (events_ != nullptr && events_->enabled())
        events_->complete(ev::load, static_cast<std::uint16_t>(id_), e.ready_at, now);
      erase_load_at(i);
      spec_buffer_.mark_done(seq, r.value, now);
      host_.mem_completed(seq, r.value, now);
      continue;
    }
    i = 0;
    while (i < store_buf_.size() && store_buf_.at(i).token != r.token) ++i;
    assert(i < store_buf_.size() && "a response answers a request in flight");
    const StoreEntry& s = store_buf_.at(i);
    const std::uint64_t seq = s.seq;
    if (!s.is_rmw) {
      record(seq, s.pc, s.addr, AccessKind::kStore, s.sync, s.data.value, now);
      stats_.sample(stat::store_latency, now - s.ready_at);
      stats_.sample(stat::store_release_latency, now - s.released_at);
      if (events_ != nullptr && events_->enabled())
        events_->complete(ev::store, static_cast<std::uint16_t>(id_), s.ready_at, now);
      erase_store_at(i);
      spec_buffer_.nullify_store_tag(seq);
      host_.mem_completed(seq, 0, now);
      continue;
    }
    record(seq, s.pc, s.addr, AccessKind::kRmw, s.sync, r.value, now);
    if (s.released) stats_.sample(stat::store_release_latency, now - s.released_at);
    if (events_ != nullptr && events_->enabled())
      events_->complete(ev::rmw, static_cast<std::uint16_t>(id_), s.ready_at, now);
    erase_store_at(i);
    // Drop a still-pending speculative read-exclusive for this RMW:
    // nothing reads its value once the atomic has performed.
    if (const std::size_t li = load_index(seq); li < load_q_.size()) {
      withdraw(load_q_.at(li));
      erase_load_at(li);
    }
    spec_buffer_.nullify_store_tag(seq);
    spec_buffer_.mark_done(seq, r.value, now);
    host_.mem_completed(seq, r.value, now);
  }
}

void LoadStoreUnit::retire_spec_entries(Cycle now) {
  // An acq entry (a sync load under WC, any load under SC/PC) may only
  // stop being monitored once every earlier access the model orders
  // before it has performed. The FIFO covers earlier entries that
  // themselves hold a slot until done; earlier accesses that do NOT —
  // WC plain loads (non-acq entries pop before performing) and WC
  // plain stores (several may be outstanding, so one store tag cannot
  // carry the dependence) — are vetoed here, via the policy so
  // enforcement stays in one place. RC deliberately orders neither
  // pair (RCpc), so this veto never fires there.
  const bool wait_loads = spec_retire_waits_for(cfg_.model, AccessClass::kLoad);
  const bool wait_stores = spec_retire_waits_for(cfg_.model, AccessClass::kStore);
  auto may_retire = [&](const SpecLoadBuffer::Entry& e) {
    if (!e.acq || e.is_rmw_read) return true;
    if (wait_loads && load_before(e.seq)) return false;    // earlier load still in flight
    if (wait_stores && store_before(e.seq)) return false;  // earlier store still pending
    return true;
  };
  // Restamp speculative loads to their retirement instant: that is when
  // they stop being speculative, and coherence monitoring guarantees the
  // value read still equals memory now — the sound serialization point
  // for the sva analysis. A nonspec load ignores line events, so nothing
  // holds its value until retirement: its stamp stays at bind time.
  auto on_retire = [&](const SpecLoadBuffer::Entry& e) {
    if (e.acq && !e.is_rmw_read) slb_acquires_.erase(e.seq);
    if (!cfg_.record_accesses || e.nonspec) return;
    for (AccessRecord& r : records_) {
      if (r.seq == e.seq && r.kind == AccessKind::kLoad) r.performed_at = now;
    }
  };
  const std::size_t retired = spec_buffer_.retire_ready(may_retire, on_retire);
  if (retired == 0) return;
  note_progress();
  stats_.add(stat::spec_retired, retired);
  instant(ev::slb_retired, now, {arg::count, retired});
}

void LoadStoreUnit::on_line_event(LineEventKind kind, Addr line, Cycle now) {
  instant(ev::line_event[static_cast<std::size_t>(kind)], now, {arg::line, line});
  if (spec_buffer_.empty()) return;
  SpecLoadBuffer::MatchResult mr = spec_buffer_.on_line_event(kind, line);
  for (std::uint64_t seq : mr.reissue) {
    LoadEntry* e = find_load(seq);
    if (e == nullptr || !e->issued) continue;
    withdraw(*e);  // the initial return value must be discarded (§4)
    e->reissue = true;
    spec_buffer_.mark_reissued(seq);
    stats_.add(stat::spec_reissue);
    instant(ev::slb_reissue, now, {arg::seq, seq});
  }
  if (!mr.squash) return;

  const SpecLoadBuffer::Entry* se = spec_buffer_.find(mr.squash_seq);
  assert(se != nullptr);
  if (cfg_.profile) {
    // Rollback-cause attribution: exactly one cause per squash event,
    // named by the coherence transaction that triggered it. The wasted
    // work is how long the doomed value had been bound (and feeding
    // dependents) before detection caught it.
    const StatId cause = kind == LineEventKind::kInvalidate ? prof::rb_invalidate
                         : kind == LineEventKind::kUpdate  ? prof::rb_update
                                                           : prof::rb_replacement;
    stats_.add(cause);
    stats_.sample(prof::rb_wasted, now - se->done_at);
  }
  if (se->is_rmw_read) {
    // Appendix A: if the atomic has not been issued yet, discard the
    // RMW and everything after it; if it has, only the computation
    // following it (its value will come from the issued atomic).
    StoreEntry* st = find_store(mr.squash_seq);
    if (st != nullptr && !st->issued) {
      stats_.add(stat::spec_squash_rmw);
      host_.request_squash_refetch(mr.squash_seq, now);
    } else {
      spec_buffer_.mark_reissued(mr.squash_seq);
      stats_.add(stat::spec_squash_after_rmw);
      host_.request_squash_refetch(mr.squash_seq + 1, now);
    }
  } else {
    stats_.add(stat::spec_squash);
    host_.request_squash_refetch(mr.squash_seq, now);
  }
}

void LoadStoreUnit::squash_from(std::uint64_t seq, SquashOrigin origin) {
  note_progress();
  while (!ls_rs_.empty() && ls_rs_.back().seq >= seq) ls_rs_.pop_back_n(1);
  while (!load_q_.empty() && load_q_.back().seq >= seq) {
    withdraw(load_q_.back());
    load_q_.pop_back_n(1);
  }
  while (!store_buf_.empty() && store_buf_.back().seq >= seq) {
    assert(!store_buf_.back().issued && "issued stores are architecturally committed");
    store_buf_.pop_back_n(1);
  }
  sync_.squash_from(seq);
  acquires_.squash_from(seq);
  rmws_.squash_from(seq);
  slb_acquires_.squash_from(seq);
  const std::size_t dropped = spec_buffer_.squash_from(seq);
  // Coherence-origin squashes were already attributed to their line-
  // event kind in on_line_event; a pipeline redirect that discards live
  // speculative-load entries is the remaining cause (context flush).
  if (cfg_.profile && origin == SquashOrigin::kPipeline && dropped > 0)
    stats_.add(prof::rb_flush);
  // Forwarding order is not program order, so the doomed completions
  // need not be a suffix.
  for (std::size_t i = local_completions_.size(); i-- > 0;) {
    if (local_completions_.at(i).seq >= seq) local_completions_.erase_at(i);
  }
  // Completed-but-squashed speculative loads are architecturally void.
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [seq](const AccessRecord& r) { return r.seq >= seq; }),
                 records_.end());
}

StallCause LoadStoreUnit::classify_mem_wait(Addr addr) const {
  // Whether the directory holds the line behind another transaction is
  // invisible from here (the directory's queue_wait histogram reports it).
  if (cache_.mshr_active(addr)) return StallCause::kCacheMiss;
  // No MSHR: the access rides the network without one (update-protocol
  // word op) or the reply is already queued for delivery.
  return StallCause::kNetwork;
}

StallCause LoadStoreUnit::classify_rs_block(std::uint64_t seq) const {
  if (ls_rs_.empty() || ls_rs_.front().seq != seq) return StallCause::kExec;
  const RsEntry& head = ls_rs_.front();
  if (head.inst->is_fence()) return StallCause::kConsistency;
  if (!head.addr_operands_ready()) return StallCause::kAddrGen;
  // Address ready but the entry has not left the reservation station:
  // the downstream structure (load queue / store buffer / software
  // prefetch buffer) had no free slot this cycle.
  return StallCause::kStoreBufferFull;
}

StallCause LoadStoreUnit::classify_load_wait(std::uint64_t seq) const {
  const LoadEntry* e = find_load(seq);
  if (e == nullptr) return StallCause::kExec;  // forwarded; completes shortly
  if (e->issued && !e->reissue) return classify_mem_wait(e->addr);
  if (e->reissue) return StallCause::kSpeculation;  // detection-forced replay
  // Not yet issued. A matching earlier store whose value is unknown
  // (RMW, or data operand pending) blocks forwarding: execution-side.
  bool has_source = false;
  if (!e->is_rmw_read) {
    for (std::size_t i = store_buf_.size(); i-- > 0;) {
      const StoreEntry& st = store_buf_.at(i);
      if (st.seq >= e->seq || st.addr != e->addr) continue;
      if (st.is_rmw || !st.data.ready) return StallCause::kExec;
      has_source = true;
      break;
    }
  }
  const bool spec_mode = cfg_.core.speculative_loads;
  if (!load_may_issue(cfg_.model, context_for(e->seq, e->sync))) {
    // Conventional enforcement gates the load outright; speculation
    // ignores the gate except for forwarding (never speculative).
    if (!spec_mode || has_source) return StallCause::kConsistency;
  }
  if (spec_mode && !e->reissue && spec_buffer_.full()) return StallCause::kSpeculation;
  // Allowed and ready: lost port arbitration or the probe was rejected
  // (MSHRs full) — memory-side occupancy either way.
  return StallCause::kCacheMiss;
}

StallCause LoadStoreUnit::classify_store_wait(std::uint64_t seq) const {
  const StoreEntry* st = find_store(seq);
  if (st == nullptr) return StallCause::kExec;  // completion already queued
  if (st->issued) return classify_mem_wait(st->addr);
  if (!st->released) return StallCause::kExec;  // release lands this cycle
  if (!st->data.ready || !st->cmp.ready) return StallCause::kExec;
  IssueContext ctx = context_for(st->seq, st->sync);
  const bool allowed = st->is_rmw ? rmw_may_issue(cfg_.model, ctx)
                                  : store_may_issue(cfg_.model, ctx);
  if (!allowed) return StallCause::kConsistency;
  return StallCause::kCacheMiss;  // port/MSHR occupancy, or behind an older store
}

StallCause LoadStoreUnit::classify_drain() const {
  if (!store_buf_.empty()) return classify_store_wait(store_buf_.front().seq);
  if (!load_q_.empty()) return classify_load_wait(load_q_.front().seq);
  return StallCause::kIdle;
}

std::uint64_t LoadStoreUnit::occupancy() const {
  return ls_rs_.size() | load_q_.size() << 8 | store_buf_.size() << 16 |
         spec_buffer_.size() << 24 | prefetch_.size() << 32 | local_completions_.size() << 40;
}

namespace {
/// Two operands' values in one plain value (Words fit 32 bits), then the
/// seq each waits on. The caller visits their ready bits first.
template <typename Walk>
void walk_operands(Walk& w, Operand& a, Operand& b) {
  w.plain(a.value | std::uint64_t{b.value} << 32);
  if (!a.ready) w.seq(a.tag);
  if (!b.ready) w.seq(b.tag);
}
}  // namespace

template <typename Walk>
void LoadStoreUnit::walk(Walk& w) {
  // The store buffer first: a failing probe fails on a store's stamps.
  w.plain(store_buf_.size());
  for (std::size_t i = 0; i < store_buf_.size(); ++i) {
    StoreEntry& e = store_buf_.at(i);
    w.seq(e.seq);
    // Plain fields packed, to keep a record short: pc fits 32 bits.
    const std::uint64_t flags = static_cast<std::uint64_t>(e.sync) | e.is_rmw << 8 |
                                e.released << 9 | e.issued << 10 | e.offered << 11 |
                                e.spec_read_issued << 12 | e.data.ready << 13 |
                                e.cmp.ready << 14;
    w.plain(e.pc | flags << 32);
    w.plain(e.addr);
    if (e.issued) w.token(e.token);
    walk_operands(w, e.data, e.cmp);
    w.cycle(e.ready_at);
    w.cycle(e.released_at);
  }
  if (w.stopped()) return;
  w.token(next_token_);
  w.plain(ls_rs_.size());
  for (std::size_t i = 0; i < ls_rs_.size(); ++i) {
    RsEntry& e = ls_rs_.at(i);
    w.seq(e.seq);
    w.plain(e.pc | std::uint64_t{e.base.ready} << 32 | std::uint64_t{e.index.ready} << 33 |
            std::uint64_t{e.data.ready} << 34 | std::uint64_t{e.cmp.ready} << 35);
    walk_operands(w, e.base, e.index);
    walk_operands(w, e.data, e.cmp);
  }
  w.plain(load_q_.size());
  for (std::size_t i = 0; i < load_q_.size(); ++i) {
    LoadEntry& e = load_q_.at(i);
    w.seq(e.seq);
    // Plain fields packed, to keep a record short: pc fits 32 bits.
    const std::uint64_t flags = static_cast<std::uint64_t>(e.sync) | e.is_rmw_read << 8 |
                                e.issued << 9 | e.reissue << 10 | e.offered << 11 |
                                std::uint64_t{e.token != 0} << 12;
    w.plain(e.pc | flags << 32);
    w.plain(e.addr);
    if (e.token != 0) w.token(e.token);
    w.cycle(e.ready_at);
  }
  spec_buffer_.walk(w);
  prefetch_.walk(w);
  for (SeqFifo* f : {&sync_, &acquires_, &rmws_, &slb_acquires_}) f->walk(w);
  w.plain(local_completions_.size());
  for (std::size_t i = 0; i < local_completions_.size(); ++i) {
    LocalCompletion& c = local_completions_.at(i);
    w.seq(c.seq);
    w.plain(c.value);
    w.cycle(c.ready_at);
  }
}

template void LoadStoreUnit::walk(PeriodWalk::Recorder&);
template void LoadStoreUnit::walk(PeriodWalk::StateComparer&);
template void LoadStoreUnit::walk(PeriodWalk::Shifter&);

Json LoadStoreUnit::snapshot_json() const {
  Json out = Json::object();
  Json rs = Json::array();
  for (std::size_t i = 0; i < ls_rs_.size(); ++i) {
    const RsEntry& e = ls_rs_.at(i);
    Json j = Json::object();
    j.set("seq", Json::number(e.seq));
    j.set("pc", Json::number(static_cast<std::uint64_t>(e.pc)));
    j.set("addr_ready", Json::boolean(e.addr_operands_ready()));
    rs.push_back(std::move(j));
  }
  out.set("ls_rs", std::move(rs));
  Json lq = Json::array();
  for (std::size_t i = 0; i < load_q_.size(); ++i) {
    const LoadEntry& e = load_q_.at(i);
    Json j = Json::object();
    j.set("seq", Json::number(e.seq));
    j.set("addr", Json::number(static_cast<std::uint64_t>(e.addr)));
    j.set("issued", Json::boolean(e.issued));
    j.set("reissue", Json::boolean(e.reissue));
    if (e.is_rmw_read) j.set("rmw_read", Json::boolean(true));
    lq.push_back(std::move(j));
  }
  out.set("load_queue", std::move(lq));
  Json sb = Json::array();
  for (std::size_t i = 0; i < store_buf_.size(); ++i) {
    const StoreEntry& e = store_buf_.at(i);
    Json j = Json::object();
    j.set("seq", Json::number(e.seq));
    j.set("addr", Json::number(static_cast<std::uint64_t>(e.addr)));
    j.set("rmw", Json::boolean(e.is_rmw));
    j.set("released", Json::boolean(e.released));
    j.set("issued", Json::boolean(e.issued));
    j.set("data_ready", Json::boolean(e.data.ready));
    sb.push_back(std::move(j));
  }
  out.set("store_buffer", std::move(sb));
  out.set("spec_load_buffer", spec_buffer_.snapshot_json());
  return out;
}

std::string LoadStoreUnit::store_buffer_dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < store_buf_.size(); ++i) {
    const StoreEntry& e = store_buf_.at(i);
    os << "[seq=" << e.seq << (e.is_rmw ? " rmw" : " st") << " addr=0x" << std::hex
       << e.addr << std::dec << (e.released ? " rel" : "") << (e.issued ? " issued" : "")
       << "]";
    if (i + 1 != store_buf_.size()) os << ' ';
  }
  return os.str();
}

}  // namespace mcsim
