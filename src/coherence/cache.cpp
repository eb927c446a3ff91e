#include "coherence/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/profile.hpp"

namespace mcsim {

namespace {
// Stat names interned once at static-init; hot paths use the ids.
namespace stat {
const StatId load_hit = StatNames::intern("load_hit");
const StatId prefetch_ex_issued = StatNames::intern("prefetch_ex_issued");
const StatId prefetch_read_issued = StatNames::intern("prefetch_read_issued");
const StatId prefetch_useful_hit = StatNames::intern("prefetch_useful_hit");
const StatId prefetch_useful_merge = StatNames::intern("prefetch_useful_merge");
/// Histogram of fill-to-first-demand-use distances for prefetched
/// lines (useful *hits* only — a demand merged into an in-flight
/// prefetch arrived before the fill, so it has no such distance).
const StatId prefetch_to_use = StatNames::intern("prefetch_to_use");
const StatId writeback = StatNames::intern("writeback");
/// "event.<kind>", indexed by LineEventKind.
const StatId event[] = {
    StatNames::intern("event.invalidate"),
    StatNames::intern("event.update"),
    StatNames::intern("event.replacement"),
};
}  // namespace stat

namespace ev {
const TraceEventSink::NameId miss = TraceEventSink::name_id("miss");
const TraceEventSink::NameId miss_ex = TraceEventSink::name_id("miss-ex");
const TraceEventSink::NameId prefetch = TraceEventSink::name_id("prefetch");
const TraceEventSink::NameId prefetch_ex = TraceEventSink::name_id("prefetch-ex");
const TraceEventSink::NameId pf_pending = TraceEventSink::name_id("pf-pending");
}  // namespace ev
}  // namespace

CoherentCache::CoherentCache(ProcId id, const CacheConfig& cfg, const MemConfig& mem_cfg,
                             Network& net, std::uint32_t num_procs,
                             std::uint32_t max_requests, std::pmr::memory_resource* arena)
    : id_(id),
      cfg_(cfg),
      protocol_(mem_cfg.coherence),
      net_(net),
      num_procs_(num_procs),
      dir_banks_(mem_cfg.dir_banks),
      words_per_line_(cfg.line_bytes / kWordBytes),
      line_shift_(static_cast<std::uint32_t>(std::countr_zero(cfg.line_bytes))),
      filled_(cfg.num_sets, 0, arena),
      mshrs_(cfg.mshrs, arena),
      waiters_(arena),
      responses_(max_requests, arena),
      retry_fills_(0, arena),
      retrying_(0, arena),
      stats_("cache" + std::to_string(id), 0, arena) {
  assert(cfg.line_bytes <= kMaxLineBytes && "a line must fit a message payload");
  assert(std::has_single_bit(cfg.line_bytes) && "a line is a power of two bytes");
  assert(cfg.ways <= CacheConfig::kMaxWays && cfg.num_sets <= CacheConfig::kMaxSets);
  waiters_.reserve(max_requests);
  const std::size_t lines = std::size_t{cfg.num_sets} * cfg.ways;
  const std::size_t bytes = lines * (sizeof(Way) + cfg.line_bytes);
  arrays_ = {static_cast<std::byte*>(arena->allocate(bytes)), ArenaFree{arena, bytes}};
  ways_ = reinterpret_cast<Way*>(arrays_.get());
  data_ = reinterpret_cast<Word*>(arrays_.get() + lines * sizeof(Way));
  if (protocol_ == CoherenceKind::kUpdate) word_ops_.reserve(2 * cfg.mshrs);
}

CoherentCache::Way* CoherentCache::find_way(Addr line) {
  for (Way& way : filled_ways(set_index(line))) {
    if (way.state != LineState::kInvalid && way.line == line) return &way;
  }
  return nullptr;
}

const CoherentCache::Way* CoherentCache::find_way(Addr line) const {
  for (const Way& way : filled_ways(set_index(line))) {
    if (way.state != LineState::kInvalid && way.line == line) return &way;
  }
  return nullptr;
}

CoherentCache::Mshr* CoherentCache::find_mshr(Addr line) {
  for (auto& m : mshrs_) {
    if (m.valid && m.line == line) return &m;
  }
  return nullptr;
}

const CoherentCache::Mshr* CoherentCache::find_mshr(Addr line) const {
  for (const auto& m : mshrs_) {
    if (m.valid && m.line == line) return &m;
  }
  return nullptr;
}

CoherentCache::Mshr* CoherentCache::merge_target(Addr line) {
  Mshr* m = find_mshr(line);
  if (m != nullptr) ++activity_;
  return m;
}

CoherentCache::Mshr* CoherentCache::alloc_mshr(Addr line, Cycle now) {
  ++activity_;
  for (auto& m : mshrs_) {
    if (!m.valid) {
      // Field by field: the waiter list keeps its capacity, so a miss
      // allocates nothing once each MSHR has held its largest merge.
      m.valid = true;
      m.line = line;
      m.want_ex = false;
      m.upgrade_after_fill = false;
      m.prefetch_initiated = false;
      m.demand = false;
      m.alloc_at = now;
      busy_inc();
      return &m;
    }
  }
  return nullptr;
}

void CoherentCache::close_mshr(Mshr& m, Cycle now) {
  if (events_ != nullptr && events_->enabled()) {
    const TraceEventSink::NameId name =
        m.prefetch_initiated ? (m.want_ex ? ev::prefetch_ex : ev::prefetch)
                             : (m.want_ex ? ev::miss_ex : ev::miss);
    events_->complete(name, track_, m.alloc_at, now);
  }
  m.valid = false;
  free_waiters(m);
  busy_dec();
}

void CoherentCache::add_waiter(Mshr& m, const CacheRequest& req) {
  std::uint32_t n = free_waiter_;
  if (n != kNoWaiter) {
    free_waiter_ = waiters_[n].next;
    waiters_[n].w = Waiter(req);
  } else {
    assert(waiters_.size() < waiters_.capacity() && "more requests in flight than max_requests");
    n = static_cast<std::uint32_t>(waiters_.size());
    waiters_.push_back(WaiterNode{Waiter(req)});
  }
  link_waiter(m, n);
  m.demand = true;
}

void CoherentCache::link_waiter(Mshr& m, std::uint32_t n) {
  waiters_[n].next = kNoWaiter;
  if (m.first == kNoWaiter)
    m.first = n;
  else
    waiters_[m.last].next = n;
  m.last = n;
  ++m.waiters;
}

void CoherentCache::free_waiters(Mshr& m) {
  if (m.first == kNoWaiter) return;
  waiters_[m.last].next = free_waiter_;
  free_waiter_ = m.first;
  m.first = m.last = kNoWaiter;
  m.waiters = 0;
}

void CoherentCache::busy_inc() {
  if (busy_++ == 0 && quiesce_ != nullptr) ++*quiesce_;
}

void CoherentCache::busy_dec() {
  assert(busy_ > 0 && "cache busy counter underflow");
  if (--busy_ == 0 && quiesce_ != nullptr) --*quiesce_;
}

void CoherentCache::set_quiescence_counter(std::uint64_t* counter) {
  if (quiesce_ != nullptr && busy_ != 0) --*quiesce_;
  quiesce_ = counter;
  if (quiesce_ != nullptr && busy_ != 0) ++*quiesce_;
}

std::size_t CoherentCache::mshrs_in_use() const {
  return static_cast<std::size_t>(
      std::count_if(mshrs_.begin(), mshrs_.end(), [](const Mshr& m) { return m.valid; }));
}

void CoherentCache::use_port(Cycle now) {
  port_used_valid_ = true;
  port_used_at_ = now;
}

void CoherentCache::log_touch(const Way& way) {
  const auto i = static_cast<std::uint32_t>(&way - ways_);
  if (std::find(touched_.begin(), touched_.end(), i) == touched_.end()) touched_.push_back(i);
}

template <typename Walk>
void CoherentCache::walk(Walk& w) {
  w.plain(responses_.size());
  for (std::size_t i = 0; i < responses_.size(); ++i) {
    CacheResponse& r = responses_.at(i);
    w.token(r.token);
    w.plain(r.value | std::uint64_t{r.was_hit} << 32);
    w.cycle(r.ready_at);
  }
  w.plain(port_used_valid_);
  w.cycle(port_used_at_);
  // Outstanding misses change only when a message arrives or a probe
  // merges (both cache activity), but the core's probes read them.
  for (Mshr& m : mshrs_) {
    w.plain(m.valid);
    if (!m.valid) continue;
    w.plain(m.line);
    w.plain(m.want_ex | m.upgrade_after_fill << 1 | m.prefetch_initiated << 2 | m.demand << 3);
    w.cycle(m.alloc_at);
    w.plain(m.waiters);
    for (std::uint32_t n = m.first; n != kNoWaiter; n = waiters_[n].next) {
      Waiter& wt = waiters_[n].w;
      w.token(wt.token);
      w.plain(wt.addr);
      // Plain fields packed, to keep a record short: Words fit 32 bits.
      w.plain(wt.store_value | std::uint64_t{wt.rmw_cmp} << 32);
      w.plain(wt.rmw_src | static_cast<std::uint64_t>(wt.op) << 32 |
              static_cast<std::uint64_t>(wt.rmw_op) << 40);
    }
  }
  w.plain(touched_.size());
  for (std::uint32_t i : touched_) {
    Way& way = ways_[i];
    w.plain(i | static_cast<std::uint64_t>(way.state) << 32 |
            std::uint64_t{way.prefetched} << 40);
    w.plain(way.line);
    w.cycle(way.last_use);
    w.cycle(way.fill_at);
    for (Word v : line_words(way)) w.plain(v);
  }
}

template void CoherentCache::walk(PeriodWalk::Recorder&);
template void CoherentCache::walk(PeriodWalk::StateComparer&);
template void CoherentCache::walk(PeriodWalk::Shifter&);

void CoherentCache::push_response(std::uint64_t token, Word value, Cycle ready, bool hit) {
  if (token == 0) return;  // prefetch: nobody waits for a reply
  assert((responses_.empty() || responses_.back().ready_at <= ready) &&
         "responses queue in ready order: the cache ticks before its core");
  assert(!responses_.full() && "more requests in flight than max_requests");
  responses_.push(CacheResponse{token, value, ready, hit});
  busy_inc();
}

void CoherentCache::notify(LineEventKind kind, Addr line, Cycle now) {
  stats_.add(stat::event[static_cast<std::size_t>(kind)]);
  if (observer_ != nullptr) observer_->on_line_event(kind, line, now);
}

Word CoherentCache::read_word(const Way& way, Addr addr) const {
  return data_[word_base(way) + (addr - way.line) / kWordBytes];
}

void CoherentCache::write_word(Way& way, Addr addr, Word v) {
  data_[word_base(way) + (addr - way.line) / kWordBytes] = v;
}

// --- prefetch outcome attribution (profiling) ------------------------

void CoherentCache::pf_counter_event(Cycle now) {
  if (events_ != nullptr && events_->enabled())
    events_->counter(ev::pf_pending, track_, now, pf_tags_.size());
}

void CoherentCache::pf_issue(Addr line, bool ex, Cycle now) {
  // A PrefetchEx can land on a line whose earlier read prefetch is
  // resident but still unresolved; that older prefetch was superseded
  // without a demand use, so it resolves as useless — keeping
  // issued == resolved + pending exact with one tag per line.
  auto [it, fresh] = pf_tags_.try_emplace(line);
  if (!fresh) stats_.add(prof::pf_useless);
  it->second = PfTag{false, ex, now, 0};
  stats_.add(prof::pf_issued);
  pf_counter_event(now);
}

void CoherentCache::pf_demand_touch(Addr line, Cycle now) {
  auto it = pf_tags_.find(line);
  if (it == pf_tags_.end()) return;
  if (it->second.resident) {
    // The §3.2 win: the fill landed before any demand needed it.
    stats_.add(prof::pf_useful);
    stats_.sample(prof::pf_use_distance, now - it->second.fill_at);
  } else {
    // Demand merged into the in-flight prefetch: partial hiding. The
    // head start is how much of the miss the prefetch already paid.
    stats_.add(prof::pf_late);
    stats_.sample(prof::pf_head_start, now - it->second.issue_at);
  }
  pf_tags_.erase(it);
  pf_counter_event(now);
}

void CoherentCache::pf_fill(Addr line, Cycle now) {
  // Fill closed with no demand having merged: the line is now resident
  // and untouched. Resolution happens later (touch / evict / kill).
  auto it = pf_tags_.find(line);
  if (it != pf_tags_.end() && !it->second.resident) {
    it->second.resident = true;
    it->second.fill_at = now;
  }
}

void CoherentCache::pf_kill(Addr line, bool update, Cycle now) {
  // The §3.1 failure mode: coherence took the line (or rewrote it)
  // before any demand use, resident or still in flight.
  auto it = pf_tags_.find(line);
  if (it == pf_tags_.end()) return;
  stats_.add(update ? prof::pf_killed_update : prof::pf_killed_inval);
  pf_tags_.erase(it);
  pf_counter_event(now);
}

void CoherentCache::pf_evict(Addr line, Cycle now) {
  // Replacement chose a prefetched-but-never-used line: pure waste.
  // Only resident tags can be evicted (a line with an outstanding MSHR
  // is never a victim — footnote 3).
  auto it = pf_tags_.find(line);
  if (it == pf_tags_.end()) return;
  assert(it->second.resident && "evicted a line with an in-flight prefetch");
  stats_.add(prof::pf_useless);
  pf_tags_.erase(it);
  pf_counter_event(now);
}

namespace {
Message make_request(MsgType type, ProcId src, EndpointId dst, Addr line) {
  Message msg;
  msg.type = type;
  msg.src = src;
  msg.dst = dst;
  msg.line_addr = line;
  return msg;
}
}  // namespace

ProbeResult CoherentCache::probe(const CacheRequest& req, Cycle now) {
  assert(port_free(now));
  const Addr line = line_of(req.addr);
  // The way is tested before any MSHR, so the MSHR scan runs only once
  // the hit check has failed.
  Way* way = find_way(line);
  const bool update_proto = protocol_ == CoherenceKind::kUpdate;
  use_port(now);

  switch (req.op) {
    case CacheOp::kPrefetchShared: {
      // Paper §3.2: "a prefetch request first checks the cache"; if the
      // line is already present (or on its way) the prefetch is discarded.
      if (way != nullptr || find_mshr(line) != nullptr) return ProbeResult::kDropped;
      Mshr* m = alloc_mshr(line, now);
      if (m == nullptr) return ProbeResult::kRejected;
      stats_.add(stat::prefetch_read_issued);
      if (profile_) pf_issue(line, false, now);
      m->prefetch_initiated = true;
      net_.send(make_request(MsgType::kReadReq, id_, dir_for(line), line), now);
      return ProbeResult::kMiss;
    }

    case CacheOp::kPrefetchEx: {
      // Read-exclusive prefetch requires an invalidation protocol
      // (§3.1); the prefetch engine never issues these under update.
      assert(!update_proto);
      if (way != nullptr && way->state == LineState::kExclusive) return ProbeResult::kDropped;
      Mshr* mshr = merge_target(line);
      if (mshr != nullptr) {
        if (!mshr->want_ex && !mshr->upgrade_after_fill) {
          mshr->upgrade_after_fill = true;
          return ProbeResult::kMerged;
        }
        return ProbeResult::kDropped;
      }
      Mshr* m = alloc_mshr(line, now);
      if (m == nullptr) return ProbeResult::kRejected;
      stats_.add(stat::prefetch_ex_issued);
      if (profile_) pf_issue(line, true, now);
      m->prefetch_initiated = true;
      m->want_ex = true;
      net_.send(make_request(MsgType::kReadExReq, id_, dir_for(line), line), now);
      return ProbeResult::kMiss;
    }

    default:
      break;
  }

  // A demand access. Every op but a load needs the line exclusive, or,
  // under update, goes to the directory as a word op. A kLoadEx is the
  // read half of an RMW (Appendix A, invalidation only): it leaves a
  // prefetch's use to be counted by the RMW itself.
  const bool ex = req.op != CacheOp::kLoad;
  const bool counts_use = req.op != CacheOp::kLoadEx;
  if (ex && update_proto) {
    // A store or RMW performs only when the directory confirms every
    // sharer saw the new value (paper §3.1: an update protocol cannot
    // partially service a write). A store writes its own copy now; an
    // RMW's copy takes the directory's result.
    assert(req.op != CacheOp::kLoadEx);
    const bool rmw = req.op == CacheOp::kRmw;
    if (way != nullptr) {
      if (!rmw) {
        touch(*way, now);
        write_word(*way, req.addr, req.store_value);
      }
      if (profile_) pf_demand_touch(line, now);
    }
    ++activity_;
    word_ops_[req.token] = WordOp{rmw, req.rmw_op, req.rmw_cmp, req.rmw_src, req.addr};
    busy_inc();
    Message msg =
        make_request(rmw ? MsgType::kRmwReq : MsgType::kUpdateReq, id_, dir_for(line), line);
    msg.word_addr = req.addr;
    msg.txn = req.token;
    if (rmw) {
      msg.rmw_op = static_cast<std::uint8_t>(req.rmw_op);
      msg.rmw_cmp = req.rmw_cmp;
      msg.rmw_src = req.rmw_src;
    } else {
      msg.word_value = req.store_value;
    }
    net_.send(std::move(msg), now);
    return ProbeResult::kMiss;
  }

  if (way != nullptr && (!ex || way->state == LineState::kExclusive)) {
    touch(*way, now);
    if (way->prefetched && counts_use) {
      way->prefetched = false;
      stats_.add(stat::prefetch_useful_hit);
      stats_.sample(stat::prefetch_to_use, now - way->fill_at);
    }
    if (profile_) pf_demand_touch(line, now);
    if (ex) {
      push_response(req.token, perform(*way, req), now + 1, true);
    } else {
      stats_.add(stat::load_hit);
      push_response(req.token, read_word(*way, req.addr), now + 1, true);
    }
    return ProbeResult::kHit;
  }
  if (const Mshr* mshr = merge(req, line)) {
    if (mshr->prefetch_initiated && counts_use) stats_.add(stat::prefetch_useful_merge);
    if (profile_) pf_demand_touch(line, now);
    return ProbeResult::kMerged;
  }
  Mshr* m = alloc_mshr(line, now);
  if (m == nullptr) return ProbeResult::kRejected;
  if (ex) {
    if (profile_) pf_demand_touch(line, now);  // upgrade of a prefetched copy
    m->want_ex = true;
  }
  add_waiter(*m, req);
  net_.send(make_request(ex ? MsgType::kReadExReq : MsgType::kReadReq, id_, dir_for(line), line),
            now);
  return ProbeResult::kMiss;
}

void CoherentCache::preload_line(Addr line, LineState st, std::span<const Word> data) {
  assert(line == line_of(line));
  assert(data.size() == words_per_line_);
  Way* way = fill_line(line, st, data.data(), 0);
  assert(way != nullptr && "preload found no victim");
  (void)way;
}

CoherentCache::Mshr* CoherentCache::merge(const CacheRequest& req, Addr line) {
  Mshr* m = merge_target(line);
  if (m == nullptr) return nullptr;
  if (!m->want_ex && req.op != CacheOp::kLoad) m->upgrade_after_fill = true;
  add_waiter(*m, req);
  return m;
}

bool CoherentCache::merge_into_mshr(const CacheRequest& req) {
  return merge(req, line_of(req.addr)) != nullptr;
}

template <typename Access>
Word CoherentCache::perform(Way& way, const Access& a) {
  const Word old = read_word(way, a.addr);
  switch (a.op) {
    case CacheOp::kStore:
      write_word(way, a.addr, a.store_value);
      return 0;
    case CacheOp::kRmw:
      write_word(way, a.addr, apply_rmw(a.rmw_op, old, a.rmw_cmp, a.rmw_src));
      return old;
    default:  // kLoad, kLoadEx
      return old;
  }
}

void CoherentCache::evict(Way& way, Cycle now) {
  if (way.state == LineState::kExclusive) {
    Message msg = make_request(MsgType::kWriteback, id_, dir_for(way.line), way.line);
    std::ranges::copy(line_words(way), msg.data.begin());
    net_.send(std::move(msg), now);
    stats_.add(stat::writeback);
  } else {
    net_.send(make_request(MsgType::kReplaceNotify, id_, dir_for(way.line), way.line), now);
  }
  if (profile_) pf_evict(way.line, now);
  notify(LineEventKind::kReplacement, way.line, now);
  way.state = LineState::kInvalid;
  way.prefetched = false;
}

CoherentCache::Way* CoherentCache::fill_line(Addr line, LineState st, const Word* data,
                                             Cycle now) {
  const std::size_t set_idx = set_index(line);
  const std::span<Way> filled = filled_ways(set_idx);
  const auto install = [&](Way& way) {
    std::copy_n(data, words_per_line_, data_ + word_base(way));
  };
  // Existing copy (upgrade path): overwrite in place.
  for (Way& way : filled) {
    if (way.state != LineState::kInvalid && way.line == line) {
      way.state = st;
      install(way);
      way.last_use = now;
      way.fill_at = now;
      return &way;
    }
  }
  // The first invalid way in index order: an invalidated one inside the
  // filled prefix, else the first never-filled way past it.
  Way* victim = nullptr;
  for (Way& way : filled) {
    if (way.state == LineState::kInvalid) {
      victim = &way;
      break;
    }
  }
  if (victim == nullptr && filled.size() < cfg_.ways) {
    if (filled.empty()) filled_[set_idx] = blocks_used_++ << kFillBits;
    victim = ways_ + (filled_[set_idx]++ >> kFillBits) * cfg_.ways + filled.size();
  }
  if (victim == nullptr) {
    // Every way is valid. LRU among lines that have no in-flight
    // transaction of their own (paper footnote 3: a replacement of a
    // line with an outstanding access must be delayed until the access
    // completes).
    for (Way& way : filled) {
      if (find_mshr(way.line) != nullptr) continue;
      if (victim == nullptr || way.last_use < victim->last_use) victim = &way;
    }
    if (victim == nullptr) return nullptr;  // every way busy: defer this fill
    evict(*victim, now);
  }
  victim->state = st;
  victim->line = line;
  install(*victim);
  victim->last_use = now;
  victim->fill_at = now;
  victim->prefetched = false;
  return victim;
}

void CoherentCache::handle_message(const Message& msg, Cycle now) {
  ++activity_;
  switch (msg.type) {
    case MsgType::kReadReply: {
      Mshr* m = find_mshr(msg.line_addr);
      assert(m != nullptr && "read fill without MSHR");
      Way* way = fill_line(msg.line_addr, LineState::kShared, msg.data.data(), now);
      if (way == nullptr) {
        retry_fills_.push(msg);
        busy_inc();
        return;
      }
      // No-op unless a still-unresolved prefetch tag is waiting on this
      // line (i.e. no demand merged into the MSHR before the fill).
      if (profile_) pf_fill(msg.line_addr, now);
      // Loads complete off the shared copy; store/RMW waiters forced an
      // upgrade and keep waiting for the exclusive reply.
      std::uint32_t n = m->first;
      m->first = m->last = kNoWaiter;
      m->waiters = 0;
      while (n != kNoWaiter) {
        WaiterNode& node = waiters_[n];
        const std::uint32_t next = node.next;
        if (node.w.op == CacheOp::kLoad) {
          push_response(node.w.token, read_word(*way, node.w.addr), now, false);
          node.next = free_waiter_;
          free_waiter_ = n;
        } else {
          link_waiter(*m, n);
        }
        n = next;
      }
      // A non-load joins a read MSHR only through merge(), which asks for
      // the upgrade.
      assert((m->waiters == 0 || m->upgrade_after_fill) && "a waiter would miss its upgrade");
      if (m->upgrade_after_fill) {
        m->upgrade_after_fill = false;
        m->want_ex = true;
        net_.send(make_request(MsgType::kReadExReq, id_, dir_for(msg.line_addr), msg.line_addr), now);
      } else {
        // A demand access that joined the prefetch already counted its use.
        if (m->prefetch_initiated && !m->demand) way->prefetched = true;
        close_mshr(*m, now);
      }
      break;
    }

    case MsgType::kReadExReply: {
      Mshr* m = find_mshr(msg.line_addr);
      assert(m != nullptr && "exclusive fill without MSHR");
      Way* way = fill_line(msg.line_addr, LineState::kExclusive, msg.data.data(), now);
      if (way == nullptr) {
        retry_fills_.push(msg);
        busy_inc();
        return;
      }
      if (profile_) pf_fill(msg.line_addr, now);
      // All invalidations were acknowledged before the directory sent
      // this reply, so stores applied here are performed at `now`.
      for (std::uint32_t n = m->first; n != kNoWaiter; n = waiters_[n].next) {
        const Waiter& w = waiters_[n].w;
        push_response(w.token, perform(*way, w), now, false);
      }
      if (m->prefetch_initiated && !m->demand) way->prefetched = true;
      close_mshr(*m, now);
      break;
    }

    case MsgType::kInvalidate: {
      Way* way = find_way(msg.line_addr);
      if (way != nullptr) {
        way->state = LineState::kInvalid;
        way->prefetched = false;
      }
      if (profile_) pf_kill(msg.line_addr, /*update=*/false, now);
      // Notify even when the line is already gone: a speculative-load
      // entry may still reference this address (conservative, §4.2).
      notify(LineEventKind::kInvalidate, msg.line_addr, now);
      net_.send(make_request(MsgType::kInvAck, id_, dir_for(msg.line_addr), msg.line_addr), now);
      break;
    }

    case MsgType::kRecall: {
      Way* way = find_way(msg.line_addr);
      if (way == nullptr || way->state != LineState::kExclusive) {
        // Our writeback crossed this recall; the directory treats the
        // in-flight writeback as the recall acknowledgment.
        break;
      }
      Message ack = make_request(MsgType::kRecallAck, id_, dir_for(msg.line_addr), msg.line_addr);
      std::ranges::copy(line_words(*way), ack.data.begin());
      net_.send(std::move(ack), now);
      if (msg.recall_exclusive) {
        if (profile_) pf_kill(msg.line_addr, /*update=*/false, now);
        way->state = LineState::kInvalid;
        way->prefetched = false;
        notify(LineEventKind::kInvalidate, msg.line_addr, now);
      } else {
        way->state = LineState::kShared;
      }
      break;
    }

    case MsgType::kUpdate: {
      Way* way = find_way(msg.line_addr);
      if (way != nullptr) write_word(*way, msg.word_addr, msg.word_value);
      if (profile_) pf_kill(msg.line_addr, /*update=*/true, now);
      notify(LineEventKind::kUpdate, msg.line_addr, now);
      net_.send(make_request(MsgType::kUpdateAck, id_, dir_for(msg.line_addr), msg.line_addr), now);
      break;
    }

    case MsgType::kUpdateDone:
    case MsgType::kRmwReply: {
      auto it = word_ops_.find(msg.txn);
      assert(it != word_ops_.end() && "word-op reply without a pending store or RMW");
      const WordOp& op = it->second;
      Word value = 0;  // a store's response carries none
      if (op.is_rmw) {
        value = msg.word_value;  // the old value, from memory
        Way* way = find_way(msg.line_addr);
        if (way != nullptr)
          write_word(*way, op.word_addr, apply_rmw(op.rmw_op, value, op.rmw_cmp, op.rmw_src));
      }
      push_response(it->first, value, now, false);
      word_ops_.erase(it);
      busy_dec();
      break;
    }

    default:
      assert(false && "unexpected message at cache");
      break;
  }
}

void CoherentCache::tick(Cycle now) {
  if (!retry_fills_.empty()) {
    retrying_.swap(retry_fills_);
    for (std::size_t i = 0; i < retrying_.size(); ++i) {
      busy_dec();  // re-handled; a still-blocked fill re-queues (busy_inc)
      handle_message(retrying_.at(i), now);
    }
    retrying_.clear();
  }
  Message msg;
  while (net_.recv(id_, msg)) handle_message(msg, now);
}

bool CoherentCache::pop_response(Cycle now, CacheResponse& out) {
  if (responses_.empty() || responses_.front().ready_at > now) return false;
  out = responses_.pop();
  busy_dec();
  return true;
}

void CoherentCache::cancel(Addr addr, std::uint64_t token) {
  for (std::size_t i = 0; i < responses_.size(); ++i) {
    if (responses_.at(i).token == token) {
      responses_.erase_at(i);
      busy_dec();
      return;
    }
  }
  Mshr* m = find_mshr(line_of(addr));
  assert(m != nullptr && "a withdrawn request is queued or waits on its line's MSHR");
  for (std::uint32_t n = m->first, prev = kNoWaiter; n != kNoWaiter;
       prev = n, n = waiters_[n].next) {
    if (waiters_[n].w.token != token) continue;
    (prev == kNoWaiter ? m->first : waiters_[prev].next) = waiters_[n].next;
    if (m->last == n) m->last = prev;
    waiters_[n].next = free_waiter_;
    free_waiter_ = n;
    --m->waiters;
    return;
  }
  assert(false && "a withdrawn request is queued or waits on its line's MSHR");
}

LineState CoherentCache::line_state(Addr a) const {
  const Way* way = find_way(line_of(a));
  return way == nullptr ? LineState::kInvalid : way->state;
}

std::optional<Word> CoherentCache::peek_word(Addr a) const {
  const Way* way = find_way(line_of(a));
  if (way == nullptr) return std::nullopt;
  return read_word(*way, a);
}

std::uint64_t CoherentCache::debug_scan_busy() const {
  return mshrs_in_use() + responses_.size() + retry_fills_.size() + word_ops_.size();
}

bool CoherentCache::idle() const {
#ifdef MCSIM_FF_AUDIT
  assert(busy_ == debug_scan_busy());
#endif
  return busy_ == 0;
}

Cycle CoherentCache::next_event(Cycle now) const {
  if (!retry_fills_.empty()) return now;
  return responses_.empty() ? kCycleNever : responses_.front().ready_at;
}

Json CoherentCache::snapshot_json() const {
  Json out = Json::object();
  Json mshrs = Json::array();
  for (const Mshr& m : mshrs_) {
    if (!m.valid) continue;
    Json j = Json::object();
    j.set("line", Json::number(static_cast<std::uint64_t>(m.line)));
    j.set("want_ex", Json::boolean(m.want_ex));
    j.set("upgrade_after_fill", Json::boolean(m.upgrade_after_fill));
    j.set("prefetch_initiated", Json::boolean(m.prefetch_initiated));
    j.set("alloc_at", Json::number(static_cast<std::uint64_t>(m.alloc_at)));
    j.set("waiters", Json::number(static_cast<std::uint64_t>(m.waiters)));
    mshrs.push_back(std::move(j));
  }
  out.set("mshrs", std::move(mshrs));
  Json wops = Json::array();
  for (const auto& [txn, op] : word_ops_) {
    Json j = Json::object();
    j.set("txn", Json::number(txn));
    j.set("rmw", Json::boolean(op.is_rmw));
    j.set("addr", Json::number(static_cast<std::uint64_t>(op.word_addr)));
    wops.push_back(std::move(j));
  }
  out.set("word_ops", std::move(wops));
  out.set("pending_responses", Json::number(static_cast<std::uint64_t>(responses_.size())));
  out.set("retry_fills", Json::number(static_cast<std::uint64_t>(retry_fills_.size())));
  return out;
}

}  // namespace mcsim
