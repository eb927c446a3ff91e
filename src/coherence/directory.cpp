#include "coherence/directory.hpp"

#include <cassert>

#include "isa/instruction.hpp"  // apply_rmw

namespace mcsim {

namespace {
// Stat names interned once at static-init; hot paths use the ids.
namespace stat {
const StatId deferred = StatNames::intern("deferred");
}  // namespace stat

const char* txn_kind_name(int kind) {
  static const char* const names[] = {"gather-inv-acks", "recall-for-read",
                                      "recall-for-ex", "gather-update-acks"};
  return names[kind];
}

/// Trace-event name per transaction kind, interned on first use.
TraceEventSink::NameId txn_event_name(int kind) {
  static const TraceEventSink::NameId ids[] = {
      TraceEventSink::name_id("gather-inv-acks"),
      TraceEventSink::name_id("recall-for-read"),
      TraceEventSink::name_id("recall-for-ex"),
      TraceEventSink::name_id("gather-update-acks"),
  };
  return ids[kind];
}

namespace ev {
const TraceEventSink::NameId inv_fanout = TraceEventSink::name_id("inv-fanout");
const TraceEventSink::NameId upd_fanout = TraceEventSink::name_id("upd-fanout");
}  // namespace ev

std::string bank_stat_prefix(std::uint32_t bank, std::uint32_t num_banks) {
  // The single-bank machine keeps the historical "dir" prefix so stats
  // reports (and the FF-audit fingerprint) stay byte-identical.
  return num_banks == 1 ? std::string("dir") : "dir" + std::to_string(bank);
}
}  // namespace

Directory::Directory(std::uint32_t num_procs, std::uint32_t bank,
                     std::uint32_t num_banks, const CacheConfig& cache_cfg,
                     const MemConfig& mem_cfg, Network& net, FlatMemory& mem,
                     SharingLedger& ledger, std::pmr::memory_resource* arena)
    : num_procs_(num_procs),
      bank_(bank),
      num_banks_(num_banks),
      line_bytes_(cache_cfg.line_bytes),
      service_delay_(mem_cfg.dir_latency),
      sharer_params_(SharerSetParams::from(mem_cfg, num_procs)),
      self_(Network::directory_endpoint(num_procs, bank)),
      net_(net),
      mem_(mem),
      ledger_(ledger),
      txns_(arena),
      replay_(0, arena),
      stats_(bank_stat_prefix(bank, num_banks), 0, arena) {
  assert(bank < num_banks);
  txns_.reserve(num_procs / num_banks + 1);
}

Directory::Entry& Directory::entry(Addr line) {
  auto [it, inserted] = entries_.try_emplace(align(line));
  if (inserted) it->second.sharers = SharerSet(sharer_params_);
  return it->second;
}

void Directory::read_line(Addr line, Message::LineData& out) const {
  mem_.read_words(line, std::span<Word>(out.data(), line_bytes_ / kWordBytes));
}

void Directory::write_line(Addr line, const Message::LineData& data) {
  mem_.write_words(line, std::span<const Word>(data.data(), line_bytes_ / kWordBytes));
}

void Directory::preload(Addr line, State st, ProcId proc) {
  Entry& e = entry(align(line));
  // A Shared preload into a Shared line joins the sharers: every cache
  // preloaded with the line holds a copy a later write must invalidate.
  if (st != State::kShared || e.state != State::kShared) e.sharers.clear();
  e.state = st;
  if (st == State::kShared) {
    e.sharers.add(proc);
    e.owner = kNoProc;
  } else if (st == State::kDirty) {
    e.owner = proc;
  } else {
    e.owner = kNoProc;
  }
}

Directory::State Directory::line_state(Addr line) const {
  auto it = entries_.find(align(line));
  return it == entries_.end() ? State::kUncached : it->second.state;
}

std::uint64_t Directory::sharers(Addr line) const {
  auto it = entries_.find(align(line));
  return it == entries_.end() ? 0 : it->second.sharers.low_mask();
}

ProcId Directory::owner(Addr line) const {
  auto it = entries_.find(align(line));
  return it == entries_.end() ? kNoProc : it->second.owner;
}

void Directory::tick(Cycle now) {
  Message msg;
  while (net_.recv(self_, msg)) handle(msg, now);
}

Message Directory::message(MsgType type, EndpointId dst, Addr line) const {
  Message msg;
  msg.type = type;
  msg.src = self_;
  msg.dst = dst;
  msg.line_addr = line;
  return msg;
}

void Directory::reply_line(MsgType type, const Message& req, Cycle now) {
  Message reply = message(type, req.src, req.line_addr);
  read_line(req.line_addr, reply.data);
  send(std::move(reply), now);
}

void Directory::reply_read(Entry& e, const Message& req, Cycle now) {
  reply_line(MsgType::kReadReply, req, now);
  e.state = State::kShared;
  e.sharers.add(static_cast<ProcId>(req.src));
  e.owner = kNoProc;
  if (profile_) {
    const std::uint32_t degree = e.sharers.count();
    ledger_.on_read_share(req.line_addr, degree);
    stats_.sample(prof::sh_read_share, degree);
  }
}

void Directory::reply_read_ex(Entry& e, const Message& req, Cycle now) {
  reply_line(MsgType::kReadExReply, req, now);
  e.state = State::kDirty;
  e.sharers.clear();
  e.owner = req.src;
  if (profile_) ledger_.on_exclusive_grant(req.line_addr, static_cast<ProcId>(req.src));
}

void Directory::recall(Entry& e, const Message& req, bool exclusive, Cycle now) {
  open_txn(e, exclusive ? Txn::Kind::kRecallForEx : Txn::Kind::kRecallForRead, req, now);
  // A recall-for-exclusive is a fan-out-1 invalidation round aimed at
  // the current owner.
  if (exclusive) note_round(/*update=*/false, req.line_addr, 1, now);
  Message msg = message(MsgType::kRecall, e.owner, req.line_addr);
  msg.recall_exclusive = exclusive;
  send(std::move(msg), now);
}

Directory::Txn& Directory::fan_out(Entry& e, Txn::Kind kind, const Message& req,
                                   const Message& copy, Cycle now) {
  Txn& txn = open_txn(e, kind, req, now);
  e.sharers.for_each_other(static_cast<ProcId>(req.src), [&](ProcId p) {
    ++txn.acks_left;
    Message msg = copy;
    msg.dst = p;
    send(std::move(msg), now);
  });
  note_round(kind == Txn::Kind::kGatherUpdateAcks, req.line_addr, txn.acks_left, now);
  return txn;
}

void Directory::note_round(bool update, Addr line, std::uint32_t fanout, Cycle now) {
  if (!profile_) return;
  if (update) {
    ledger_.on_update_round(line, fanout);
    stats_.sample(prof::sh_upd_fanout, fanout);
  } else {
    ledger_.on_invalidation_round(line, fanout);
    stats_.sample(prof::sh_inv_fanout, fanout);
  }
  if (events_ != nullptr && events_->enabled())
    events_->counter(update ? ev::upd_fanout : ev::inv_fanout, track_, now, fanout);
}

void Directory::finish_word_op(const Message& req, Word old, Cycle now) {
  const bool rmw = req.type == MsgType::kRmwReq;
  Message reply = message(rmw ? MsgType::kRmwReply : MsgType::kUpdateDone, req.src,
                          req.line_addr);
  reply.txn = req.txn;
  if (rmw) {
    reply.word_addr = req.word_addr;
    reply.word_value = old;
  }
  send(std::move(reply), now);
}

void Directory::handle(const Message& msg, Cycle now) {
  const Addr line = msg.line_addr;
  Entry& e = entry(line);

  if (e.txn != kNoTxn) {
    Txn& txn = txns_[e.txn];
    switch (msg.type) {
      case MsgType::kInvAck:
        assert(txn.kind == Txn::Kind::kGatherInvAcks);
        assert(txn.acks_left > 0);
        if (--txn.acks_left == 0) finish_txn(e, now);
        return;
      case MsgType::kUpdateAck:
        assert(txn.kind == Txn::Kind::kGatherUpdateAcks);
        assert(txn.acks_left > 0);
        if (--txn.acks_left == 0) finish_txn(e, now);
        return;
      case MsgType::kRecallAck:
        assert(txn.kind == Txn::Kind::kRecallForRead ||
               txn.kind == Txn::Kind::kRecallForEx);
        write_line(line, msg.data);
        finish_txn(e, now);
        return;
      case MsgType::kWriteback:
        // The owner's eviction crossed our recall: treat the writeback
        // as the recall acknowledgment.
        if ((txn.kind == Txn::Kind::kRecallForRead || txn.kind == Txn::Kind::kRecallForEx) &&
            msg.src == e.owner) {
          write_line(line, msg.data);
          finish_txn(e, now);
        }
        return;
      case MsgType::kReplaceNotify:
        e.sharers.remove(static_cast<ProcId>(msg.src));
        return;
      default:
        // New request for a busy line: defer in arrival order.
        txn.deferred.push(Deferred{msg, now});
        stats_.add(stat::deferred);
        return;
    }
  }
  handle_request(e, msg, now);
}

Directory::Txn& Directory::open_txn(Entry& e, Txn::Kind kind, const Message& req,
                                    Cycle now) {
  std::uint32_t id = free_txn_;
  if (id == kNoTxn) {
    id = static_cast<std::uint32_t>(txns_.size());
    txns_.emplace_back(txns_.get_allocator().resource());
  } else {
    free_txn_ = txns_[id].next_free;
  }
  Txn& txn = txns_[id];
  assert(!txn.open && txn.deferred.empty());
  txn.kind = kind;
  txn.open = true;
  txn.request = req;
  txn.acks_left = 0;
  txn.started_at = now;
  e.txn = id;
  ++open_txns_;
  return txn;
}

void Directory::handle_request(Entry& e, const Message& msg, Cycle now) {
  const Addr line = msg.line_addr;
  // Does a processor other than the requester hold a shared copy?
  const auto others_share = [&] {
    return e.state == State::kShared && e.sharers.count_other(static_cast<ProcId>(msg.src)) != 0;
  };

  switch (msg.type) {
    case MsgType::kReadReq:
      if (e.state == State::kDirty)
        recall(e, msg, /*exclusive=*/false, now);
      else
        reply_read(e, msg, now);
      break;

    case MsgType::kReadExReq:
      if (e.state == State::kDirty && e.owner != msg.src) {
        recall(e, msg, /*exclusive=*/true, now);
      } else if (others_share()) {
        fan_out(e, Txn::Kind::kGatherInvAcks, msg, message(MsgType::kInvalidate, 0, line), now);
      } else {
        // Uncached, shared by the requester alone, or the stale corner
        // of an owner re-requesting after its crossing writeback was
        // processed: grant at once.
        reply_read_ex(e, msg, now);
      }
      break;

    case MsgType::kWriteback: {
      if (e.state == State::kDirty && e.owner == msg.src) {
        write_line(line, msg.data);
        e.state = State::kUncached;
        e.owner = kNoProc;
        e.sharers.clear();
      }
      // Otherwise stale (already recalled); data is older than memory.
      break;
    }

    case MsgType::kReplaceNotify: {
      if (e.state == State::kShared) {
        e.sharers.remove(static_cast<ProcId>(msg.src));
        if (e.sharers.empty()) e.state = State::kUncached;
      }
      break;
    }

    case MsgType::kInvAck:
    case MsgType::kUpdateAck:
    case MsgType::kRecallAck:
      assert(false && "ack with no transaction in progress");
      break;

    case MsgType::kUpdateReq:
    case MsgType::kRmwReq: {
      // Update protocol: the word op is performed at the memory module
      // (an RMW's atomic too), the new word goes to every other sharer,
      // and the writer is answered once every ack is back.
      const bool rmw = msg.type == MsgType::kRmwReq;
      const Word old = rmw ? mem_.read(msg.word_addr) : 0;
      const Word value =
          rmw ? apply_rmw(static_cast<RmwOp>(msg.rmw_op), old, msg.rmw_cmp, msg.rmw_src)
              : msg.word_value;
      mem_.write(msg.word_addr, value);
      if (!others_share()) {
        finish_word_op(msg, old, now);
        break;
      }
      Message upd = message(MsgType::kUpdate, 0, line);
      upd.word_addr = msg.word_addr;
      upd.word_value = value;
      Txn& txn = fan_out(e, Txn::Kind::kGatherUpdateAcks, msg, upd, now);
      txn.request.word_value = old;  // for an RMW's reply, once the acks are in
      break;
    }

    default:
      assert(false && "unexpected message at directory");
      break;
  }
}

void Directory::finish_txn(Entry& e, Cycle now) {
  const std::uint32_t id = e.txn;
  Txn& txn = txns_[id];

  if (events_ != nullptr && events_->enabled()) {
    events_->complete(txn_event_name(static_cast<int>(txn.kind)), track_,
                      txn.started_at, now);
  }

  switch (txn.kind) {
    case Txn::Kind::kGatherInvAcks:
      e.sharers.clear();
      reply_read_ex(e, txn.request, now);
      break;
    case Txn::Kind::kRecallForRead:
      e.state = State::kShared;
      e.sharers.clear();
      e.sharers.add(e.owner);
      e.owner = kNoProc;
      reply_read(e, txn.request, now);
      break;
    case Txn::Kind::kRecallForEx:
      e.state = State::kUncached;
      e.sharers.clear();
      e.owner = kNoProc;
      reply_read_ex(e, txn.request, now);
      break;
    case Txn::Kind::kGatherUpdateAcks:
      finish_word_op(txn.request, txn.request.word_value, now);
      break;
  }

  // Close the slot and take its wait queue; the slot keeps replay_'s
  // empty buffer for its next transaction.
  txn.open = false;
  e.txn = kNoTxn;
  --open_txns_;
  txn.next_free = free_txn_;
  free_txn_ = id;
  replay_.swap(txn.deferred);

  // Replay deferred requests in arrival order until one re-busies the
  // line, then hand the rest, first arrival cycles intact, to the new
  // transaction in one move.
  while (!replay_.empty()) {
    const Deferred d = replay_.pop();
    if (profile_) stats_.sample(prof::dir_queue_wait, now - d.arrived);
    handle_request(e, d.msg, now);
    if (e.txn != kNoTxn) {
      FixedQueue<Deferred>& next = txns_[e.txn].deferred;
      assert(next.empty() && "handle_request deferred a replayed request");
      next.swap(replay_);
      return;
    }
  }
}

Json Directory::snapshot_json() const {
  Json out = Json::array();
  for (const Txn& txn : txns_) {
    if (!txn.open) continue;
    Json j = Json::object();
    j.set("line", Json::number(static_cast<std::uint64_t>(txn.request.line_addr)));
    j.set("kind", Json::string(txn_kind_name(static_cast<int>(txn.kind))));
    j.set("requester", Json::number(static_cast<std::uint64_t>(txn.request.src)));
    j.set("acks_left", Json::number(static_cast<std::uint64_t>(txn.acks_left)));
    j.set("started_at", Json::number(static_cast<std::uint64_t>(txn.started_at)));
    j.set("deferred", Json::number(static_cast<std::uint64_t>(txn.deferred.size())));
    if (num_banks_ > 1) j.set("bank", Json::number(static_cast<std::uint64_t>(bank_)));
    out.push_back(std::move(j));
  }
  return out;
}

// --- DirectoryGroup --------------------------------------------------

DirectoryGroup::DirectoryGroup(std::uint32_t num_procs, const CacheConfig& cache_cfg,
                               const MemConfig& mem_cfg, Network& net,
                               std::pmr::memory_resource* arena)
    : line_bytes_(cache_cfg.line_bytes), mem_(mem_cfg.mem_bytes), banks_(arena) {
  banks_.reserve(mem_cfg.dir_banks);
  for (std::uint32_t b = 0; b < mem_cfg.dir_banks; ++b)
    banks_.emplace_back(num_procs, b, mem_cfg.dir_banks, cache_cfg, mem_cfg, net, mem_,
                        ledger_, arena);
}

Json DirectoryGroup::contended_lines_json(std::size_t n) const {
  Json out = Json::array();
  for (const SharingLedger::TopEntry& e : ledger_.top(n)) {
    Json j = Json::object();
    j.set("line", Json::number(static_cast<std::uint64_t>(e.line)));
    j.set("score", Json::number(e.s.contention_score()));
    j.set("inv_rounds", Json::number(e.s.inv_rounds));
    j.set("inv_sent", Json::number(e.s.inv_sent));
    j.set("upd_rounds", Json::number(e.s.upd_rounds));
    j.set("upd_sent", Json::number(e.s.upd_sent));
    j.set("ping_pong", Json::number(e.s.ping_pong));
    j.set("reads", Json::number(e.s.reads));
    j.set("max_sharers", Json::number(static_cast<std::uint64_t>(e.s.max_sharers)));
    j.set("home_bank", Json::number(static_cast<std::uint64_t>(home_bank(e.line))));
    out.push_back(std::move(j));
  }
  return out;
}

Json DirectoryGroup::snapshot_json() const {
  Json out = Json::array();
  for (const Directory& b : banks_) {
    // Bind the snapshot: items() is a reference into it, and iterating
    // a temporary's items() is a use-after-scope.
    const Json bank_rows = b.snapshot_json();
    for (const Json& row : bank_rows.items()) out.push_back(row);
  }
  return out;
}

}  // namespace mcsim
