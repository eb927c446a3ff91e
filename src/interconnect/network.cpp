#include "interconnect/network.hpp"

#include <cassert>
#include <cmath>
#include <string>

namespace mcsim {

namespace {
// Stat names interned once at static-init; hot paths use the ids.
namespace stat {
const StatId messages_delivered = StatNames::intern("messages_delivered");
const StatId messages_sent = StatNames::intern("messages_sent");
/// Send-to-delivery histogram; exceeds the base latency exactly when
/// bandwidth limits or link queuing delay the message.
const StatId msg_latency = StatNames::intern("msg_latency");
/// Links traversed per delivered message (ring/mesh only).
const StatId msg_hops = StatNames::intern("msg_hops");
/// Cycles a delivered message spent queued beyond its contention-free
/// latency (ring/mesh only; 0 on an idle fabric).
const StatId msg_queuing = StatNames::intern("msg_queuing");
/// Total link traversals started (ring/mesh only).
const StatId link_forwarded = StatNames::intern("link_forwarded");

/// Per-type trace-event span names, resolved on first use.
TraceEventSink::NameId span_name(MsgType t) {
  static const std::vector<TraceEventSink::NameId> ids = [] {
    std::vector<TraceEventSink::NameId> v;
    for (int i = 0; i <= static_cast<int>(MsgType::kRmwReply); ++i)
      v.push_back(TraceEventSink::name_id(to_string(static_cast<MsgType>(i))));
    return v;
  }();
  return ids[static_cast<std::size_t>(t)];
}
}  // namespace stat
}  // namespace

Network::Network(std::uint32_t endpoints, std::uint32_t latency,
                 std::uint32_t deliver_bw, Topology topology, std::uint32_t link_bw,
                 std::uint32_t link_queue, std::pmr::memory_resource* arena)
    : latency_(latency),
      deliver_bw_(deliver_bw),
      topology_(topology),
      link_bw_(link_bw),
      link_queue_(link_queue),
      pool_(std::pmr::get_default_resource()),
      lanes_(arena),
      stalled_(arena),
      inboxes_(endpoints, arena),
      // msg_latency; msg_hops and msg_queuing on a routed fabric.
      stats_("net", topology == Topology::kCrossbar ? 1 : 3, arena) {
  assert(endpoints >= 2);
  assert(latency >= 1);
  pool_.reserve(2 * std::size_t{endpoints});
  if (topology_ == Topology::kCrossbar) {
    // Caches send with no extra delay, directory banks with theirs.
    lanes_.reserve(2);
    if (deliver_bw_ != 0) {
      stalled_.reserve(endpoints);
      for (std::uint32_t ep = 0; ep < endpoints; ++ep) stalled_.emplace_back(0, arena);
    }
  } else {
    assert(link_queue_ >= 1);
    if (topology_ == Topology::kRing) build_ring(endpoints);
    else build_mesh(endpoints);
    inject_.resize(num_routers_);
    link_used_.resize(links_.size());
  }
  if (deliver_bw_ != 0 || topology_ != Topology::kCrossbar) delivered_.resize(endpoints);
}

void Network::add_link(std::uint32_t from, std::uint32_t to) {
  Link& l = links_.emplace_back();
  l.from = from;
  l.to = to;
}

template <typename NextRouterFn>
void Network::build_routes(NextRouterFn next_router) {
  // Dense (from, to) -> link-index lookup for route building (cold).
  std::vector<std::uint32_t> by_pair(
      static_cast<std::size_t>(num_routers_) * num_routers_, kNoLink);
  for (std::size_t i = 0; i < links_.size(); ++i)
    by_pair[links_[i].from * num_routers_ + links_[i].to] =
        static_cast<std::uint32_t>(i);
  next_link_.assign(static_cast<std::size_t>(num_routers_) * num_routers_, kNoLink);
  for (std::uint32_t r = 0; r < num_routers_; ++r) {
    for (std::uint32_t d = 0; d < num_routers_; ++d) {
      if (r == d) continue;
      std::uint32_t n = next_router(r, d);
      next_link_[r * num_routers_ + d] = by_pair[r * num_routers_ + n];
      assert(next_link_[r * num_routers_ + d] != kNoLink);
    }
  }
}

void Network::build_ring(std::uint32_t endpoints) {
  num_routers_ = endpoints;
  const std::uint32_t n = num_routers_;
  for (std::uint32_t r = 0; r < n; ++r) {
    add_link(r, (r + 1) % n);            // clockwise
    if (n > 2) add_link(r, (r + n - 1) % n);  // counter-clockwise
  }
  build_routes([n](std::uint32_t r, std::uint32_t d) {
    const std::uint32_t fwd = (d + n - r) % n;   // clockwise distance
    const std::uint32_t bwd = n - fwd;           // counter-clockwise
    return fwd <= bwd ? (r + 1) % n : (r + n - 1) % n;
  });
}

void Network::build_mesh(std::uint32_t endpoints) {
  // Smallest near-square grid covering every endpoint; grid positions
  // past the last endpoint are plain routers without an attached
  // endpoint (XY routes may pass through them).
  mesh_w_ = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(endpoints))));
  mesh_h_ = (endpoints + mesh_w_ - 1) / mesh_w_;
  num_routers_ = mesh_w_ * mesh_h_;
  for (std::uint32_t r = 0; r < num_routers_; ++r) {
    const std::uint32_t x = r % mesh_w_, y = r / mesh_w_;
    if (x + 1 < mesh_w_) add_link(r, r + 1);
    if (x > 0) add_link(r, r - 1);
    if (y + 1 < mesh_h_) add_link(r, r + mesh_w_);
    if (y > 0) add_link(r, r - mesh_w_);
  }
  const std::uint32_t w = mesh_w_;
  build_routes([w](std::uint32_t r, std::uint32_t d) {
    const std::uint32_t rx = r % w, dx = d % w;
    if (rx < dx) return r + 1;       // X first (deterministic XY)
    if (rx > dx) return r - 1;
    return r / w < d / w ? r + w : r - w;
  });
}

std::uint32_t Network::route_hops(EndpointId src, EndpointId dst) const {
  if (topology_ == Topology::kCrossbar) return 1;
  std::uint32_t hops = 0, r = src;
  while (r != dst) {
    r = links_[next_link(r, dst)].to;
    ++hops;
  }
  return hops;
}

void Network::set_event_sink(TraceEventSink* sink, std::uint16_t first_track) {
  events_ = sink;
  for (std::size_t i = 0; i < links_.size(); ++i)
    links_[i].track = static_cast<std::uint16_t>(first_track + i);
}

void Network::name_tracks() {
  for (const Link& l : links_)
    events_->set_track(l.track, "link " + std::to_string(l.from) + "->" + std::to_string(l.to));
}

void Network::send(Message&& msg, Cycle now, std::uint32_t extra_delay) {
  assert(msg.dst < inboxes_.size());
  assert(msg.src != msg.dst);
  stats_.add(stat::messages_sent);
  ++undelivered_;
  const EndpointId src = msg.src, dst = msg.dst;
  const std::uint32_t slot = park(std::move(msg));
  if (topology_ == Topology::kCrossbar) {
    Lane* lane = nullptr;
    for (Lane& l : lanes_) {
      if (l.extra_delay == extra_delay) lane = &l;
    }
    if (lane == nullptr)
      lane = &lanes_.emplace_back(extra_delay, lanes_.get_allocator().resource());
    const InFlight f{now + latency_ + extra_delay, next_seq_++, now, slot};
    assert((lane->q.empty() || lane->q.back().before(f)) &&
           "crossbar send cycle went backwards");
    lane->q.push(f);
    ++in_lanes_;
    return;
  }
  Transit t;
  // The configured latency is charged up front as injection delay (wire
  // + serialization), so one-way latency = latency + hops + queuing and
  // a --miss sweep stays meaningful across topologies. latency >= 1
  // also keeps the contract that nothing delivers on its send cycle.
  t.ready_at = now + latency_ + extra_delay;
  t.entered_at = now;
  t.sent_at = now;
  t.seq = next_seq_++;
  t.dst_router = dst;
  t.base_delay = latency_ + extra_delay;
  t.slot = slot;
  inject_[src].push_back(t);
  ++in_fabric_;
}

void Network::deliver(Cycle now) {
  if (topology_ == Topology::kCrossbar) deliver_crossbar(now);
  else deliver_routed(now);
}

void Network::deliver_to_inbox(Cycle now, Cycle sent_at, std::uint32_t slot) {
  stats_.sample(stat::msg_latency, now - sent_at);
  const EndpointId dst = pool_[slot].msg.dst;
  if (!delivered_.empty()) ++delivered_[dst];
  Inbox& box = inboxes_[dst];
  pool_[slot].next = kNoSlot;
  if (box.first == kNoSlot)
    box.first = slot;
  else
    pool_[box.last].next = slot;
  box.last = slot;
  ++box.count;
  stats_.add(stat::messages_delivered);
  if (delivery_hook_) delivery_hook_(dst);
}

std::uint32_t Network::park(Message&& msg) {
  if (free_slot_ == kNoSlot) {
    pool_.push_back(Slot{std::move(msg)});
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  const std::uint32_t slot = free_slot_;
  free_slot_ = pool_[slot].next;
  pool_[slot].msg = std::move(msg);
  return slot;
}

std::size_t Network::next_lane() const {
  std::size_t best = lanes_.size();
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    if (!lanes_[li].q.empty() &&
        (best == lanes_.size() || lanes_[li].q.front().before(lanes_[best].q.front())))
      best = li;
  }
  return best;
}

bool Network::pop_due(Cycle now, InFlight& out) {
  const std::size_t li = next_lane();
  if (li == lanes_.size() || lanes_[li].q.front().deliver_at > now) return false;
  out = lanes_[li].q.pop();
  --in_lanes_;
  return true;
}

void Network::deliver_crossbar(Cycle now) {
  if (in_lanes_ == 0 && stalled_total_ == 0) return;  // hot idle path

  if (deliver_bw_ == 0) {
    // Unlimited bandwidth: nothing ever stalls, no per-endpoint counts.
    InFlight f;
    while (pop_due(now, f)) deliver_to_inbox(now, f.sent_at, f.slot);
    return;
  }

  delivered_.assign(delivered_.size(), 0);
  // Previously-deferred messages first: they left the lanes in
  // (deliver_at, seq) order on earlier cycles, and everything still in
  // a lane has deliver_at > their deferral cycle, so stall-queue-first
  // delivery keeps the global (deliver_at, seq) order per endpoint.
  if (stalled_total_ != 0) {
    for (EndpointId ep = 0; ep < stalled_.size(); ++ep) {
      auto& q = stalled_[ep];
      while (!q.empty() && delivered_[ep] < deliver_bw_) {
        const InFlight f = q.pop();
        --stalled_total_;
        deliver_to_inbox(now, f.sent_at, f.slot);
      }
    }
  }
  InFlight f;
  while (pop_due(now, f)) {
    const EndpointId dst = pool_[f.slot].msg.dst;
    if (delivered_[dst] >= deliver_bw_) {
      ++stalled_total_;
      stalled_[dst].push(f);
      continue;
    }
    deliver_to_inbox(now, f.sent_at, f.slot);
  }
}

bool Network::enter_link(Cycle now, std::size_t li, Transit& t) {
  Link& l = links_[li];
  if (link_bw_ != 0 && link_used_[li] >= link_bw_) return false;
  if (l.q.size() >= link_queue_) return false;
  ++link_used_[li];
  ++t.hops;
  t.entered_at = now;
  t.ready_at = now + 1;
  stats_.add(stat::link_forwarded);
  l.q.push_back(std::move(t));
  ++in_links_;
  return true;
}

bool Network::advance_head(Cycle now, std::size_t li) {
  Link& l = links_[li];
  Transit& t = l.q.front();
  if (t.ready_at > now) return false;
  if (l.to == t.dst_router) {
    // Final hop: eject into the endpoint inbox (per-endpoint delivery
    // bandwidth applies; a capped endpoint back-pressures this link).
    if (deliver_bw_ != 0 && delivered_[t.dst_router] >= deliver_bw_) return false;
    if (events_ != nullptr && events_->enabled())
      events_->complete(stat::span_name(pool_[t.slot].msg.type), l.track, t.entered_at, now);
    stats_.sample(stat::msg_hops, t.hops);
    stats_.sample(stat::msg_queuing, (now - t.sent_at) - (t.base_delay + t.hops));
    deliver_to_inbox(now, t.sent_at, t.slot);
    l.q.pop_front();
    --in_fabric_;
    --in_links_;
    return true;
  }
  const std::uint32_t nl = next_link(l.to, t.dst_router);
  Transit moved = t;
  const Cycle entered = moved.entered_at;
  if (!enter_link(now, nl, moved)) return false;  // blocked: head untouched
  if (events_ != nullptr && events_->enabled())
    events_->complete(stat::span_name(pool_[moved.slot].msg.type), l.track, entered, now);
  l.q.pop_front();
  --in_links_;
  return true;
}

void Network::deliver_routed(Cycle now) {
  if (in_fabric_ == 0) return;  // hot idle path
  link_used_.assign(link_used_.size(), 0);
  delivered_.assign(delivered_.size(), 0);

  // Phase 1: drain link heads in fixed link order — traffic already on
  // the fabric has priority over new injections, and a message that
  // advances gets ready_at = now + 1, so it moves at most one hop per
  // cycle regardless of processing order.
  for (std::size_t li = 0; li < links_.size(); ++li) {
    while (!links_[li].q.empty() && advance_head(now, li)) {
    }
  }
  // Phase 2: inject new messages onto their first link, per source
  // router in send order (head-of-line blocking keeps per-pair FIFO:
  // one deterministic path per pair, every queue FIFO).
  for (std::uint32_t r = 0; r < num_routers_; ++r) {
    auto& q = inject_[r];
    while (!q.empty() && q.front().ready_at <= now) {
      Transit& t = q.front();
      if (!enter_link(now, next_link(r, t.dst_router), t)) break;
      q.pop_front();
    }
  }
}

bool Network::recv(EndpointId ep, Message& out) {
  Inbox& box = inboxes_[ep];
  if (box.count == 0) return false;
  const std::uint32_t slot = box.first;
  box.first = pool_[slot].next;
  if (--box.count == 0) box.last = kNoSlot;
  out = std::move(pool_[slot].msg);
  pool_[slot].next = free_slot_;
  free_slot_ = slot;
  --undelivered_;
  return true;
}

std::uint64_t Network::debug_scan_undelivered() const {
  std::uint64_t n = stalled_total_ + in_fabric_;
  for (const Lane& l : lanes_) n += l.q.size();
  for (const Inbox& box : inboxes_) n += box.count;
  return n;
}

bool Network::idle() const {
#ifdef MCSIM_NET_AUDIT
  assert(undelivered_ == debug_scan_undelivered());
#endif
  return undelivered_ == 0;
}

Cycle Network::next_event(Cycle now) const {
#ifdef MCSIM_NET_AUDIT
  std::uint64_t scanned_links = 0;
  for (const Link& l : links_) scanned_links += l.q.size();
  assert(in_links_ == scanned_links);
#endif
  // Undrained inbox messages are actionable by their endpoint already.
  const std::uint64_t inboxed =
      undelivered_ - in_lanes_ - stalled_total_ - in_fabric_;
  return inboxed != 0 ? now : deliver_next_event(now);
}

Cycle Network::deliver_next_event(Cycle now) const {
  if (topology_ == Topology::kCrossbar) {
    if (stalled_total_ != 0) return now;
    const std::size_t li = next_lane();
    if (li == lanes_.size()) return kCycleNever;
    const Cycle at = lanes_[li].q.front().deliver_at;
    return at > now ? at : now;
  }
  // Routed fabric: anything on a link either moves next cycle or is
  // blocked by other link traffic, which is itself on a link — so a
  // non-empty link means "actionable now". With empty links, only the
  // injection-queue fronts can act (head-of-line FIFO injection; a
  // blocked front implies a non-empty downstream link, covered above).
  // The scan runs only while messages are pending injection with every
  // link empty — a short transient.
  if (in_fabric_ == 0) return kCycleNever;
  if (in_links_ != 0) return now;
  Cycle ne = kCycleNever;
  for (const auto& q : inject_) {
    if (!q.empty() && q.front().ready_at < ne) ne = q.front().ready_at;
  }
  return ne > now ? ne : now;
}

Json Network::snapshot_json() const {
  Json out = Json::object();
  out.set("topology", Json::string(to_string(topology_)));
  Json flight = Json::array();
  // Merge the lanes in delivery order (cold path).
  std::vector<std::size_t> cursor(lanes_.size(), 0);
  for (;;) {
    std::size_t best = lanes_.size();
    for (std::size_t li = 0; li < lanes_.size(); ++li) {
      if (cursor[li] == lanes_[li].q.size()) continue;
      if (best == lanes_.size() ||
          lanes_[li].q.at(cursor[li]).before(lanes_[best].q.at(cursor[best])))
        best = li;
    }
    if (best == lanes_.size()) break;
    const InFlight& f = lanes_[best].q.at(cursor[best]++);
    const Message& msg = pool_[f.slot].msg;
    Json j = Json::object();
    j.set("type", Json::string(to_string(msg.type)));
    j.set("src", Json::number(static_cast<std::uint64_t>(msg.src)));
    j.set("dst", Json::number(static_cast<std::uint64_t>(msg.dst)));
    j.set("line", Json::number(static_cast<std::uint64_t>(msg.line_addr)));
    j.set("sent_at", Json::number(static_cast<std::uint64_t>(f.sent_at)));
    j.set("deliver_at", Json::number(static_cast<std::uint64_t>(f.deliver_at)));
    flight.push_back(std::move(j));
  }
  for (const auto& q : stalled_) {
    for (std::size_t i = 0; i < q.size(); ++i) {
      const InFlight& f = q.at(i);
      const Message& msg = pool_[f.slot].msg;
      Json j = Json::object();
      j.set("type", Json::string(to_string(msg.type)));
      j.set("src", Json::number(static_cast<std::uint64_t>(msg.src)));
      j.set("dst", Json::number(static_cast<std::uint64_t>(msg.dst)));
      j.set("line", Json::number(static_cast<std::uint64_t>(msg.line_addr)));
      j.set("sent_at", Json::number(static_cast<std::uint64_t>(f.sent_at)));
      j.set("stalled", Json::boolean(true));
      flight.push_back(std::move(j));
    }
  }
  out.set("in_flight", std::move(flight));
  if (topology_ != Topology::kCrossbar) {
    Json links = Json::array();
    for (const Link& l : links_) {
      if (l.q.empty()) continue;  // post-mortems only need the busy ones
      Json j = Json::object();
      j.set("from", Json::number(static_cast<std::uint64_t>(l.from)));
      j.set("to", Json::number(static_cast<std::uint64_t>(l.to)));
      j.set("depth", Json::number(static_cast<std::uint64_t>(l.q.size())));
      Json msgs = Json::array();
      for (const Transit& t : l.q) {
        Json m = Json::object();
        const Message& msg = pool_[t.slot].msg;
        m.set("type", Json::string(to_string(msg.type)));
        m.set("src", Json::number(static_cast<std::uint64_t>(msg.src)));
        m.set("dst", Json::number(static_cast<std::uint64_t>(msg.dst)));
        m.set("sent_at", Json::number(static_cast<std::uint64_t>(t.sent_at)));
        m.set("hops", Json::number(static_cast<std::uint64_t>(t.hops)));
        msgs.push_back(std::move(m));
      }
      j.set("messages", std::move(msgs));
      links.push_back(std::move(j));
    }
    out.set("links", std::move(links));
    Json inj = Json::array();
    for (const auto& q : inject_)
      inj.push_back(Json::number(static_cast<std::uint64_t>(q.size())));
    out.set("inject_depths", std::move(inj));
  }
  Json boxes = Json::array();
  for (const Inbox& box : inboxes_)
    boxes.push_back(Json::number(static_cast<std::uint64_t>(box.count)));
  out.set("inbox_depths", std::move(boxes));
  return out;
}

}  // namespace mcsim
