// Deterministic interconnect behind one delivery contract: messages
// between any ordered (src, dst) pair are delivered FIFO, which the
// coherence protocol relies on — a directory reply never overtakes a
// later invalidation for the same line.
//
// Three topologies implement that contract (common/config.hpp):
//
//  * crossbar (default): point-to-point with a fixed one-way latency
//    and an optional per-endpoint delivery bandwidth — the paper's
//    fixed-latency, unlimited-bandwidth memory system;
//  * ring: bidirectional ring, shortest-direction routing (clockwise
//    on ties), one cycle per hop;
//  * mesh2d: 2D mesh of routers, deterministic XY (x first) routing,
//    one cycle per hop.
//
// Ring and mesh route hop-by-hop through per-link FIFO queues with a
// finite per-cycle link bandwidth (`link_bw`) and a finite queue depth
// (`link_queue`): a full or saturated downstream link back-pressures
// the upstream one, so delivery latency is hop count plus queuing
// instead of a constant. Per-pair FIFO holds by construction: routing
// is deterministic (one path per pair), every queue is FIFO, and
// injection is in send order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>
#include <vector>

#include "common/config.hpp"
#include "common/fixed_queue.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/trace_event.hpp"
#include "common/types.hpp"
#include "interconnect/message.hpp"

namespace mcsim {

class Network {
 public:
  /// `endpoints` = number of processors + number of directory banks.
  /// `deliver_bw` caps messages delivered per endpoint per cycle
  /// (0 = unlimited, the paper's assumption). `link_bw`/`link_queue`
  /// only apply to the ring/mesh topologies (see MemConfig).
  /// The message pool, the inboxes and the crossbar's queues come from
  /// `arena`.
  Network(std::uint32_t endpoints, std::uint32_t latency, std::uint32_t deliver_bw = 0,
          Topology topology = Topology::kCrossbar, std::uint32_t link_bw = 1,
          std::uint32_t link_queue = 8,
          std::pmr::memory_resource* arena = std::pmr::get_default_resource());

  /// Endpoint id of directory bank `bank` (banks follow the processors,
  /// so on a ring/mesh each bank is its own home node).
  static EndpointId directory_endpoint(std::uint32_t num_procs, std::uint32_t bank = 0) {
    return num_procs + bank;
  }

  std::uint32_t latency() const { return latency_; }
  Topology topology() const { return topology_; }
  /// Directed links in the topology (0 for the crossbar).
  std::size_t num_links() const { return links_.size(); }
  /// Hops a message from `src` to `dst` traverses (1 for the crossbar).
  std::uint32_t route_hops(EndpointId src, EndpointId dst) const;

  /// Inject a message at cycle `now`; it becomes visible to the
  /// destination's inbox at `now + latency + extra_delay` (crossbar)
  /// or after `latency + extra_delay + hops` plus queuing (ring/mesh —
  /// the configured latency is charged as injection delay). The
  /// directory uses `extra_delay` to model its service time. `now` must
  /// never decrease across calls (a machine's clock only moves forward).
  void send(Message&& msg, Cycle now, std::uint32_t extra_delay = 0);

  /// Move messages whose delivery time has arrived into per-endpoint
  /// inboxes (crossbar), or advance every link by one cycle and eject
  /// arrivals (ring/mesh). Call once per cycle before endpoints tick.
  void deliver(Cycle now);

  /// Drain one delivered message for `ep`; returns false when empty.
  bool recv(EndpointId ep, Message& out);

  /// Undrained messages sitting in `ep`'s inbox (active-set scheduler
  /// start-up: an endpoint with inboxed traffic must tick immediately).
  bool inbox_empty(EndpointId ep) const { return inboxes_[ep].count == 0; }

  /// Active-set scheduler: called with the destination endpoint every
  /// time deliver() lands a message in an inbox, so the machine can
  /// arm the receiving cache/bank for the current cycle. Unset (the
  /// default) costs one branch per delivery.
  void set_delivery_hook(std::function<void(EndpointId)> fn) {
    delivery_hook_ = std::move(fn);
  }

  /// Earliest future cycle at which deliver() itself can move a
  /// message — next_event() minus the inboxed-message term (inboxed
  /// traffic is the *receiving endpoint's* business; the delivery hook
  /// armed it when the message landed). Never less than `now`:
  /// bandwidth-deferred and on-link messages answer `now` because they
  /// move on the very next deliver() call. O(1) for the crossbar.
  Cycle deliver_next_event(Cycle now) const;

  /// O(1): no messages in flight or undelivered (counter updated in
  /// send/deliver/recv; audited against the scanned truth in debug
  /// builds and by debug_scan_undelivered()).
  bool idle() const;

  /// Earliest future cycle at which deliver() can move a message, for
  /// the fast-forward scheduler; kCycleNever when fully quiescent.
  /// Returns `now` whenever anything is already actionable: an inbox
  /// holds undrained messages, a bandwidth-deferred message is parked
  /// in a stall queue, or a routed message sits on a link (hop-by-hop
  /// movement can be gated only by other on-fabric traffic, which is
  /// itself actionable). Otherwise the crossbar's answer is the earliest
  /// lane front's deliver_at and the routed fabric's is the min ready_at over
  /// injection-queue fronts (injection is head-of-line FIFO, so only
  /// fronts can act). That is deliver_next_event() plus the inboxed
  /// term, so it is never less than `now` either. O(1) for the
  /// crossbar, O(routers) for ring/mesh.
  Cycle next_event(Cycle now) const;

  /// The scanned ground truth behind idle()'s counter: every message
  /// currently inside the network (tests assert it equals the counter).
  std::uint64_t debug_scan_undelivered() const;

  /// Per-link trace-event spans (one complete event per message per
  /// link residence) on tracks `first_track .. first_track+num_links-1`.
  void set_event_sink(TraceEventSink* sink, std::uint16_t first_track);
  /// Register the link tracks' names ("link A->B") on the sink.
  void name_tracks();

  /// In-flight and undelivered messages, for deadlock post-mortems.
  Json snapshot_json() const;

  const StatSet& stats() const { return stats_; }
  StatSet& stats() { return stats_; }

 private:
  /// A crossbar message in flight. The message waits in pool_[slot], so
  /// queues move this 32-byte key and never the line payload.
  struct InFlight {
    Cycle deliver_at = 0;
    std::uint64_t seq = 0;  ///< injection order, for deterministic ties
    Cycle sent_at = 0;      ///< injection cycle, for the latency histogram
    std::uint32_t slot = 0;
    bool before(const InFlight& o) const {
      return deliver_at != o.deliver_at ? deliver_at < o.deliver_at : seq < o.seq;
    }
  };

  /// The crossbar's in-flight messages that share one extra_delay, in
  /// send order. Every one of them has deliver_at = sent_at + latency +
  /// extra_delay, and the send cycle never decreases, so send order is
  /// already (deliver_at, seq) order: the lane is a plain FIFO.
  struct Lane {
    Lane(std::uint32_t delay, std::pmr::memory_resource* arena) : extra_delay(delay), q(0, arena) {}
    std::uint32_t extra_delay;
    FixedQueue<InFlight> q;
  };

  /// A message inside the routed (ring/mesh) fabric: in a router's
  /// injection queue or a link's FIFO.
  struct Transit {
    Cycle ready_at;    ///< earliest deliver() cycle that may advance it
    Cycle entered_at;  ///< cycle it entered the current queue (spans)
    Cycle sent_at;
    std::uint64_t seq;
    std::uint32_t dst_router;
    std::uint32_t hops = 0;       ///< links traversed so far
    std::uint32_t base_delay;     ///< 1 + extra_delay: contention-free
                                  ///< latency minus the hop count
    std::uint32_t slot;           ///< the message, in pool_
  };

  /// One directed channel between adjacent routers.
  struct Link {
    std::uint32_t from = 0, to = 0;  ///< router ids
    std::deque<Transit> q;
    std::uint16_t track = 0;         ///< trace-event track (sink set)
  };

  static constexpr std::uint32_t kNoLink = 0xffffffffu;

  void build_ring(std::uint32_t endpoints);
  void build_mesh(std::uint32_t endpoints);
  void add_link(std::uint32_t from, std::uint32_t to);
  /// Fill next_link_ from a per-router next-router rule.
  template <typename NextRouterFn>
  void build_routes(NextRouterFn next_router);

  void deliver_crossbar(Cycle now);
  /// Index of the lane whose front delivers next under (deliver_at,
  /// seq); lanes_.size() when nothing is in flight. O(lanes), and there
  /// are one or two.
  std::size_t next_lane() const;
  /// Pop the next in-flight message into `out` if it is due by `now`.
  bool pop_due(Cycle now, InFlight& out);
  void deliver_routed(Cycle now);
  /// Move `msg` into a free pool slot (reusing released ones first).
  std::uint32_t park(Message&& msg);
  /// Queue pool slot `slot` in its destination's inbox.
  void deliver_to_inbox(Cycle now, Cycle sent_at, std::uint32_t slot);
  /// Eject or forward one link-head transit; false = head blocked.
  bool advance_head(Cycle now, std::size_t li);
  /// Try to admit `t` onto link `li` (bandwidth + queue-depth checks);
  /// updates and enqueues `t` only on success.
  bool enter_link(Cycle now, std::size_t li, Transit& t);

  std::uint32_t next_link(std::uint32_t router, std::uint32_t dst_router) const {
    return next_link_[router * num_routers_ + dst_router];
  }

  std::uint32_t latency_;
  std::uint32_t deliver_bw_;
  Topology topology_;
  std::uint32_t link_bw_;
  std::uint32_t link_queue_;
  std::uint64_t next_seq_ = 0;
  /// Messages inside the network or an inbox; send ++, recv --.
  std::uint64_t undelivered_ = 0;

  static constexpr std::uint32_t kNoSlot = ~0u;
  /// A pool slot: a message, and the next slot of the inbox or free
  /// list it is on.
  struct Slot {
    Message msg;
    std::uint32_t next = kNoSlot;
  };
  /// Every message between send() and recv(), by slot: the lanes and the
  /// stall and link queues hold slot numbers, and the inboxes are lists
  /// through the slots. recv() releases the slot onto the free list (a
  /// stack, from free_slot_) for reuse. Room for two messages per
  /// endpoint; it grows only to the high-water mark of messages in the
  /// network, so steady traffic allocates nothing. It lives on the heap,
  /// not in the arena, so that each outgrown copy is freed.
  std::pmr::vector<Slot> pool_;
  std::uint32_t free_slot_ = kNoSlot;

  // --- crossbar state ------------------------------------------------
  /// One lane per distinct extra_delay, created on first use: caches
  /// send with 0 and directory banks with dir_latency.
  std::pmr::vector<Lane> lanes_;
  std::uint64_t in_lanes_ = 0;  ///< messages across all lanes
  /// Bandwidth-deferred messages parked per endpoint in delivery order
  /// ((deliver_at, seq)), re-tried before the lanes next cycle.
  std::pmr::vector<FixedQueue<InFlight>> stalled_;
  std::uint64_t stalled_total_ = 0;

  // --- ring/mesh state ----------------------------------------------
  std::uint32_t num_routers_ = 0;
  std::uint32_t mesh_w_ = 0, mesh_h_ = 0;
  std::vector<Link> links_;
  std::vector<std::uint32_t> next_link_;        ///< [router][dst_router]
  std::vector<std::deque<Transit>> inject_;     ///< per source router
  std::uint64_t in_fabric_ = 0;                 ///< inject + link queues
  std::uint64_t in_links_ = 0;                  ///< link queues only
  std::vector<std::uint32_t> link_used_;        ///< per-cycle entries, scratch

  std::vector<std::uint32_t> delivered_;        ///< per-endpoint scratch
  /// Pool slots delivered to one endpoint and not yet received, in
  /// delivery order: a list from `first` to `last`.
  struct Inbox {
    std::uint32_t first = kNoSlot;
    std::uint32_t last = kNoSlot;
    std::uint32_t count = 0;
  };
  std::pmr::vector<Inbox> inboxes_;
  std::function<void(EndpointId)> delivery_hook_;
  TraceEventSink* events_ = nullptr;
  StatSet stats_;
};

}  // namespace mcsim
