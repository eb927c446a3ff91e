#include "consistency/prefetch_engine.hpp"

namespace mcsim {

namespace {
// Stat names interned once at static-init; hot paths use the ids.
namespace stat {
const StatId prefetch_ex_suppressed_update = StatNames::intern("prefetch_ex_suppressed_update");
}  // namespace stat
}  // namespace

bool PrefetchEngine::enqueue(Addr line, bool exclusive) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Pending& p = queue_.at(i);
    if (p.line == line) {
      p.exclusive = p.exclusive || exclusive;
      return true;  // already queued; caller should not offer again
    }
  }
  if (queue_.full()) return false;
  queue_.push(Pending{line, exclusive});
  return true;
}

bool PrefetchEngine::offer(Addr line, bool exclusive, bool allowed_now, StatSet& stats) {
  if (mode_ == PrefetchMode::kOff) return true;  // swallow: nothing will ever queue
  if (mode_ == PrefetchMode::kBinding && !allowed_now) {
    // A binding prefetch binds the value when it completes, so it may
    // not be issued any earlier than the access itself (§6).
    return false;  // keep offering; it may become allowed later
  }
  if (exclusive && protocol_ == CoherenceKind::kUpdate) {
    // §3.1: an update protocol cannot partially service a write.
    stats.add(stat::prefetch_ex_suppressed_update);
    return true;  // permanently not prefetchable; don't re-offer
  }
  return enqueue(line, exclusive);
}

bool PrefetchEngine::offer_software(Addr line, bool exclusive, StatSet& stats) {
  if (exclusive && protocol_ == CoherenceKind::kUpdate) {
    stats.add(stat::prefetch_ex_suppressed_update);
    return true;
  }
  return enqueue(line, exclusive);
}

bool PrefetchEngine::drain(CoherentCache& cache, Cycle now) {
  if (queue_.empty()) return false;
  Pending p = queue_.front();
  CacheRequest req;
  req.op = p.exclusive ? CacheOp::kPrefetchEx : CacheOp::kPrefetchShared;
  req.addr = p.line;
  req.token = 0;
  ProbeResult r = cache.probe(req, now);
  // MSHRs full: keep the prefetch queued, port was burned this cycle.
  if (r == ProbeResult::kRejected) return true;
  queue_.pop();
  return true;
}

}  // namespace mcsim
