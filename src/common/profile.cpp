#include "common/profile.hpp"

#include <algorithm>
#include <sstream>

namespace mcsim {

namespace prof {

const StatId pf_issued = StatNames::intern("pf.issued");
const StatId pf_useful = StatNames::intern("pf.useful");
const StatId pf_late = StatNames::intern("pf.late");
const StatId pf_useless = StatNames::intern("pf.useless");
const StatId pf_killed_inval = StatNames::intern("pf.killed_inval");
const StatId pf_killed_update = StatNames::intern("pf.killed_update");
const StatId pf_head_start = StatNames::intern("pf.head_start");
const StatId pf_use_distance = StatNames::intern("pf.use_distance");

const StatId rb_invalidate = StatNames::intern("rb.cause.invalidate");
const StatId rb_update = StatNames::intern("rb.cause.update");
const StatId rb_replacement = StatNames::intern("rb.cause.replacement");
const StatId rb_flush = StatNames::intern("rb.cause.flush");
const StatId rb_wasted = StatNames::intern("rb.wasted");
const StatId rb_squash_depth = StatNames::intern("rb.squash_depth");

const StatId sh_inv_fanout = StatNames::intern("sh.inv_fanout");
const StatId sh_upd_fanout = StatNames::intern("sh.upd_fanout");
const StatId sh_read_share = StatNames::intern("sh.read_share");

const StatId dir_queue_wait = StatNames::intern("queue_wait");

}  // namespace prof

void SharingLedger::on_invalidation_round(Addr line, std::uint32_t fanout) {
  LineSharing& s = lines_[line];
  ++s.inv_rounds;
  s.inv_sent += fanout;
}

void SharingLedger::on_update_round(Addr line, std::uint32_t fanout) {
  LineSharing& s = lines_[line];
  ++s.upd_rounds;
  s.upd_sent += fanout;
}

void SharingLedger::on_exclusive_grant(Addr line, ProcId to) {
  LineSharing& s = lines_[line];
  if (s.last_ex_owner != kNoProc && s.last_ex_owner != to) ++s.ping_pong;
  s.last_ex_owner = to;
}

void SharingLedger::on_read_share(Addr line, std::uint32_t sharers) {
  LineSharing& s = lines_[line];
  ++s.reads;
  s.max_sharers = std::max(s.max_sharers, sharers);
}

std::vector<SharingLedger::TopEntry> SharingLedger::top(std::size_t n) const {
  std::vector<TopEntry> all;
  all.reserve(lines_.size());
  for (const auto& [line, s] : lines_) all.push_back(TopEntry{line, s});
  std::sort(all.begin(), all.end(), [](const TopEntry& a, const TopEntry& b) {
    const std::uint64_t sa = a.s.contention_score();
    const std::uint64_t sb = b.s.contention_score();
    if (sa != sb) return sa > sb;
    return a.line < b.line;
  });
  if (all.size() > n) all.resize(n);
  return all;
}

std::string SharingLedger::fingerprint() const {
  // Address-sorted full dump: any divergence in any per-line counter
  // between the fast-forward run and the naive twin shows up here.
  std::vector<TopEntry> all;
  all.reserve(lines_.size());
  for (const auto& [line, s] : lines_) all.push_back(TopEntry{line, s});
  std::sort(all.begin(), all.end(),
            [](const TopEntry& a, const TopEntry& b) { return a.line < b.line; });
  std::ostringstream os;
  for (const TopEntry& e : all) {
    os << "ledger line=" << e.line << " inv=" << e.s.inv_rounds << '/' << e.s.inv_sent
       << " upd=" << e.s.upd_rounds << '/' << e.s.upd_sent
       << " pp=" << e.s.ping_pong << " reads=" << e.s.reads
       << " max_sharers=" << e.s.max_sharers << '\n';
  }
  return os.str();
}

}  // namespace mcsim
