#include "consistency/spec_load_buffer.hpp"

#include <sstream>

namespace mcsim {

void SpecLoadBuffer::mark_done(std::uint64_t seq, Word value, Cycle now) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_.at(i);
    if (e.seq == seq) {
      e.done = true;
      e.value = value;
      e.done_at = now;
      return;
    }
  }
}

void SpecLoadBuffer::nullify_store_tag(std::uint64_t store_seq) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_.at(i);
    if (e.store_tag == store_seq) e.store_tag = kNoTag;
  }
}

SpecLoadBuffer::MatchResult SpecLoadBuffer::on_line_event(LineEventKind /*kind*/,
                                                          Addr line) {
  // Every event kind is treated identically (conservatively): an
  // invalidation or update may have changed the value; a replacement
  // means we would no longer observe such a change (§4.2).
  MatchResult r;
  reissue_.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_.at(i);
    if (e.line != line) continue;
    if (e.nonspec) continue;  // performs at a model-legal point; immune
    if (e.done) {
      // Oldest done match: the speculated value may have been consumed
      // by later instructions; squash from the load itself.
      r.squash = true;
      r.squash_seq = e.seq;
      break;  // everything younger dies with the squash
    }
    // Not done: the initial return value must be discarded and the
    // load reissued; instructions after it have consumed nothing.
    reissue_.push_back(e.seq);
  }
  r.reissue = {reissue_.data(), reissue_.size()};
  return r;
}

std::size_t SpecLoadBuffer::squash_from(std::uint64_t seq) {
  // Entries are inserted in program order, so doomed entries are a
  // suffix of the FIFO.
  std::size_t keep = 0;
  while (keep < entries_.size() && entries_.at(keep).seq < seq) ++keep;
  const std::size_t dropped = entries_.size() - keep;
  entries_.pop_back_n(dropped);
  return dropped;
}

void SpecLoadBuffer::mark_reissued(std::uint64_t seq) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_.at(i);
    if (e.seq == seq) {
      e.done = false;
      e.value = 0;
      return;
    }
  }
}

void SpecLoadBuffer::mark_nonspec(std::uint64_t seq) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_.at(i);
    if (e.seq == seq) {
      e.nonspec = true;
      return;
    }
  }
}

const SpecLoadBuffer::Entry* SpecLoadBuffer::find(std::uint64_t seq) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_.at(i);
    if (e.seq == seq) return &e;
  }
  return nullptr;
}

std::string SpecLoadBuffer::dump() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_.at(i);
    os << "[seq=" << e.seq << " acq=" << (e.acq ? 1 : 0) << " done=" << (e.done ? 1 : 0)
       << " st_tag=";
    if (e.store_tag == kNoTag)
      os << "null";
    else
      os << e.store_tag;
    os << " addr=0x" << std::hex << e.addr << std::dec
       << (e.is_rmw_read ? " rmw" : "") << "]";
    if (i + 1 != entries_.size()) os << ' ';
  }
  return os.str();
}

}  // namespace mcsim
