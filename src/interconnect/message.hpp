// Coherence-protocol message vocabulary exchanged between the private
// caches and the directory/memory module (DASH-style, paper §3.1).
#pragma once

#include <array>
#include <cstdint>

#include "common/types.hpp"

namespace mcsim {

/// Network endpoint: caches use their ProcId; the directory is the
/// endpoint one past the last processor (see Network::directory_endpoint).
using EndpointId = std::uint32_t;

enum class MsgType : std::uint8_t {
  // cache -> directory
  kReadReq,        ///< fetch line in shared state
  kReadExReq,      ///< fetch line with exclusive ownership
  kWriteback,      ///< evict dirty line; carries data
  kReplaceNotify,  ///< evict clean shared line (keeps directory exact)
  kInvAck,         ///< acknowledge an invalidation
  kRecallAck,      ///< owner returns dirty data on a recall; carries data
  kUpdateReq,      ///< update protocol: propagate one written word
  kUpdateAck,      ///< sharer acknowledges an update
  kRmwReq,         ///< update protocol: directory-side atomic RMW

  // directory -> cache
  kReadReply,      ///< line data, shared
  kReadExReply,    ///< line data + exclusivity (all invalidations acked)
  kInvalidate,     ///< drop the line
  kRecall,         ///< return dirty line (flag says invalidate vs downgrade)
  kUpdate,         ///< update protocol: new word value for a cached line
  kUpdateDone,     ///< update protocol: writer's store is now performed
  kRmwReply,       ///< update protocol: old value of directory-side RMW
};

const char* to_string(MsgType t);

struct Message {
  /// Room for the largest line (kMaxLineBytes).
  using LineData = std::array<Word, kMaxLineBytes / kWordBytes>;

  MsgType type = MsgType::kReadReq;
  EndpointId src = 0;
  EndpointId dst = 0;
  Addr line_addr = 0;              ///< line-aligned address
  /// Line payload where applicable (fills, writebacks, recall acks):
  /// the first line_bytes / kWordBytes words, inline so a message
  /// never allocates.
  LineData data{};
  std::uint64_t txn = 0;           ///< transaction id chosen by the requester
  bool recall_exclusive = false;   ///< kRecall: true = invalidate owner

  // Update-protocol word payload (kUpdateReq/kUpdate/kRmwReq/kRmwReply).
  Addr word_addr = 0;
  Word word_value = 0;
  // kRmwReq operands: new value is computed directory-side.
  Word rmw_cmp = 0;
  Word rmw_src = 0;
  std::uint8_t rmw_op = 0;
};

}  // namespace mcsim
