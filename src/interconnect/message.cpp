#include "interconnect/message.hpp"

namespace mcsim {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kReadReq: return "ReadReq";
    case MsgType::kReadExReq: return "ReadExReq";
    case MsgType::kWriteback: return "Writeback";
    case MsgType::kReplaceNotify: return "ReplaceNotify";
    case MsgType::kInvAck: return "InvAck";
    case MsgType::kRecallAck: return "RecallAck";
    case MsgType::kUpdateReq: return "UpdateReq";
    case MsgType::kUpdateAck: return "UpdateAck";
    case MsgType::kRmwReq: return "RmwReq";
    case MsgType::kReadReply: return "ReadReply";
    case MsgType::kReadExReply: return "ReadExReply";
    case MsgType::kInvalidate: return "Invalidate";
    case MsgType::kRecall: return "Recall";
    case MsgType::kUpdate: return "Update";
    case MsgType::kUpdateDone: return "UpdateDone";
    case MsgType::kRmwReply: return "RmwReply";
  }
  return "?";
}

}  // namespace mcsim
