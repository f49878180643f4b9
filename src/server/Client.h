//===- server/Client.h - rmd-wire-v1 client library ------------*- C++ -*-===//
///
/// \file
/// Synchronous client for the contention-query server. One RmdClient is
/// one connection: requests are framed, sent, and their responses matched
/// by echoed request id, with the response type and version validated, so
/// a confused or malicious server surfaces as ErrorCode::ProtocolError
/// rather than silently-wrong data. Not thread-safe — a client per thread
/// is the intended shape (sessions are pinned to their connection anyway).
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SERVER_CLIENT_H
#define RMD_SERVER_CLIENT_H

#include "server/Protocol.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rmd {
namespace server {

class RmdClient {
public:
  /// Connects to \p SocketPath ('@' = Linux abstract namespace, matching
  /// ServerOptions). \p RecvTimeoutMs > 0 arms SO_RCVTIMEO so a wedged
  /// server yields TimedOut instead of hanging the caller forever.
  static Expected<std::unique_ptr<RmdClient>>
  connect(const std::string &SocketPath, int RecvTimeoutMs = 0);

  ~RmdClient();

  RmdClient(const RmdClient &) = delete;
  RmdClient &operator=(const RmdClient &) = delete;

  Status ping();
  Expected<wire::LoadMachineReply> loadMachine(const std::string &Name);
  Expected<wire::OpenSessionReply>
  openSession(const wire::OpenSessionRequest &R);
  Expected<wire::BatchReply> runBatch(const wire::BatchRequest &R);
  Expected<wire::ScheduleLoopReply>
  scheduleLoop(const wire::ScheduleLoopRequest &R);
  Expected<wire::StatsReply> sessionStats(uint32_t SessionId);
  Expected<wire::StatsReply> serverStats();
  Status closeSession(uint32_t SessionId);
  Status shutdownServer();

private:
  explicit RmdClient(int Fd) : Fd(Fd) {}

  /// Sends \p Payload as one frame (one sendmsg, wire::writeFrame) and
  /// reads the response frame into \p Response.
  Status roundTrip(const std::vector<uint8_t> &Payload,
                   std::vector<uint8_t> &Response);

  /// Full request/response cycle: send, receive, validate header (version,
  /// response type matching \p Type, request-id echo) and the status
  /// prefix, leaving \p In positioned at the reply body.
  Status transact(wire::MessageType Type,
                  const std::vector<uint8_t> &Payload,
                  std::vector<uint8_t> &Response, size_t &BodyOffset);

  int Fd = -1;
  uint32_t NextRequestId = 1;
};

} // namespace server
} // namespace rmd

#endif // RMD_SERVER_CLIENT_H
