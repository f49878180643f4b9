//===- server/Client.h - rmd-wire-v1 client library ------------*- C++ -*-===//
///
/// \file
/// Synchronous client for the contention-query server. One RmdClient is
/// one connection: requests are framed, sent, and their responses matched
/// by echoed request id, with the response type and version validated, so
/// a confused or malicious server surfaces as ErrorCode::ProtocolError
/// rather than silently-wrong data. A transport or framing failure (a send
/// or receive error, a receive timeout, a bad length prefix or header)
/// leaves the stream position unknown, so it closes the connection: every
/// later call fails without sending. Not thread-safe — a client per thread
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

  Status ping() { return call(wire::PingRequest{}).status(); }
  Expected<wire::LoadMachineReply> loadMachine(const std::string &Name) {
    return call(wire::LoadMachineRequest{Name});
  }
  Expected<wire::OpenSessionReply>
  openSession(const wire::OpenSessionRequest &R) {
    return call(R);
  }
  Expected<wire::BatchReply> runBatch(const wire::BatchRequest &R) {
    return call(R);
  }
  Expected<wire::ScheduleLoopReply>
  scheduleLoop(const wire::ScheduleLoopRequest &R) {
    return call(R);
  }
  Expected<wire::StatsReply> sessionStats(uint32_t SessionId) {
    return call(wire::StatsRequest{SessionId});
  }
  Expected<wire::StatsReply> serverStats() { return sessionStats(0); }
  Status closeSession(uint32_t SessionId) {
    return call(wire::CloseSessionRequest{SessionId}).status();
  }
  Status shutdownServer() { return call(wire::ShutdownRequest{}).status(); }

private:
  explicit RmdClient(int Fd) : Fd(Fd) {}

  /// Sends \p R and decodes the reply bound to it (wire::Messages). \p R
  /// is encoded with NextRequestId, the id transact() expects echoed.
  template <class Req>
  Expected<typename wire::MessageOf<Req>::Reply> call(const Req &R) {
    std::vector<uint8_t> Response;
    wire::WireReader Body(nullptr, 0);
    if (Status S = transact(wire::MessageOf<Req>::Type,
                            wire::encodeRequest(NextRequestId, R), Response,
                            Body);
        !S)
      return S;
    return wire::decodeBody<typename wire::MessageOf<Req>::Reply>(Body);
  }

  /// Sends \p Payload as one frame and reads the response frame into
  /// \p Response, checking the header (version, response type matching
  /// \p Type, request-id echo) and the status prefix. On success \p Body
  /// reads the reply body.
  Status transact(wire::MessageType Type, const std::vector<uint8_t> &Payload,
                  std::vector<uint8_t> &Response, wire::WireReader &Body);

  int Fd = -1;
  uint32_t NextRequestId = 1;
};

} // namespace server
} // namespace rmd

#endif // RMD_SERVER_CLIENT_H
