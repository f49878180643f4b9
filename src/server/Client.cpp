//===- server/Client.cpp --------------------------------------------------===//

#include "server/Client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

Expected<std::unique_ptr<RmdClient>>
RmdClient::connect(const std::string &SocketPath, int RecvTimeoutMs) {
  Expected<int> Fd = openLocalSocket(SocketPath, /*Listen=*/false);
  if (!Fd)
    return Fd.status();
  if (RecvTimeoutMs > 0) {
    timeval Tv;
    Tv.tv_sec = RecvTimeoutMs / 1000;
    Tv.tv_usec = (RecvTimeoutMs % 1000) * 1000;
    ::setsockopt(Fd.value(), SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  return std::unique_ptr<RmdClient>(new RmdClient(Fd.value()));
}

RmdClient::~RmdClient() {
  if (Fd >= 0)
    ::close(Fd);
}

Status RmdClient::transact(MessageType Type,
                           const std::vector<uint8_t> &Payload,
                           std::vector<uint8_t> &Response, WireReader &Body) {
  if (Fd < 0)
    return Status(ErrorCode::ProtocolError,
                  "connection closed after an earlier transport or framing "
                  "failure");
  uint32_t Id = NextRequestId++;
  // Past a transport or framing failure a late or half-read reply may
  // still arrive; read as the next call's reply, it would put every later
  // call out of step. So the connection is closed instead.
  auto Drop = [this](Status S) {
    ::close(Fd);
    Fd = -1;
    return S;
  };
  if (int Err = writeFrame(Fd, Payload.data(), Payload.size()))
    return Drop(Status(ErrorCode::CacheIO,
                       std::string("sendmsg(): ") + std::strerror(Err)));
  uint32_t RespLen = 0;
  int Err = readFrame(Fd, Response, RespLen);
  if (Err == kPeerClosed)
    return Drop(Status(ErrorCode::ProtocolError,
                       "server closed the connection mid-response"));
  if (Err == kBadFrameLength)
    return Drop(Status(ErrorCode::ProtocolError,
                       "response frame length " + std::to_string(RespLen) +
                           " outside (0, " + std::to_string(kMaxFrameBytes) +
                           "]"));
  if (Err == EAGAIN || Err == EWOULDBLOCK)
    return Drop(Status(ErrorCode::TimedOut,
                       "receive timeout waiting for the server"));
  if (Err)
    return Drop(Status(ErrorCode::CacheIO,
                       std::string("recv(): ") + std::strerror(Err)));
  WireReader In(Response);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/true);
  if (!Header)
    return Drop(Header.status());
  if ((Header.value().Type & ~kResponseBit) != static_cast<uint8_t>(Type))
    return Drop(Status(
        ErrorCode::ProtocolError,
        "response type " +
            std::to_string(Header.value().Type & ~kResponseBit) +
            " does not match request type " +
            std::to_string(static_cast<int>(Type))));
  if (Header.value().RequestId != Id)
    return Drop(Status(ErrorCode::ProtocolError,
                       "response id " +
                           std::to_string(Header.value().RequestId) +
                           " does not echo request id " + std::to_string(Id)));
  Status ServerStatus = Status::ok();
  if (Status S = decodeReplyStatus(In, ServerStatus); !S)
    return S;
  if (!ServerStatus.isOk())
    return ServerStatus;
  Body = In;
  return Status::ok();
}
