//===- server/Client.cpp --------------------------------------------------===//

#include "server/Client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

static bool fillSockAddr(const std::string &Path, sockaddr_un &Addr,
                         socklen_t &Len) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return false;
  if (Path[0] == '@') {
    Addr.sun_path[0] = '\0';
    std::memcpy(Addr.sun_path + 1, Path.data() + 1, Path.size() - 1);
    Len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 Path.size());
  } else {
    std::memcpy(Addr.sun_path, Path.data(), Path.size());
    Len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 Path.size() + 1);
  }
  return true;
}

Expected<std::unique_ptr<RmdClient>>
RmdClient::connect(const std::string &SocketPath, int RecvTimeoutMs) {
  sockaddr_un Addr;
  socklen_t Len;
  if (!fillSockAddr(SocketPath, Addr, Len))
    return Status(ErrorCode::ProtocolError,
                  "bad socket path '" + SocketPath + "'");
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Status(ErrorCode::CacheIO,
                  std::string("socket(): ") + std::strerror(errno));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), Len) < 0) {
    Status S(ErrorCode::CacheIO,
             "connect('" + SocketPath + "'): " + std::strerror(errno));
    ::close(Fd);
    return S;
  }
  if (RecvTimeoutMs > 0) {
    timeval Tv;
    Tv.tv_sec = RecvTimeoutMs / 1000;
    Tv.tv_usec = (RecvTimeoutMs % 1000) * 1000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  return std::unique_ptr<RmdClient>(new RmdClient(Fd));
}

RmdClient::~RmdClient() {
  if (Fd >= 0)
    ::close(Fd);
}

static Status recvAll(int Fd, void *Buf, size_t Size) {
  uint8_t *Out = static_cast<uint8_t *>(Buf);
  while (Size) {
    ssize_t N = ::recv(Fd, Out, Size, 0);
    if (N == 0)
      return Status(ErrorCode::ProtocolError,
                    "server closed the connection mid-response");
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return Status(ErrorCode::TimedOut,
                      "receive timeout waiting for the server");
      return Status(ErrorCode::CacheIO,
                    std::string("recv(): ") + std::strerror(errno));
    }
    Out += N;
    Size -= static_cast<size_t>(N);
  }
  return Status::ok();
}

Status RmdClient::roundTrip(const std::vector<uint8_t> &Payload,
                            std::vector<uint8_t> &Response) {
  if (int Err = writeFrame(Fd, Payload.data(), Payload.size()))
    return Status(ErrorCode::CacheIO,
                  std::string("sendmsg(): ") + std::strerror(Err));
  uint8_t LenBytes[4];
  if (Status S = recvAll(Fd, LenBytes, 4); !S)
    return S;
  uint32_t RespLen = 0;
  for (int I = 0; I < 4; ++I)
    RespLen |= static_cast<uint32_t>(LenBytes[I]) << (8 * I);
  if (RespLen == 0 || RespLen > kMaxFrameBytes)
    return Status(ErrorCode::ProtocolError,
                  "response frame length " + std::to_string(RespLen) +
                      " outside (0, " + std::to_string(kMaxFrameBytes) + "]");
  Response.resize(RespLen);
  return recvAll(Fd, Response.data(), RespLen);
}

Status RmdClient::transact(MessageType Type,
                           const std::vector<uint8_t> &Payload,
                           std::vector<uint8_t> &Response,
                           size_t &BodyOffset) {
  uint32_t Id = NextRequestId++;
  if (Status S = roundTrip(Payload, Response); !S)
    return S;
  WireReader In(Response);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/true);
  if (!Header)
    return Header.status();
  if ((Header.value().Type & ~kResponseBit) != static_cast<uint8_t>(Type))
    return Status(ErrorCode::ProtocolError,
                  "response type " +
                      std::to_string(Header.value().Type & ~kResponseBit) +
                      " does not match request type " +
                      std::to_string(static_cast<int>(Type)));
  if (Header.value().RequestId != Id)
    return Status(ErrorCode::ProtocolError,
                  "response id " + std::to_string(Header.value().RequestId) +
                      " does not echo request id " + std::to_string(Id));
  Status ServerStatus = Status::ok();
  if (Status S = decodeReplyStatus(In, ServerStatus); !S)
    return S;
  if (!ServerStatus.isOk())
    return ServerStatus;
  BodyOffset = Response.size() - In.remaining();
  return Status::ok();
}

// Each method pairs an encodeRequest with the matching reply decoder; the
// RequestId passed to encodeRequest must be the one transact() will check,
// so encode *before* transact bumps NextRequestId.
template <typename ReplyT, typename DecodeFn>
static Expected<ReplyT> finishReply(const std::vector<uint8_t> &Response,
                                    size_t BodyOffset, DecodeFn Decode) {
  WireReader In(Response.data() + BodyOffset, Response.size() - BodyOffset);
  return Decode(In);
}

Status RmdClient::ping() {
  std::vector<uint8_t> Response;
  size_t Off;
  return transact(MessageType::Ping,
                  encodeRequest(NextRequestId, PingRequest{}), Response, Off);
}

Expected<LoadMachineReply> RmdClient::loadMachine(const std::string &Name) {
  std::vector<uint8_t> Response;
  size_t Off;
  Status S = transact(MessageType::LoadMachine,
                      encodeRequest(NextRequestId, LoadMachineRequest{Name}),
                      Response, Off);
  if (!S)
    return S;
  return finishReply<LoadMachineReply>(Response, Off, decodeLoadMachineReply);
}

Expected<OpenSessionReply>
RmdClient::openSession(const OpenSessionRequest &R) {
  std::vector<uint8_t> Response;
  size_t Off;
  Status S = transact(MessageType::OpenSession,
                      encodeRequest(NextRequestId, R), Response, Off);
  if (!S)
    return S;
  return finishReply<OpenSessionReply>(Response, Off, decodeOpenSessionReply);
}

Expected<BatchReply> RmdClient::runBatch(const BatchRequest &R) {
  std::vector<uint8_t> Response;
  size_t Off;
  Status S = transact(MessageType::Batch, encodeRequest(NextRequestId, R),
                      Response, Off);
  if (!S)
    return S;
  return finishReply<BatchReply>(Response, Off, decodeBatchReply);
}

Expected<ScheduleLoopReply>
RmdClient::scheduleLoop(const ScheduleLoopRequest &R) {
  std::vector<uint8_t> Response;
  size_t Off;
  Status S = transact(MessageType::ScheduleLoop,
                      encodeRequest(NextRequestId, R), Response, Off);
  if (!S)
    return S;
  return finishReply<ScheduleLoopReply>(Response, Off,
                                        decodeScheduleLoopReply);
}

Expected<StatsReply> RmdClient::sessionStats(uint32_t SessionId) {
  std::vector<uint8_t> Response;
  size_t Off;
  Status S = transact(MessageType::Stats,
                      encodeRequest(NextRequestId, StatsRequest{SessionId}),
                      Response, Off);
  if (!S)
    return S;
  return finishReply<StatsReply>(Response, Off, decodeStatsReply);
}

Expected<StatsReply> RmdClient::serverStats() { return sessionStats(0); }

Status RmdClient::closeSession(uint32_t SessionId) {
  std::vector<uint8_t> Response;
  size_t Off;
  return transact(
      MessageType::CloseSession,
      encodeRequest(NextRequestId, CloseSessionRequest{SessionId}), Response,
      Off);
}

Status RmdClient::shutdownServer() {
  std::vector<uint8_t> Response;
  size_t Off;
  return transact(MessageType::Shutdown,
                  encodeRequest(NextRequestId, ShutdownRequest{}), Response,
                  Off);
}
