//===- server/Protocol.cpp ------------------------------------------------===//

#include "server/Protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::wire;

//===----------------------------------------------------------------------===//
// Writer / reader primitives
//===----------------------------------------------------------------------===//

void WireWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Bytes.insert(Bytes.end(), S.begin(), S.end());
}

void WireWriter::i32s(const std::vector<int32_t> &V) {
  u32(static_cast<uint32_t>(V.size()));
  for (int32_t X : V)
    i32(X);
}

uint8_t *WireWriter::extend(size_t N) {
  size_t At = Bytes.size();
  Bytes.resize(At + N);
  return Bytes.data() + At;
}

static void store32(uint8_t *P, uint32_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
  P[2] = static_cast<uint8_t>(V >> 16);
  P[3] = static_cast<uint8_t>(V >> 24);
}

bool WireReader::str(std::string &S) {
  uint32_t Len;
  if (!u32(Len) || Len > remaining())
    return false;
  S.assign(reinterpret_cast<const char *>(Data + Pos), Len);
  Pos += Len;
  return true;
}

bool WireReader::bytes(size_t N, std::span<const uint8_t> &Out) {
  if (N > remaining())
    return false;
  Out = std::span<const uint8_t>(Data + Pos, N);
  Pos += N;
  return true;
}

bool FieldReader::flag(uint8_t &V) {
  u8(V);
  if (!Error && V > 1)
    BadFlag = true;
  return !Error && !BadFlag;
}

void FieldReader::i32s(std::vector<int32_t> &V) {
  uint32_t N = 0;
  u32(N);
  // A count the rest of the body cannot hold is rejected before anything
  // is sized from it; after this check every element is in bounds.
  if (!Error && static_cast<uint64_t>(N) * 4 > In.remaining())
    Error = "node count exceeds body size";
  if (Error)
    return;
  V.resize(N);
  for (int32_t &X : V)
    In.i32(X);
}

Status FieldReader::finish() const {
  if (Error)
    return Status(ErrorCode::ProtocolError, Error);
  if (BadFlag)
    return Status(ErrorCode::ProtocolError, "non-boolean flag byte");
  if (!In.atEnd())
    return Status(ErrorCode::ProtocolError,
                  "trailing bytes after message body");
  return Status::ok();
}

//===----------------------------------------------------------------------===//
// Header
//===----------------------------------------------------------------------===//

WireWriter wire::startPayload(MessageType Type, bool Response,
                              uint32_t RequestId, size_t Size) {
  WireWriter Out;
  Out.reserve(Size);
  Out.u8(kWireVersion);
  Out.u8(static_cast<uint8_t>(Type) | (Response ? kResponseBit : 0));
  Out.u16(0); // reserved
  Out.u32(RequestId);
  return Out;
}

Expected<FrameHeader> wire::decodeHeader(WireReader &In, bool ExpectResponse) {
  FrameHeader H;
  uint16_t Reserved;
  if (!In.u8(H.Version) || !In.u8(H.Type) || !In.u16(Reserved) ||
      !In.u32(H.RequestId))
    return Status(ErrorCode::ProtocolError, "truncated frame header");
  if (H.Version != kWireVersion)
    return Status(ErrorCode::ProtocolError,
                  "wire version mismatch: got " + std::to_string(H.Version) +
                      ", expected " + std::to_string(kWireVersion));
  if (Reserved != 0)
    return Status(ErrorCode::ProtocolError, "nonzero reserved header field");
  bool IsResponse = (H.Type & kResponseBit) != 0;
  if (IsResponse != ExpectResponse)
    return Status(ErrorCode::ProtocolError,
                  ExpectResponse ? "expected a response frame, got a request"
                                 : "expected a request frame, got a response");
  uint8_t Bare = H.Type & ~kResponseBit;
  if (!isMessageType(Bare))
    return Status(ErrorCode::ProtocolError,
                  "unknown message type " + std::to_string(Bare));
  return H;
}

Status wire::decodeReplyStatus(WireReader &In, Status &ServerStatus) {
  uint16_t Code;
  if (!In.u16(Code))
    return Status(ErrorCode::ProtocolError, "truncated response status");
  if (Code == 0) {
    ServerStatus = Status::ok();
    return Status::ok();
  }
  if (Code > static_cast<uint16_t>(ErrorCode::ProtocolError))
    return Status(ErrorCode::ProtocolError,
                  "unknown error code " + std::to_string(Code));
  std::string Message;
  if (!In.str(Message) || !In.atEnd())
    return Status(ErrorCode::ProtocolError, "malformed error response body");
  ServerStatus = Status(static_cast<ErrorCode>(Code), std::move(Message));
  return Status::ok();
}

std::vector<uint8_t> wire::encodeErrorReply(uint32_t RequestId,
                                            MessageType Type,
                                            const Status &Error) {
  WireWriter Out = startPayload(Type, true, RequestId);
  Out.u16(static_cast<uint16_t>(Error.code()));
  Out.str(Error.message());
  return Out.take();
}

//===----------------------------------------------------------------------===//
// Batch
//===----------------------------------------------------------------------===//

static Status truncated() {
  return Status(ErrorCode::ProtocolError, "truncated message body");
}

template <typename T> static Expected<T> finish(WireReader &In, T Value) {
  if (!In.atEnd())
    return Expected<T>(Status(ErrorCode::ProtocolError,
                              "trailing bytes after message body"));
  return Expected<T>(std::move(Value));
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const BatchRequest &R) {
  // Header, session id and count, then the records.
  WireWriter Out = startPayload(MessageType::Batch, false, RequestId,
                                8 + 8 + kBatchEventBytes * R.Events.size());
  Out.u32(R.SessionId);
  Out.u32(static_cast<uint32_t>(R.Events.size()));
  uint8_t *P = Out.extend(kBatchEventBytes * R.Events.size());
  for (const BatchEvent &E : R.Events) {
    P[0] = static_cast<uint8_t>(E.TheVerb);
    store32(P + 1, E.Op);
    store32(P + 5, static_cast<uint32_t>(E.Cycle));
    store32(P + 9, static_cast<uint32_t>(E.Instance));
    P += kBatchEventBytes;
  }
  return Out.take();
}

Expected<BatchRecords> wire::decodeBatchRecords(WireReader &In) {
  BatchRecords R;
  uint32_t Count;
  if (!In.u32(R.SessionId) || !In.u32(Count))
    return truncated();
  // A count the remaining bytes cannot hold is rejected before anything is
  // sized from it, so a forged count cannot balloon memory. After this one
  // check every record is in bounds.
  std::span<const uint8_t> Packed;
  if (static_cast<uint64_t>(Count) * kBatchEventBytes != In.remaining() ||
      !In.bytes(In.remaining(), Packed))
    return Expected<BatchRecords>(Status(
        ErrorCode::ProtocolError, "event count does not match body size"));
  for (uint32_t I = 0; I < Count; ++I) {
    uint8_t V = Packed[I * kBatchEventBytes];
    if (V > static_cast<uint8_t>(Verb::Reset))
      return Expected<BatchRecords>(
          Status(ErrorCode::ProtocolError,
                 "unknown verb " + std::to_string(V) + " in event " +
                     std::to_string(I)));
  }
  R.Data = Packed.data();
  R.Count = Count;
  return finish(In, R);
}

Expected<BatchRequest> wire::decodeBatchRequest(WireReader &In) {
  Expected<BatchRecords> Records = decodeBatchRecords(In);
  if (!Records)
    return Records.status();
  const BatchRecords &Packed = Records.value();
  BatchRequest R;
  R.SessionId = Packed.sessionId();
  R.Events.resize(Packed.size());
  for (size_t I = 0; I < Packed.size(); ++I)
    R.Events[I] = Packed[I];
  return R;
}

std::vector<uint8_t> wire::encodeBatchReply(uint32_t RequestId,
                                            uint32_t Count) {
  WireWriter Out = startPayload(MessageType::Batch, true, RequestId,
                                kBatchResultsOffset + Count);
  Out.u16(0); // ErrorCode::Ok
  Out.u32(Count);
  Out.extend(Count);
  return Out.take();
}

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const BatchReply &R) {
  std::vector<uint8_t> Bytes =
      encodeBatchReply(RequestId, static_cast<uint32_t>(R.Results.size()));
  if (!R.Results.empty())
    std::memcpy(Bytes.data() + kBatchResultsOffset, R.Results.data(),
                R.Results.size());
  return Bytes;
}

Expected<BatchReply> wire::decodeBatchReply(WireReader &In) {
  BatchReply R;
  uint32_t Count;
  if (!In.u32(Count))
    return truncated();
  std::span<const uint8_t> Results;
  if (Count != In.remaining() || !In.bytes(Count, Results))
    return Expected<BatchReply>(Status(
        ErrorCode::ProtocolError, "result count does not match body size"));
  R.Results.assign(Results.begin(), Results.end());
  return finish(In, std::move(R));
}

//===----------------------------------------------------------------------===//
// Sockets and framing
//===----------------------------------------------------------------------===//

/// Builds the sockaddr_un of \p Path ('@' = abstract namespace, where
/// sun_path[0] is NUL); false when \p Path is empty or too long.
static bool socketAddress(const std::string &Path, sockaddr_un &Addr,
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

Expected<int> wire::openLocalSocket(const std::string &Path, bool Listen) {
  sockaddr_un Addr = {};
  socklen_t Len = 0;
  if (!socketAddress(Path, Addr, Len))
    return Status(ErrorCode::ProtocolError, "bad socket path '" + Path + "'");
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Status(ErrorCode::CacheIO,
                  std::string("socket(): ") + std::strerror(errno));
  auto Fail = [Fd](const std::string &Step) {
    Status S(ErrorCode::CacheIO, Step + ": " + std::strerror(errno));
    ::close(Fd);
    return S;
  };
  const sockaddr *At = reinterpret_cast<const sockaddr *>(&Addr);
  if (!Listen)
    return ::connect(Fd, At, Len) < 0 ? Fail("connect('" + Path + "')")
                                      : Expected<int>(Fd);
  if (::bind(Fd, At, Len) < 0)
    return Fail("bind('" + Path + "')");
  if (::listen(Fd, 64) < 0)
    return Fail("listen()");
  return Fd;
}

int wire::writeFrame(int Fd, const uint8_t *Payload, size_t Size) {
  uint8_t LenBytes[4];
  store32(LenBytes, static_cast<uint32_t>(Size));
  iovec Iov[2] = {{LenBytes, sizeof(LenBytes)},
                  {const_cast<uint8_t *>(Payload), Size}};
  msghdr Msg{};
  Msg.msg_iov = Iov;
  Msg.msg_iovlen = 2;
  while (Msg.msg_iovlen) {
    ssize_t N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno;
    }
    // Short write: drop the iovecs that went out whole and trim the first
    // one that did not.
    size_t Sent = static_cast<size_t>(N);
    while (Msg.msg_iovlen && Sent >= Msg.msg_iov->iov_len) {
      Sent -= Msg.msg_iov->iov_len;
      ++Msg.msg_iov;
      --Msg.msg_iovlen;
    }
    if (Msg.msg_iovlen) {
      Msg.msg_iov->iov_base = static_cast<uint8_t *>(Msg.msg_iov->iov_base) +
                              Sent;
      Msg.msg_iov->iov_len -= Sent;
    }
  }
  return 0;
}

/// Reads exactly \p Size bytes: 0, kPeerClosed, or the errno of the recv
/// that failed.
static int readFully(int Fd, uint8_t *Out, size_t Size) {
  while (Size) {
    ssize_t N = ::recv(Fd, Out, Size, 0);
    if (N == 0)
      return kPeerClosed;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno;
    }
    Out += N;
    Size -= static_cast<size_t>(N);
  }
  return 0;
}

int wire::readFrame(int Fd, std::vector<uint8_t> &Payload, uint32_t &Length) {
  uint8_t LenBytes[4];
  if (int Err = readFully(Fd, LenBytes, 4))
    return Err;
  Length = detail::load32(LenBytes);
  if (Length == 0 || Length > kMaxFrameBytes)
    return kBadFrameLength;
  Payload.resize(Length);
  return readFully(Fd, Payload.data(), Length);
}
