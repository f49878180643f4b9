//===- server/Protocol.cpp ------------------------------------------------===//

#include "server/Protocol.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>

using namespace rmd;
using namespace rmd::wire;

//===----------------------------------------------------------------------===//
// Writer / reader primitives
//===----------------------------------------------------------------------===//

void WireWriter::u16(uint16_t V) {
  Bytes.push_back(static_cast<uint8_t>(V));
  Bytes.push_back(static_cast<uint8_t>(V >> 8));
}

void WireWriter::u32(uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Bytes.push_back(static_cast<uint8_t>(V >> Shift));
}

void WireWriter::u64(uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Bytes.push_back(static_cast<uint8_t>(V >> Shift));
}

void WireWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Bytes.insert(Bytes.end(), S.begin(), S.end());
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

bool WireReader::u8(uint8_t &V) {
  if (Size - Pos < 1)
    return false;
  V = Data[Pos++];
  return true;
}

bool WireReader::u16(uint16_t &V) {
  if (Size - Pos < 2)
    return false;
  V = static_cast<uint16_t>(Data[Pos] | (Data[Pos + 1] << 8));
  Pos += 2;
  return true;
}

bool WireReader::u32(uint32_t &V) {
  if (Size - Pos < 4)
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
  Pos += 4;
  return true;
}

bool WireReader::u64(uint64_t &V) {
  if (Size - Pos < 8)
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
  Pos += 8;
  return true;
}

bool WireReader::i32(int32_t &V) {
  uint32_t U;
  if (!u32(U))
    return false;
  V = static_cast<int32_t>(U);
  return true;
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

//===----------------------------------------------------------------------===//
// Header
//===----------------------------------------------------------------------===//

static void putHeader(WireWriter &Out, MessageType Type, bool Response,
                      uint32_t RequestId) {
  Out.u8(kWireVersion);
  Out.u8(static_cast<uint8_t>(Type) | (Response ? kResponseBit : 0));
  Out.u16(0); // reserved
  Out.u32(RequestId);
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
  if (Bare < static_cast<uint8_t>(MessageType::Ping) ||
      Bare > static_cast<uint8_t>(MessageType::Shutdown))
    return Status(ErrorCode::ProtocolError,
                  "unknown message type " + std::to_string(Bare));
  return H;
}

/// Every body decoder funnels its exit through these two, so "decoded value
/// accounts for every payload byte" holds for each message type uniformly.
static Status truncated() {
  return Status(ErrorCode::ProtocolError, "truncated message body");
}

template <typename T> static Expected<T> finish(WireReader &In, T Value) {
  if (!In.atEnd())
    return Expected<T>(Status(ErrorCode::ProtocolError,
                              "trailing bytes after message body"));
  return Expected<T>(std::move(Value));
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const PingRequest &) {
  WireWriter Out;
  putHeader(Out, MessageType::Ping, false, RequestId);
  return Out.take();
}

Expected<PingRequest> wire::decodePingRequest(WireReader &In) {
  return finish(In, PingRequest{});
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const LoadMachineRequest &R) {
  WireWriter Out;
  putHeader(Out, MessageType::LoadMachine, false, RequestId);
  Out.str(R.Name);
  return Out.take();
}

Expected<LoadMachineRequest> wire::decodeLoadMachineRequest(WireReader &In) {
  LoadMachineRequest R;
  if (!In.str(R.Name))
    return truncated();
  return finish(In, std::move(R));
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const OpenSessionRequest &R) {
  WireWriter Out;
  putHeader(Out, MessageType::OpenSession, false, RequestId);
  Out.u32(R.MachineId);
  Out.u8(R.Modulo);
  Out.u8(R.UnionAlt);
  Out.i32(R.ModuloII);
  Out.i32(R.MinCycle);
  Out.str(R.Tenant);
  return Out.take();
}

Expected<OpenSessionRequest> wire::decodeOpenSessionRequest(WireReader &In) {
  OpenSessionRequest R;
  if (!In.u32(R.MachineId) || !In.u8(R.Modulo) || !In.u8(R.UnionAlt) ||
      !In.i32(R.ModuloII) || !In.i32(R.MinCycle) || !In.str(R.Tenant))
    return truncated();
  if (R.Modulo > 1 || R.UnionAlt > 1)
    return Expected<OpenSessionRequest>(
        Status(ErrorCode::ProtocolError, "non-boolean flag byte"));
  return finish(In, std::move(R));
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const BatchRequest &R) {
  WireWriter Out;
  // Header, session id and count, then the records.
  Out.reserve(8 + 8 + kBatchEventBytes * R.Events.size());
  putHeader(Out, MessageType::Batch, false, RequestId);
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
  std::span<const uint8_t> Body;
  if (static_cast<uint64_t>(Count) * kBatchEventBytes != In.remaining() ||
      !In.bytes(In.remaining(), Body))
    return Expected<BatchRecords>(Status(
        ErrorCode::ProtocolError, "event count does not match body size"));
  for (uint32_t I = 0; I < Count; ++I) {
    uint8_t V = Body[I * kBatchEventBytes];
    if (V > static_cast<uint8_t>(Verb::Reset))
      return Expected<BatchRecords>(
          Status(ErrorCode::ProtocolError,
                 "unknown verb " + std::to_string(V) + " in event " +
                     std::to_string(I)));
  }
  R.Data = Body.data();
  R.Count = Count;
  return finish(In, R);
}

Expected<BatchRequest> wire::decodeBatchRequest(WireReader &In) {
  Expected<BatchRecords> Records = decodeBatchRecords(In);
  if (!Records)
    return Records.status();
  const BatchRecords &Body = Records.value();
  BatchRequest R;
  R.SessionId = Body.sessionId();
  R.Events.resize(Body.size());
  for (size_t I = 0; I < Body.size(); ++I)
    R.Events[I] = Body[I];
  return R;
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const ScheduleLoopRequest &R) {
  WireWriter Out;
  putHeader(Out, MessageType::ScheduleLoop, false, RequestId);
  Out.u32(R.MachineId);
  Out.i32(R.BudgetRatio);
  Out.i32(R.MaxII);
  Out.i32(R.DeadlineMs);
  Out.str(R.GraphText);
  return Out.take();
}

Expected<ScheduleLoopRequest> wire::decodeScheduleLoopRequest(WireReader &In) {
  ScheduleLoopRequest R;
  if (!In.u32(R.MachineId) || !In.i32(R.BudgetRatio) || !In.i32(R.MaxII) ||
      !In.i32(R.DeadlineMs) || !In.str(R.GraphText))
    return truncated();
  return finish(In, std::move(R));
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const StatsRequest &R) {
  WireWriter Out;
  putHeader(Out, MessageType::Stats, false, RequestId);
  Out.u32(R.SessionId);
  return Out.take();
}

Expected<StatsRequest> wire::decodeStatsRequest(WireReader &In) {
  StatsRequest R;
  if (!In.u32(R.SessionId))
    return truncated();
  return finish(In, R);
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const CloseSessionRequest &R) {
  WireWriter Out;
  putHeader(Out, MessageType::CloseSession, false, RequestId);
  Out.u32(R.SessionId);
  return Out.take();
}

Expected<CloseSessionRequest>
wire::decodeCloseSessionRequest(WireReader &In) {
  CloseSessionRequest R;
  if (!In.u32(R.SessionId))
    return truncated();
  return finish(In, R);
}

std::vector<uint8_t> wire::encodeRequest(uint32_t RequestId,
                                         const ShutdownRequest &) {
  WireWriter Out;
  putHeader(Out, MessageType::Shutdown, false, RequestId);
  return Out.take();
}

Expected<ShutdownRequest> wire::decodeShutdownRequest(WireReader &In) {
  return finish(In, ShutdownRequest{});
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

static void putOkPrefix(WireWriter &Out, MessageType Type,
                        uint32_t RequestId) {
  putHeader(Out, Type, true, RequestId);
  Out.u16(0); // ErrorCode::Ok
}

std::vector<uint8_t> wire::encodeErrorReply(uint32_t RequestId,
                                            MessageType Type,
                                            const Status &Error) {
  WireWriter Out;
  putHeader(Out, Type, true, RequestId);
  Out.u16(static_cast<uint16_t>(Error.code()));
  Out.str(Error.message());
  return Out.take();
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

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId, const PingReply &) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::Ping, RequestId);
  return Out.take();
}

Expected<PingReply> wire::decodePingReply(WireReader &In) {
  return finish(In, PingReply{});
}

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const LoadMachineReply &R) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::LoadMachine, RequestId);
  Out.u32(R.MachineId);
  Out.u8(R.Degraded);
  Out.u8(R.Bitvector);
  Out.u32(R.NumOperations);
  Out.u32(R.OriginalResources);
  Out.u32(R.ReducedResources);
  return Out.take();
}

Expected<LoadMachineReply> wire::decodeLoadMachineReply(WireReader &In) {
  LoadMachineReply R;
  if (!In.u32(R.MachineId) || !In.u8(R.Degraded) || !In.u8(R.Bitvector) ||
      !In.u32(R.NumOperations) || !In.u32(R.OriginalResources) ||
      !In.u32(R.ReducedResources))
    return truncated();
  return finish(In, R);
}

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const OpenSessionReply &R) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::OpenSession, RequestId);
  Out.u32(R.SessionId);
  return Out.take();
}

Expected<OpenSessionReply> wire::decodeOpenSessionReply(WireReader &In) {
  OpenSessionReply R;
  if (!In.u32(R.SessionId))
    return truncated();
  return finish(In, R);
}

std::vector<uint8_t> wire::encodeBatchReply(uint32_t RequestId,
                                            uint32_t Count) {
  WireWriter Out;
  Out.reserve(kBatchResultsOffset + Count);
  putOkPrefix(Out, MessageType::Batch, RequestId);
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

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const ScheduleLoopReply &R) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::ScheduleLoop, RequestId);
  Out.u8(R.Success);
  Out.u8(R.Outcome);
  Out.i32(R.II);
  Out.u32(static_cast<uint32_t>(R.Time.size()));
  for (int32_t T : R.Time)
    Out.i32(T);
  Out.u32(static_cast<uint32_t>(R.Alternative.size()));
  for (int32_t A : R.Alternative)
    Out.i32(A);
  Out.str(R.Message);
  return Out.take();
}

Expected<ScheduleLoopReply> wire::decodeScheduleLoopReply(WireReader &In) {
  ScheduleLoopReply R;
  uint32_t N;
  if (!In.u8(R.Success) || !In.u8(R.Outcome) || !In.i32(R.II) || !In.u32(N))
    return truncated();
  if (static_cast<uint64_t>(N) * 4 > In.remaining())
    return Expected<ScheduleLoopReply>(
        Status(ErrorCode::ProtocolError, "node count exceeds body size"));
  R.Time.resize(N);
  for (uint32_t I = 0; I < N; ++I)
    if (!In.i32(R.Time[I]))
      return truncated();
  if (!In.u32(N))
    return truncated();
  if (static_cast<uint64_t>(N) * 4 > In.remaining())
    return Expected<ScheduleLoopReply>(
        Status(ErrorCode::ProtocolError, "node count exceeds body size"));
  R.Alternative.resize(N);
  for (uint32_t I = 0; I < N; ++I)
    if (!In.i32(R.Alternative[I]))
      return truncated();
  if (!In.str(R.Message))
    return truncated();
  return finish(In, std::move(R));
}

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const StatsReply &R) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::Stats, RequestId);
  Out.u8(R.ServerWide);
  if (R.ServerWide) {
    Out.u64(R.Server.ActiveSessions);
    Out.u64(R.Server.MachinesLoaded);
    Out.u64(R.Server.RequestsServed);
    Out.u64(R.Server.OverloadRejections);
    Out.u64(R.Server.ProtocolErrors);
  } else {
    const WorkCounters &C = R.Session.Counters;
    Out.u64(C.CheckCalls);
    Out.u64(C.CheckUnits);
    Out.u64(C.AssignCalls);
    Out.u64(C.AssignUnits);
    Out.u64(C.FreeCalls);
    Out.u64(C.FreeUnits);
    Out.u64(C.AssignFreeCalls);
    Out.u64(C.AssignFreeUnits);
    Out.u64(C.TransitionUnits);
    Out.u64(R.Session.LiveInstances);
  }
  return Out.take();
}

Expected<StatsReply> wire::decodeStatsReply(WireReader &In) {
  StatsReply R;
  if (!In.u8(R.ServerWide))
    return truncated();
  if (R.ServerWide > 1)
    return Expected<StatsReply>(
        Status(ErrorCode::ProtocolError, "non-boolean flag byte"));
  if (R.ServerWide) {
    if (!In.u64(R.Server.ActiveSessions) || !In.u64(R.Server.MachinesLoaded) ||
        !In.u64(R.Server.RequestsServed) ||
        !In.u64(R.Server.OverloadRejections) ||
        !In.u64(R.Server.ProtocolErrors))
      return truncated();
  } else {
    WorkCounters &C = R.Session.Counters;
    if (!In.u64(C.CheckCalls) || !In.u64(C.CheckUnits) ||
        !In.u64(C.AssignCalls) || !In.u64(C.AssignUnits) ||
        !In.u64(C.FreeCalls) || !In.u64(C.FreeUnits) ||
        !In.u64(C.AssignFreeCalls) || !In.u64(C.AssignFreeUnits) ||
        !In.u64(C.TransitionUnits) || !In.u64(R.Session.LiveInstances))
      return truncated();
  }
  return finish(In, R);
}

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const CloseSessionReply &) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::CloseSession, RequestId);
  return Out.take();
}

Expected<CloseSessionReply> wire::decodeCloseSessionReply(WireReader &In) {
  return finish(In, CloseSessionReply{});
}

std::vector<uint8_t> wire::encodeReply(uint32_t RequestId,
                                       const ShutdownReply &) {
  WireWriter Out;
  putOkPrefix(Out, MessageType::Shutdown, RequestId);
  return Out.take();
}

Expected<ShutdownReply> wire::decodeShutdownReply(WireReader &In) {
  return finish(In, ShutdownReply{});
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

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
