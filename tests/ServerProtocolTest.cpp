//===- tests/ServerProtocolTest.cpp - rmd-wire-v1 golden tests ------------===//
//
// Wire-format tests for server/Protocol.h: every message type round-trips
// through encode -> decode to an identical value (and re-encodes to the
// identical bytes); truncated, oversized, garbage, wrong-version, and
// trailing-byte frames are all rejected with structured errors. Byte
// goldens pin the exact bytes of every non-Batch message and which error
// wins when a body is wrong in two ways at once.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/Protocol.h"
#include "server/Server.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <future>
#include <thread>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

namespace {

/// Decodes a request payload end to end: header + body + type check.
template <typename T, typename DecodeFn>
Expected<T> decodeRequestPayload(const std::vector<uint8_t> &Payload,
                                 MessageType Type, DecodeFn Decode) {
  WireReader In(Payload);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/false);
  if (!Header)
    return Header.status();
  EXPECT_EQ(Header.value().Type, static_cast<uint8_t>(Type));
  return Decode(In);
}

template <typename T, typename DecodeFn>
Expected<T> decodeReplyPayload(const std::vector<uint8_t> &Payload,
                               MessageType Type, DecodeFn Decode,
                               uint32_t ExpectId) {
  WireReader In(Payload);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/true);
  if (!Header)
    return Header.status();
  EXPECT_EQ(Header.value().Type,
            static_cast<uint8_t>(Type) | kResponseBit);
  EXPECT_EQ(Header.value().RequestId, ExpectId);
  Status ServerStatus = Status::ok();
  Status S = decodeReplyStatus(In, ServerStatus);
  if (!S)
    return S;
  if (!ServerStatus.isOk())
    return ServerStatus;
  return Decode(In);
}

TEST(ServerProtocol, PingRoundTrip) {
  std::vector<uint8_t> Bytes = encodeRequest(7, PingRequest{});
  Expected<PingRequest> R = decodeRequestPayload<PingRequest>(
      Bytes, MessageType::Ping, decodeBody<PingRequest>);
  ASSERT_TRUE(bool(R));

  std::vector<uint8_t> Reply = encodeReply(7, PingReply{});
  Expected<PingReply> D = decodeReplyPayload<PingReply>(
      Reply, MessageType::Ping, decodeBody<PingReply>, 7);
  ASSERT_TRUE(bool(D));
}

TEST(ServerProtocol, LoadMachineRoundTrip) {
  LoadMachineRequest Req;
  Req.Name = "cydra5";
  std::vector<uint8_t> Bytes = encodeRequest(42, Req);
  Expected<LoadMachineRequest> R = decodeRequestPayload<LoadMachineRequest>(
      Bytes, MessageType::LoadMachine, decodeBody<LoadMachineRequest>);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().Name, "cydra5");
  // Re-encoding the decoded value reproduces the identical bytes.
  EXPECT_EQ(encodeRequest(42, R.value()), Bytes);

  LoadMachineReply Reply;
  Reply.MachineId = 3;
  Reply.Degraded = 1;
  Reply.Bitvector = 1;
  Reply.NumOperations = 32;
  Reply.OriginalResources = 46;
  Reply.ReducedResources = 15;
  std::vector<uint8_t> ReplyBytes = encodeReply(42, Reply);
  Expected<LoadMachineReply> D = decodeReplyPayload<LoadMachineReply>(
      ReplyBytes, MessageType::LoadMachine, decodeBody<LoadMachineReply>, 42);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().MachineId, 3u);
  EXPECT_EQ(D.value().Degraded, 1);
  EXPECT_EQ(D.value().Bitvector, 1);
  EXPECT_EQ(D.value().NumOperations, 32u);
  EXPECT_EQ(D.value().OriginalResources, 46u);
  EXPECT_EQ(D.value().ReducedResources, 15u);
  EXPECT_EQ(encodeReply(42, D.value()), ReplyBytes);
}

TEST(ServerProtocol, OpenSessionRoundTrip) {
  OpenSessionRequest Req;
  Req.MachineId = 5;
  Req.Modulo = 1;
  Req.UnionAlt = 1;
  Req.ModuloII = 13;
  Req.MinCycle = -4;
  Req.Tenant = "tenant-a";
  std::vector<uint8_t> Bytes = encodeRequest(9, Req);
  Expected<OpenSessionRequest> R = decodeRequestPayload<OpenSessionRequest>(
      Bytes, MessageType::OpenSession, decodeBody<OpenSessionRequest>);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().MachineId, 5u);
  EXPECT_EQ(R.value().Modulo, 1);
  EXPECT_EQ(R.value().UnionAlt, 1);
  EXPECT_EQ(R.value().ModuloII, 13);
  EXPECT_EQ(R.value().MinCycle, -4);
  EXPECT_EQ(R.value().Tenant, "tenant-a");
  EXPECT_EQ(encodeRequest(9, R.value()), Bytes);

  OpenSessionReply Reply;
  Reply.SessionId = 77;
  std::vector<uint8_t> ReplyBytes = encodeReply(9, Reply);
  Expected<OpenSessionReply> D = decodeReplyPayload<OpenSessionReply>(
      ReplyBytes, MessageType::OpenSession, decodeBody<OpenSessionReply>, 9);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().SessionId, 77u);
}

TEST(ServerProtocol, BatchRoundTrip) {
  BatchRequest Req;
  Req.SessionId = 11;
  Req.Events.push_back({Verb::Check, 3, 10, 0});
  Req.Events.push_back({Verb::CheckAssign, 4, -2, 17});
  Req.Events.push_back({Verb::Free, 4, -2, 17});
  Req.Events.push_back({Verb::AssignFree, 1, 0, 18});
  Req.Events.push_back({Verb::Reset, 0, 0, 0});
  std::vector<uint8_t> Bytes = encodeRequest(100, Req);
  Expected<BatchRequest> R = decodeRequestPayload<BatchRequest>(
      Bytes, MessageType::Batch, decodeBatchRequest);
  ASSERT_TRUE(bool(R));
  ASSERT_EQ(R.value().Events.size(), 5u);
  EXPECT_EQ(R.value().SessionId, 11u);
  EXPECT_EQ(R.value().Events[1].TheVerb, Verb::CheckAssign);
  EXPECT_EQ(R.value().Events[1].Op, 4u);
  EXPECT_EQ(R.value().Events[1].Cycle, -2);
  EXPECT_EQ(R.value().Events[1].Instance, 17);
  EXPECT_EQ(encodeRequest(100, R.value()), Bytes);

  BatchReply Reply;
  Reply.Results = {1, 0, kResultDone, 2, kResultDone};
  std::vector<uint8_t> ReplyBytes = encodeReply(100, Reply);
  Expected<BatchReply> D = decodeReplyPayload<BatchReply>(
      ReplyBytes, MessageType::Batch, decodeBatchReply, 100);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().Results, Reply.Results);
  EXPECT_EQ(encodeReply(100, D.value()), ReplyBytes);
}

TEST(ServerProtocol, ScheduleLoopRoundTrip) {
  ScheduleLoopRequest Req;
  Req.MachineId = 2;
  Req.BudgetRatio = 8;
  Req.MaxII = 40;
  Req.DeadlineMs = 1500;
  Req.GraphText = "loop l { a: load; }";
  std::vector<uint8_t> Bytes = encodeRequest(3, Req);
  Expected<ScheduleLoopRequest> R = decodeRequestPayload<ScheduleLoopRequest>(
      Bytes, MessageType::ScheduleLoop, decodeBody<ScheduleLoopRequest>);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().GraphText, Req.GraphText);
  EXPECT_EQ(R.value().DeadlineMs, 1500);
  EXPECT_EQ(encodeRequest(3, R.value()), Bytes);

  ScheduleLoopReply Reply;
  Reply.Success = 1;
  Reply.Outcome = 0;
  Reply.II = 13;
  Reply.Time = {0, 5, 11, -1};
  Reply.Alternative = {0, 0, 1, -1};
  Reply.Message = "";
  std::vector<uint8_t> ReplyBytes = encodeReply(3, Reply);
  Expected<ScheduleLoopReply> D = decodeReplyPayload<ScheduleLoopReply>(
      ReplyBytes, MessageType::ScheduleLoop, decodeBody<ScheduleLoopReply>, 3);
  ASSERT_TRUE(bool(D));
  EXPECT_EQ(D.value().II, 13);
  EXPECT_EQ(D.value().Time, Reply.Time);
  EXPECT_EQ(D.value().Alternative, Reply.Alternative);
  EXPECT_EQ(encodeReply(3, D.value()), ReplyBytes);
}

TEST(ServerProtocol, StatsRoundTripBothShapes) {
  std::vector<uint8_t> Bytes = encodeRequest(1, StatsRequest{6});
  Expected<StatsRequest> R = decodeRequestPayload<StatsRequest>(
      Bytes, MessageType::Stats, decodeBody<StatsRequest>);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().SessionId, 6u);

  // Session-shaped reply: the module's WorkCounters plus live instances.
  StatsReply Session;
  Session.ServerWide = 0;
  Session.Session.Counters.CheckCalls = 10;
  Session.Session.Counters.AssignCalls = 4;
  Session.Session.Counters.FreeCalls = 2;
  Session.Session.LiveInstances = 2;
  std::vector<uint8_t> SessionBytes = encodeReply(1, Session);
  Expected<StatsReply> DS = decodeReplyPayload<StatsReply>(
      SessionBytes, MessageType::Stats, decodeBody<StatsReply>, 1);
  ASSERT_TRUE(bool(DS));
  EXPECT_EQ(DS.value().ServerWide, 0);
  EXPECT_EQ(DS.value().Session.Counters.CheckCalls, 10u);
  EXPECT_EQ(DS.value().Session.Counters.AssignCalls, 4u);
  EXPECT_EQ(DS.value().Session.LiveInstances, 2u);
  EXPECT_EQ(encodeReply(1, DS.value()), SessionBytes);

  // Server-shaped reply.
  StatsReply Server;
  Server.ServerWide = 1;
  Server.Server.ActiveSessions = 3;
  Server.Server.MachinesLoaded = 2;
  Server.Server.RequestsServed = 1234;
  Server.Server.OverloadRejections = 5;
  Server.Server.ProtocolErrors = 1;
  std::vector<uint8_t> ServerBytes = encodeReply(1, Server);
  Expected<StatsReply> DW = decodeReplyPayload<StatsReply>(
      ServerBytes, MessageType::Stats, decodeBody<StatsReply>, 1);
  ASSERT_TRUE(bool(DW));
  EXPECT_EQ(DW.value().ServerWide, 1);
  EXPECT_EQ(DW.value().Server.RequestsServed, 1234u);
  EXPECT_EQ(DW.value().Server.OverloadRejections, 5u);
  EXPECT_EQ(encodeReply(1, DW.value()), ServerBytes);
}

TEST(ServerProtocol, CloseAndShutdownRoundTrip) {
  std::vector<uint8_t> Bytes = encodeRequest(2, CloseSessionRequest{9});
  Expected<CloseSessionRequest> R = decodeRequestPayload<CloseSessionRequest>(
      Bytes, MessageType::CloseSession, decodeBody<CloseSessionRequest>);
  ASSERT_TRUE(bool(R));
  EXPECT_EQ(R.value().SessionId, 9u);

  std::vector<uint8_t> Sd = encodeRequest(4, ShutdownRequest{});
  Expected<ShutdownRequest> RS = decodeRequestPayload<ShutdownRequest>(
      Sd, MessageType::Shutdown, decodeBody<ShutdownRequest>);
  ASSERT_TRUE(bool(RS));
}

TEST(ServerProtocol, ErrorReplyCarriesCodeAndMessage) {
  Status Err(ErrorCode::Overloaded, "server request queue is full");
  std::vector<uint8_t> Bytes =
      encodeErrorReply(55, MessageType::Batch, Err);
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/true);
  ASSERT_TRUE(bool(Header));
  EXPECT_EQ(Header.value().RequestId, 55u);
  Status ServerStatus = Status::ok();
  ASSERT_TRUE(bool(decodeReplyStatus(In, ServerStatus)));
  EXPECT_EQ(ServerStatus.code(), ErrorCode::Overloaded);
  EXPECT_EQ(ServerStatus.message(), "server request queue is full");
}

//===--------------------------------------------------------------------===//
// Rejection paths: every malformed shape yields a structured error.
//===--------------------------------------------------------------------===//

TEST(ServerProtocol, TruncatedFramesRejectedEverywhere) {
  // Every prefix of a valid payload (shorter than the whole) must fail to
  // decode — no partial value ever escapes.
  OpenSessionRequest Req;
  Req.MachineId = 1;
  Req.Tenant = "t";
  std::vector<uint8_t> Bytes = encodeRequest(1, Req);
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    WireReader In(Cut);
    Expected<FrameHeader> Header = decodeHeader(In, false);
    if (!Header)
      continue; // truncated inside the header: structured failure already
    Expected<OpenSessionRequest> R = decodeBody<OpenSessionRequest>(In);
    EXPECT_FALSE(bool(R)) << "prefix of length " << Len << " decoded";
    if (!R) {
      EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
    }
  }
}

TEST(ServerProtocol, TrailingBytesRejected) {
  std::vector<uint8_t> Bytes = encodeRequest(1, StatsRequest{0});
  Bytes.push_back(0xAB);
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<StatsRequest> R = decodeBody<StatsRequest>(In);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, WrongVersionRejected) {
  std::vector<uint8_t> Bytes = encodeRequest(1, PingRequest{});
  Bytes[0] = kWireVersion + 1;
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, false);
  ASSERT_FALSE(bool(Header));
  EXPECT_EQ(Header.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, ReservedBytesMustBeZero) {
  std::vector<uint8_t> Bytes = encodeRequest(1, PingRequest{});
  Bytes[2] = 1; // reserved word
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, false);
  ASSERT_FALSE(bool(Header));
  EXPECT_EQ(Header.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, ResponseBitDirectionEnforced) {
  // A response-typed payload is not a request, and vice versa.
  std::vector<uint8_t> Reply = encodeReply(1, PingReply{});
  WireReader In(Reply);
  Expected<FrameHeader> AsRequest = decodeHeader(In, /*ExpectResponse=*/false);
  EXPECT_FALSE(bool(AsRequest));

  std::vector<uint8_t> Req = encodeRequest(1, PingRequest{});
  WireReader In2(Req);
  Expected<FrameHeader> AsResponse = decodeHeader(In2, /*ExpectResponse=*/true);
  EXPECT_FALSE(bool(AsResponse));
}

TEST(ServerProtocol, UnknownTypeRejected) {
  std::vector<uint8_t> Bytes = encodeRequest(1, PingRequest{});
  Bytes[1] = 0x3F; // not a MessageType
  WireReader In(Bytes);
  Expected<FrameHeader> Header = decodeHeader(In, false);
  ASSERT_FALSE(bool(Header));
  EXPECT_EQ(Header.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, GarbageBatchCountRejectedBeforeAllocation) {
  // A batch header claiming 2^28 events in a small payload must fail on
  // the count/size cross-check, not attempt a giant reserve.
  WireWriter Out;
  Out.u8(kWireVersion);
  Out.u8(static_cast<uint8_t>(MessageType::Batch));
  Out.u16(0);
  Out.u32(1);          // request id
  Out.u32(12);         // session id
  Out.u32(0x10000000); // event count: absurd
  Out.u8(0);           // one stray byte
  std::vector<uint8_t> Bytes = Out.take();
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<BatchRequest> R = decodeBatchRequest(In);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, UnknownVerbRejectedWithEventIndex) {
  BatchRequest Req;
  Req.SessionId = 1;
  Req.Events.push_back({Verb::Check, 0, 0, 0});
  Req.Events.push_back({Verb::Check, 1, 0, 0});
  std::vector<uint8_t> Bytes = encodeRequest(1, Req);
  // Corrupt the second event's verb byte. Layout after the 8-byte header:
  // u32 session, u32 count, then 13-byte events starting with the verb.
  Bytes[8 + 4 + 4 + 13] = 0x77;
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<BatchRequest> R = decodeBatchRequest(In);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.status().message().find("event 1"), std::string::npos)
      << R.status().message();
}

TEST(ServerProtocol, OversizedStringRejected) {
  // A string length field pointing far past the payload end.
  WireWriter Out;
  Out.u8(kWireVersion);
  Out.u8(static_cast<uint8_t>(MessageType::LoadMachine));
  Out.u16(0);
  Out.u32(1);
  Out.u32(0x7FFFFFFF); // string length: way out of bounds
  Out.u8('x');
  std::vector<uint8_t> Bytes = Out.take();
  WireReader In(Bytes);
  ASSERT_TRUE(bool(decodeHeader(In, false)));
  Expected<LoadMachineRequest> R = decodeBody<LoadMachineRequest>(In);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
}

TEST(ServerProtocol, GarbagePayloadNeverDecodes) {
  // Deterministic pseudo-random garbage: none of it should ever decode as
  // a valid header + body, and decoding must not crash.
  uint64_t State = 0x1234abcd;
  auto Next = [&State] {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return State;
  };
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::vector<uint8_t> Bytes((Next() % 64) + 1);
    for (uint8_t &B : Bytes)
      B = static_cast<uint8_t>(Next());
    Bytes[0] = static_cast<uint8_t>(Next()); // random "version" too
    WireReader In(Bytes);
    Expected<FrameHeader> Header = decodeHeader(In, false);
    if (!Header)
      continue;
    // Header happened to be plausible; the body decoders must still be
    // total. Try the type the header claims.
    switch (static_cast<MessageType>(Header.value().Type)) {
    case MessageType::Ping:
      (void)decodeBody<PingRequest>(In);
      break;
    case MessageType::LoadMachine:
      (void)decodeBody<LoadMachineRequest>(In);
      break;
    case MessageType::OpenSession:
      (void)decodeBody<OpenSessionRequest>(In);
      break;
    case MessageType::Batch:
      (void)decodeBatchRequest(In);
      break;
    case MessageType::ScheduleLoop:
      (void)decodeBody<ScheduleLoopRequest>(In);
      break;
    case MessageType::Stats:
      (void)decodeBody<StatsRequest>(In);
      break;
    case MessageType::CloseSession:
      (void)decodeBody<CloseSessionRequest>(In);
      break;
    case MessageType::Shutdown:
      (void)decodeBody<ShutdownRequest>(In);
      break;
    }
  }
}

//===--------------------------------------------------------------------===//
// Framing: writeFrame's one sendmsg per frame.
//===--------------------------------------------------------------------===//

TEST(ServerProtocol, WriteFrameFinishesShortWrites) {
  // A blocking sendmsg that a signal interrupts after part of the frame
  // went out returns short (or fails with EINTR when nothing did).
  // writeFrame must finish the frame either way, across the boundary of
  // its two iovecs, so the peer reads the exact length prefix and payload.
  struct sigaction Action = {}, Saved = {};
  Action.sa_handler = [](int) {};
  sigemptyset(&Action.sa_mask);
  Action.sa_flags = 0; // no SA_RESTART: interrupted calls return early
  ASSERT_EQ(::sigaction(SIGUSR2, &Action, &Saved), 0);

  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
  int SmallBuf = 4096;
  ::setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &SmallBuf, sizeof(SmallBuf));
  ::setsockopt(Fds[1], SOL_SOCKET, SO_RCVBUF, &SmallBuf, sizeof(SmallBuf));

  std::vector<uint8_t> Payload(512 * 1024);
  for (size_t I = 0; I < Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 131 + (I >> 9));

  std::atomic<bool> Done{false};
  int Err = -1;
  std::thread Writer([&] {
    Err = writeFrame(Fds[0], Payload.data(), Payload.size());
    Done.store(true);
  });
  // Interrupt the writer while a slow reader drains the socket.
  std::thread Signaler([&] {
    while (!Done.load()) {
      ::pthread_kill(Writer.native_handle(), SIGUSR2);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::vector<uint8_t> Got;
  uint8_t Chunk[8192];
  while (Got.size() < 4 + Payload.size()) {
    ssize_t N = ::recv(Fds[1], Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got.insert(Got.end(), Chunk, Chunk + N);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // The signaler first: the writer's handle stays valid until it is joined.
  Signaler.join();
  Writer.join();
  ::sigaction(SIGUSR2, &Saved, nullptr);
  ::close(Fds[0]);
  ::close(Fds[1]);

  EXPECT_EQ(Err, 0);
  ASSERT_EQ(Got.size(), 4 + Payload.size());
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(Got[I]) << (8 * I);
  EXPECT_EQ(Len, Payload.size());
  EXPECT_TRUE(std::equal(Payload.begin(), Payload.end(), Got.begin() + 4));
}

TEST(ServerProtocol, WriteFrameReportsAVanishedPeer) {
  // MSG_NOSIGNAL: a closed peer is EPIPE from writeFrame, not a SIGPIPE
  // that kills the process.
  int Fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
  ::close(Fds[1]);
  std::vector<uint8_t> Payload = encodeRequest(1, PingRequest{});
  EXPECT_EQ(writeFrame(Fds[0], Payload.data(), Payload.size()), EPIPE);
  ::close(Fds[0]);
}

//===--------------------------------------------------------------------===//
// Byte goldens: the exact rmd-wire-v1 bytes of every non-Batch message.
// A field order or width changed the same way in the encoder and the
// decoder still round-trips; it does not match these.
//===--------------------------------------------------------------------===//

constexpr uint32_t kGoldenId = 0x11223344; // 44 33 22 11 on the wire

using Bytes = std::vector<uint8_t>;

TEST(ServerProtocol, GoldenPingBytes) {
  EXPECT_EQ(encodeRequest(kGoldenId, PingRequest{}),
            (Bytes{0x01, 0x01, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11}));
  EXPECT_EQ(encodeReply(kGoldenId, PingReply{}),
            (Bytes{0x01, 0x81, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, 0x00,
                   0x00}));
}

TEST(ServerProtocol, GoldenLoadMachineBytes) {
  EXPECT_EQ(encodeRequest(kGoldenId, LoadMachineRequest{"m88100"}),
            (Bytes{0x01, 0x02, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x06, 0x00, 0x00, 0x00, 'm', '8', '8', '1', '0', '0'}));
  LoadMachineReply Reply;
  Reply.MachineId = 0x0102;
  Reply.Degraded = 1;
  Reply.Bitvector = 0;
  Reply.NumOperations = 0x20;
  Reply.OriginalResources = 0x2E;
  Reply.ReducedResources = 0x0F;
  EXPECT_EQ(encodeReply(kGoldenId, Reply),
            (Bytes{0x01, 0x82, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x00, 0x00,                                     // ok
                   0x02, 0x01, 0x00, 0x00,                         // id
                   0x01, 0x00,                                     // flags
                   0x20, 0x00, 0x00, 0x00, 0x2E, 0x00, 0x00, 0x00, 0x0F,
                   0x00, 0x00, 0x00}));
}

TEST(ServerProtocol, GoldenOpenSessionBytes) {
  OpenSessionRequest Req;
  Req.MachineId = 5;
  Req.Modulo = 1;
  Req.UnionAlt = 0;
  Req.ModuloII = 13;
  Req.MinCycle = -4;
  Req.Tenant = "ab";
  EXPECT_EQ(encodeRequest(kGoldenId, Req),
            (Bytes{0x01, 0x03, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x05, 0x00, 0x00, 0x00,                         // machine
                   0x01, 0x00,                                     // flags
                   0x0D, 0x00, 0x00, 0x00,                         // II
                   0xFC, 0xFF, 0xFF, 0xFF,                         // -4
                   0x02, 0x00, 0x00, 0x00, 'a', 'b'}));
  EXPECT_EQ(encodeReply(kGoldenId, OpenSessionReply{0x4D}),
            (Bytes{0x01, 0x83, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, 0x00,
                   0x00, 0x4D, 0x00, 0x00, 0x00}));
}

TEST(ServerProtocol, GoldenScheduleLoopBytes) {
  ScheduleLoopRequest Req;
  Req.MachineId = 2;
  Req.BudgetRatio = 8;
  Req.MaxII = 40;
  Req.DeadlineMs = 1500;
  Req.GraphText = "g";
  EXPECT_EQ(encodeRequest(kGoldenId, Req),
            (Bytes{0x01, 0x05, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x28,
                   0x00, 0x00, 0x00, 0xDC, 0x05, 0x00, 0x00, // 1500
                   0x01, 0x00, 0x00, 0x00, 'g'}));
  ScheduleLoopReply Reply;
  Reply.Success = 1;
  Reply.Outcome = 2;
  Reply.II = 13;
  Reply.Time = {0, 5, -1};
  Reply.Alternative = {1, -1};
  Reply.Message = "hi";
  EXPECT_EQ(encodeReply(kGoldenId, Reply),
            (Bytes{0x01, 0x85, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x00, 0x00,                                     // ok
                   0x01, 0x02, 0x0D, 0x00, 0x00, 0x00,             // II
                   0x03, 0x00, 0x00, 0x00,                         // Time
                   0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0xFF,
                   0xFF, 0xFF, 0xFF,
                   0x02, 0x00, 0x00, 0x00, // Alternative
                   0x01, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0xFF,
                   0x02, 0x00, 0x00, 0x00, 'h', 'i'}));
}

TEST(ServerProtocol, GoldenStatsBytesBothShapes) {
  EXPECT_EQ(encodeRequest(kGoldenId, StatsRequest{6}),
            (Bytes{0x01, 0x06, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, 0x06,
                   0x00, 0x00, 0x00}));

  StatsReply Session;
  Session.ServerWide = 0;
  WorkCounters &C = Session.Session.Counters;
  C.CheckCalls = 1;
  C.CheckUnits = 2;
  C.AssignCalls = 3;
  C.AssignUnits = 4;
  C.FreeCalls = 5;
  C.FreeUnits = 6;
  C.AssignFreeCalls = 7;
  C.AssignFreeUnits = 8;
  C.TransitionUnits = 9;
  Session.Session.LiveInstances = 0x0A0B;
  Bytes Want = {0x01, 0x86, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                0x00, 0x00,                                     // ok
                0x00};                                          // session
  for (uint8_t V = 1; V <= 9; ++V)
    Want.insert(Want.end(), {V, 0, 0, 0, 0, 0, 0, 0});
  Want.insert(Want.end(), {0x0B, 0x0A, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(encodeReply(kGoldenId, Session), Want);

  StatsReply Server;
  Server.ServerWide = 1;
  Server.Server.ActiveSessions = 1;
  Server.Server.MachinesLoaded = 2;
  Server.Server.RequestsServed = 0x0102030405060708;
  Server.Server.OverloadRejections = 4;
  Server.Server.ProtocolErrors = 5;
  EXPECT_EQ(encodeReply(kGoldenId, Server),
            (Bytes{0x01, 0x86, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x00, 0x00, 0x01,                   // ok, server-wide
                   0x01, 0, 0, 0, 0, 0, 0, 0,          // sessions
                   0x02, 0, 0, 0, 0, 0, 0, 0,          // machines
                   0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
                   0x04, 0, 0, 0, 0, 0, 0, 0,          // overloads
                   0x05, 0, 0, 0, 0, 0, 0, 0}));       // protocol errors
}

TEST(ServerProtocol, GoldenCloseSessionAndShutdownBytes) {
  EXPECT_EQ(encodeRequest(kGoldenId, CloseSessionRequest{9}),
            (Bytes{0x01, 0x07, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, 0x09,
                   0x00, 0x00, 0x00}));
  EXPECT_EQ(encodeReply(kGoldenId, CloseSessionReply{}),
            (Bytes{0x01, 0x87, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, 0x00,
                   0x00}));
  EXPECT_EQ(encodeRequest(kGoldenId, ShutdownRequest{}),
            (Bytes{0x01, 0x08, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11}));
  EXPECT_EQ(encodeReply(kGoldenId, ShutdownReply{}),
            (Bytes{0x01, 0x88, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, 0x00,
                   0x00}));
}

TEST(ServerProtocol, GoldenErrorReplyBytes) {
  EXPECT_EQ(encodeErrorReply(kGoldenId, MessageType::Batch,
                             Status(ErrorCode::Overloaded, "full")),
            (Bytes{0x01, 0x84, 0x00, 0x00, 0x44, 0x33, 0x22, 0x11, // header
                   0x0B, 0x00,                                     // code
                   0x04, 0x00, 0x00, 0x00, 'f', 'u', 'l', 'l'}));
}

/// Reads one frame's payload from \p Fd; empty on EOF or error.
Bytes recvFramePayload(int Fd) {
  Bytes Payload;
  uint32_t Len = 0;
  if (readFrame(Fd, Payload, Len) != 0)
    return {};
  return Payload;
}

std::string uniqueSocket(const char *Tag) {
  static std::atomic<int> Counter{0};
  return std::string("@rmd-proto-") + Tag + "-" + std::to_string(::getpid()) +
         "-" + std::to_string(Counter.fetch_add(1));
}

/// The status a real server answers the request payload \p Request with.
Status serverAnswer(const Bytes &Request) {
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("answer");
  Options.Workers = 1;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  if (!Server)
    return Server.status();
  Expected<int> Fd = openLocalSocket(Server.value()->socketPath(),
                                     /*Listen=*/false);
  if (!Fd)
    return Fd.status();
  if (writeFrame(Fd.value(), Request.data(), Request.size()) != 0) {
    ::close(Fd.value());
    return Status(ErrorCode::CacheIO, "could not send the request");
  }
  Bytes Reply = recvFramePayload(Fd.value());
  ::close(Fd.value());
  WireReader In(Reply);
  Status ServerStatus = Status::ok();
  if (!decodeHeader(In, /*ExpectResponse=*/true))
    return Status(ErrorCode::CacheIO, "no decodable reply");
  if (Status S = decodeReplyStatus(In, ServerStatus); !S)
    return S;
  return ServerStatus;
}

/// A stand-in server on an abstract socket: it accepts one connection and
/// answers each request frame with Answer(request) (nothing when that is
/// empty) until the peer goes away, counting the frames it read.
class FakeServer {
public:
  explicit FakeServer(std::function<Bytes(const Bytes &)> Answer)
      : Path(uniqueSocket("fake")), Answer(std::move(Answer)) {
    Expected<int> Fd = openLocalSocket(Path, /*Listen=*/true);
    EXPECT_TRUE(bool(Fd)) << Fd.status().render();
    ListenFd = Fd ? Fd.value() : -1;
    Thread = std::thread([this] { serve(); });
  }
  ~FakeServer() { join(); }

  const std::string &path() const { return Path; }

  /// Waits for the connection to end; then requestsRead() is final.
  void join() {
    if (!Thread.joinable())
      return;
    ::shutdown(ListenFd, SHUT_RDWR); // unblocks an accept nobody answered
    Thread.join();
    ::close(ListenFd);
  }
  int requestsRead() const { return Requests.load(); }

private:
  void serve() {
    int Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0)
      return;
    while (true) {
      Bytes Request = recvFramePayload(Fd);
      if (Request.empty())
        break;
      Requests.fetch_add(1);
      Bytes Reply = Answer(Request);
      if (!Reply.empty())
        writeFrame(Fd, Reply.data(), Reply.size());
    }
    ::close(Fd);
  }

  std::string Path;
  std::function<Bytes(const Bytes &)> Answer;
  int ListenFd = -1;
  std::atomic<int> Requests{0};
  std::thread Thread;
};

/// \p Reply with the request id of \p Request copied into its header.
Bytes answering(const Bytes &Request, Bytes Reply) {
  std::copy(Request.begin() + 4, Request.begin() + 8, Reply.begin() + 4);
  return Reply;
}

TEST(ServerProtocol, GoldenOpenSessionTruncationWinsOverABadFlag) {
  // Modulo = 2, then the body stops after ModuloII: the flag bytes are
  // checked only once every field is read, so truncation is reported.
  Bytes Request = {0x01, 0x03, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // header
                   0x01, 0x00, 0x00, 0x00,                         // machine
                   0x02, 0x00,                                     // flags
                   0x04, 0x00, 0x00, 0x00};                        // II
  Status S = serverAnswer(Request);
  EXPECT_EQ(S.code(), ErrorCode::ProtocolError);
  EXPECT_EQ(S.message(), "truncated message body");
}

TEST(ServerProtocol, GoldenOpenSessionBadFlagWinsOverTrailingBytes) {
  Bytes Request = {0x01, 0x03, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, // header
                   0x01, 0x00, 0x00, 0x00,                         // machine
                   0x00, 0x07,                                     // flags
                   0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // II, min
                   0x00, 0x00, 0x00, 0x00,                         // tenant
                   0xEE};                                          // trailing
  Status S = serverAnswer(Request);
  EXPECT_EQ(S.code(), ErrorCode::ProtocolError);
  EXPECT_EQ(S.message(), "non-boolean flag byte");
}

TEST(ServerProtocol, GoldenStatsReplyBadFlagWinsOverTruncation) {
  // ServerWide = 2 followed by three bytes of a counter: the flag is
  // checked as soon as it is read, before the body it selects.
  FakeServer Fake([](const Bytes &Request) {
    return answering(Request, {0x01, 0x86, 0x00, 0x00, 0, 0, 0, 0, 0x00,
                               0x00, 0x02, 0x01, 0x00, 0x00});
  });
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Fake.path(), /*RecvTimeoutMs=*/30000);
  ASSERT_TRUE(bool(C)) << C.status().render();
  Expected<StatsReply> R = C.value()->serverStats();
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
  EXPECT_EQ(R.status().message(), "non-boolean flag byte");
}

TEST(ServerProtocol, GoldenScheduleLoopReplyNodeCountBeyondBody) {
  FakeServer Fake([](const Bytes &Request) {
    return answering(Request, {0x01, 0x85, 0x00, 0x00, 0, 0, 0, 0, // header
                               0x00, 0x00,                         // ok
                               0x01, 0x00, 0x04, 0x00, 0x00, 0x00, // II
                               0x00, 0x01, 0x00, 0x00,             // 256
                               0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
                               0x00});
  });
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Fake.path(), /*RecvTimeoutMs=*/30000);
  ASSERT_TRUE(bool(C)) << C.status().render();
  Expected<ScheduleLoopReply> R = C.value()->scheduleLoop({});
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::ProtocolError);
  EXPECT_EQ(R.status().message(), "node count exceeds body size");
}


TEST(ServerProtocol, ClientClosesTheConnectionAfterATimeout) {
  // The reply to the first ping arrives only after the client timed out
  // waiting for it. Read by the next call, it would answer the wrong
  // request; the client must instead have closed the connection, so the
  // second call fails without sending anything.
  std::promise<void> FirstCallReturned;
  std::shared_future<void> Late = FirstCallReturned.get_future().share();
  FakeServer Fake([Late](const Bytes &Request) {
    Late.wait();
    return answering(Request, encodeReply(0, PingReply{}));
  });
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Fake.path(), /*RecvTimeoutMs=*/50);
  ASSERT_TRUE(bool(C)) << C.status().render();
  Status First = C.value()->ping();
  FirstCallReturned.set_value();
  EXPECT_EQ(First.code(), ErrorCode::TimedOut) << First.render();
  Status Second = C.value()->ping();
  EXPECT_FALSE(Second.isOk());
  EXPECT_FALSE(Second.message().empty());
  C.value().reset(); // a connection still open would end here
  Fake.join();
  EXPECT_EQ(Fake.requestsRead(), 1);
}


} // namespace
