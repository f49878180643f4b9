//===- tests/ServerConcurrencyTest.cpp - N-client differential test -------===//
//
// The multi-tenant guarantee, tested differentially: N concurrent clients
// each stream a seeded workload to the server AND through a private local
// query module (server/Workload.h). Reduction is deterministic, so the
// local module is built over the same reduced description the server
// serves from its shared pattern arena — every per-event result, the
// final WorkCounters, and a full occupancy probe grid must match
// bit-identically at 1, 4, and 16 clients. Any cross-session bleed
// through the shared arena, a lock dropped around session state, or a
// reordering in the worker pool shows up as a mismatch.
//
// Runs under the tsan preset (label "server") to catch data races the
// differential comparison alone cannot see.
//
//===----------------------------------------------------------------------===//

#include "machines/MachineModel.h"
#include "query/QueryModule.h"
#include "reduce/Reduction.h"
#include "reduce/ReductionCache.h"
#include "server/Client.h"
#include "server/Server.h"
#include "server/Workload.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

namespace {

std::string uniqueSocket(const char *Tag) {
  static std::atomic<int> Counter{0};
  return std::string("@rmd-test-") + Tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1));
}

/// The client-side mirror of the server's load path: same expansion, same
/// reduction (deterministic), so local modules see the same description.
MachineDescription reducedFor(const MachineModel &Model) {
  ExpandedMachine EM = expandAlternatives(Model.MD);
  SafeReduction Safe = reduceMachineOrFallback(EM.Flat);
  return std::move(Safe.Result.Reduced);
}

struct ClientOutcome {
  bool Ok = false;
  std::string What;
};

/// One tenant: streams Batches batches of BatchLen seeded events, checks
/// every result byte against the local mirror, then the counters, then an
/// occupancy probe over every (op, cycle) in the window.
void runTenant(const std::string &Socket, const std::string &MachineName,
               const MachineDescription &Reduced, const QueryConfig &Config,
               uint64_t Seed, size_t Batches, size_t BatchLen,
               ClientOutcome &Out) {
  auto Fail = [&Out](std::string What) {
    Out.Ok = false;
    Out.What = std::move(What);
  };

  Expected<std::unique_ptr<RmdClient>> Client =
      RmdClient::connect(Socket, /*RecvTimeoutMs=*/300000);
  if (!Client)
    return Fail("connect: " + Client.status().render());
  RmdClient &C = *Client.value();

  Expected<LoadMachineReply> M = C.loadMachine(MachineName);
  if (!M)
    return Fail("load: " + M.status().render());

  OpenSessionRequest OpenReq;
  OpenReq.MachineId = M.value().MachineId;
  OpenReq.Modulo = Config.Mode == QueryConfig::Modulo ? 1 : 0;
  OpenReq.ModuloII = Config.ModuloII;
  OpenReq.MinCycle = Config.MinCycle;
  OpenReq.Tenant = "tenant-" + std::to_string(Seed);
  Expected<OpenSessionReply> Open = C.openSession(OpenReq);
  if (!Open)
    return Fail("open: " + Open.status().render());
  uint32_t SessionId = Open.value().SessionId;

  WorkloadGenerator Gen(Reduced, Config, Seed);
  std::vector<BatchEvent> Events;
  std::vector<uint8_t> Want;
  for (size_t B = 0; B < Batches; ++B) {
    Events.clear();
    Want.clear();
    Gen.nextBatch(BatchLen, Events, Want);
    BatchRequest Req;
    Req.SessionId = SessionId;
    Req.Events = Events;
    Expected<BatchReply> Reply = C.runBatch(Req);
    if (!Reply)
      return Fail("batch " + std::to_string(B) + ": " +
                  Reply.status().render());
    if (Reply.value().Results != Want)
      return Fail("batch " + std::to_string(B) +
                  ": result bytes diverge from the local module");
  }

  // Counters: the server session must have done exactly the same work.
  Expected<StatsReply> Stats = C.sessionStats(SessionId);
  if (!Stats)
    return Fail("stats: " + Stats.status().render());
  WorkCounters Local = Gen.module().counters();
  const WorkCounters &Remote = Stats.value().Session.Counters;
  if (Remote.CheckCalls != Local.CheckCalls ||
      Remote.CheckUnits != Local.CheckUnits ||
      Remote.AssignCalls != Local.AssignCalls ||
      Remote.AssignUnits != Local.AssignUnits ||
      Remote.FreeCalls != Local.FreeCalls ||
      Remote.FreeUnits != Local.FreeUnits ||
      Remote.AssignFreeCalls != Local.AssignFreeCalls ||
      Remote.AssignFreeUnits != Local.AssignFreeUnits ||
      Remote.TransitionUnits != Local.TransitionUnits)
    return Fail("WorkCounters diverge from the local module");
  if (Stats.value().Session.LiveInstances != Gen.liveInstances())
    return Fail("live-instance count diverges");

  // Occupancy probe: a Check over every (op, cycle) in the window proves
  // the occupancy itself (not just the sampled results) is identical.
  const bool Modulo = Config.Mode == QueryConfig::Modulo;
  const int ProbeBase = Modulo ? 0 : Config.MinCycle;
  const int ProbeSpan = Modulo ? Config.ModuloII : 64;
  BatchRequest Probe;
  Probe.SessionId = SessionId;
  std::vector<uint8_t> ProbeExpected;
  for (OpId Op = 0; Op < Reduced.numOperations(); ++Op)
    for (int D = 0; D < ProbeSpan; ++D) {
      Probe.Events.push_back(
          {Verb::Check, static_cast<uint32_t>(Op), ProbeBase + D, 0});
      ProbeExpected.push_back(Gen.mutableModule().check(Op, ProbeBase + D)
                                  ? 1
                                  : 0);
    }
  Expected<BatchReply> ProbeReply = C.runBatch(Probe);
  if (!ProbeReply)
    return Fail("probe: " + ProbeReply.status().render());
  if (ProbeReply.value().Results != ProbeExpected)
    return Fail("occupancy probe diverges from the local module");

  if (Status S = C.closeSession(SessionId); !S)
    return Fail("close: " + S.render());
  Out.Ok = true;
}

void runDifferential(const std::string &MachineName,
                     const MachineModel &Model, const QueryConfig &Config,
                     size_t NumClients, size_t Batches, size_t BatchLen) {
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("conc");
  Options.Workers = 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  MachineDescription Reduced = reducedFor(Model);
  std::vector<ClientOutcome> Outcomes(NumClients);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < NumClients; ++I)
    Threads.emplace_back(runTenant, Server.value()->socketPath(),
                         MachineName, std::cref(Reduced), std::cref(Config),
                         /*Seed=*/0x5eed0000 + I, Batches, BatchLen,
                         std::ref(Outcomes[I]));
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < NumClients; ++I)
    EXPECT_TRUE(Outcomes[I].Ok) << "client " << I << ": " << Outcomes[I].What;

  EXPECT_EQ(Server.value()->sessionCount(), 0u);
  Server.value()->stop();
}

TEST(ServerConcurrency, SingleClientLinearMatchesLocal) {
  runDifferential("cydra5", makeCydra5(), QueryConfig::linear(0),
                  /*NumClients=*/1, /*Batches=*/16, /*BatchLen=*/256);
}

TEST(ServerConcurrency, FourClientsLinearMatchLocal) {
  runDifferential("cydra5", makeCydra5(), QueryConfig::linear(0),
                  /*NumClients=*/4, /*Batches=*/12, /*BatchLen=*/192);
}

TEST(ServerConcurrency, SixteenClientsLinearMatchLocal) {
  runDifferential("cydra5", makeCydra5(), QueryConfig::linear(0),
                  /*NumClients=*/16, /*Batches=*/6, /*BatchLen=*/128);
}

TEST(ServerConcurrency, FourClientsModuloSharedArenaMatchLocal) {
  // All four sessions share one modulo pattern arena (same machine, same
  // II): the strongest aliasing case for the arena refactor.
  runDifferential("cydra5", makeCydra5(), QueryConfig::modulo(8),
                  /*NumClients=*/4, /*Batches=*/12, /*BatchLen=*/192);
}

TEST(ServerConcurrency, SixteenClientsModuloMatchLocal) {
  runDifferential("mips-r3000", makeMipsR3000(), QueryConfig::modulo(6),
                  /*NumClients=*/16, /*Batches=*/6, /*BatchLen=*/128);
}

TEST(ServerConcurrency, MixedConfigsShareOneMachine) {
  // Linear and modulo sessions of the same machine at once: different
  // arenas, one registry entry; nothing may bleed between them.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("mixed");
  Options.Workers = 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  MachineModel Model = makeCydra5();
  MachineDescription Reduced = reducedFor(Model);
  QueryConfig Linear = QueryConfig::linear(0);
  QueryConfig Modulo = QueryConfig::modulo(11);

  std::vector<ClientOutcome> Outcomes(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < 8; ++I)
    Threads.emplace_back(runTenant, Server.value()->socketPath(),
                         std::string("cydra5"), std::cref(Reduced),
                         std::cref(I % 2 ? Modulo : Linear),
                         /*Seed=*/0xabc000 + I, /*Batches=*/8,
                         /*BatchLen=*/128, std::ref(Outcomes[I]));
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < 8; ++I)
    EXPECT_TRUE(Outcomes[I].Ok) << "client " << I << ": " << Outcomes[I].What;
  EXPECT_EQ(Server.value()->sessionCount(), 0u);
}

TEST(ServerConcurrency, SessionsArePinnedToTheirConnection) {
  // A second connection must not be able to touch (or even probe) a
  // session opened by the first.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("pin");
  Options.Workers = 2;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  Expected<std::unique_ptr<RmdClient>> A =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  Expected<std::unique_ptr<RmdClient>> B =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(A));
  ASSERT_TRUE(bool(B));

  Expected<LoadMachineReply> M = A.value()->loadMachine("cydra5");
  ASSERT_TRUE(bool(M));
  OpenSessionRequest Req;
  Req.MachineId = M.value().MachineId;
  Expected<OpenSessionReply> Open = A.value()->openSession(Req);
  ASSERT_TRUE(bool(Open));

  BatchRequest Batch;
  Batch.SessionId = Open.value().SessionId;
  Batch.Events.push_back({Verb::Check, 0, 0, 0});
  Expected<BatchReply> Stolen = B.value()->runBatch(Batch);
  ASSERT_FALSE(bool(Stolen));
  EXPECT_EQ(Stolen.status().code(), ErrorCode::ProtocolError);

  // The owner can still use it.
  Expected<BatchReply> Own = A.value()->runBatch(Batch);
  EXPECT_TRUE(bool(Own)) << Own.status().render();

  // Dropping the owning connection reaps the session.
  A.value().reset();
  for (int Spin = 0; Spin < 200 && Server.value()->sessionCount(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Server.value()->sessionCount(), 0u);
}

TEST(ServerConcurrency, OverloadedIsStructuredNotFatal) {
  // A tiny queue with slow drain: concurrent pings may be rejected with
  // Overloaded, but every rejection is a structured reply and the server
  // keeps serving afterwards.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("ovl");
  Options.Workers = 1;
  Options.QueueCapacity = 1;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  std::atomic<int> OkCount{0}, OverloadCount{0}, OtherCount{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back([&, I] {
      Expected<std::unique_ptr<RmdClient>> C =
          RmdClient::connect(Server.value()->socketPath(), 300000);
      if (!C) {
        OtherCount.fetch_add(1);
        return;
      }
      for (int J = 0; J < 50; ++J) {
        Status S = C.value()->ping();
        if (S.isOk())
          OkCount.fetch_add(1);
        else if (S.code() == ErrorCode::Overloaded)
          OverloadCount.fetch_add(1);
        else
          OtherCount.fetch_add(1);
      }
      (void)I;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(OtherCount.load(), 0);
  EXPECT_GT(OkCount.load(), 0);
  // Whatever was rejected must be visible in the server's own tally.
  EXPECT_EQ(Server.value()->overloadRejections(),
            static_cast<uint64_t>(OverloadCount.load()));

  // Still alive and well after the storm.
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(C));
  EXPECT_TRUE(C.value()->ping().isOk());
}

TEST(ServerConcurrency, ResetIgnoresOpEvenOutOfRange) {
  // Reset ignores Op, Cycle and Instance: the server must neither reject
  // nor read anything through an out-of-range Op on a Reset, in a modulo
  // session (whose self-conflict table is indexed by op) or a linear one.
  // Any other verb with such an Op is rejected with its event index.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("reset");
  Options.Workers = 2;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(C)) << C.status().render();
  Expected<LoadMachineReply> M = C.value()->loadMachine("cydra5");
  ASSERT_TRUE(bool(M)) << M.status().render();
  const uint32_t NumOps = M.value().NumOperations;

  for (uint8_t Modulo : {uint8_t(1), uint8_t(0)}) {
    OpenSessionRequest Open;
    Open.MachineId = M.value().MachineId;
    Open.Modulo = Modulo;
    Open.ModuloII = 4;
    Expected<OpenSessionReply> S = C.value()->openSession(Open);
    ASSERT_TRUE(bool(S)) << S.status().render();
    std::string What = Modulo ? "modulo II=4" : "linear";

    BatchRequest Resets;
    Resets.SessionId = S.value().SessionId;
    Resets.Events.push_back({Verb::Reset, NumOps, 0, 0});
    Resets.Events.push_back({Verb::Reset, 0xFFFFFFFFu, -1000, -1});
    Resets.Events.push_back({Verb::Reset, 0xFFFFFFF0u, 0, 0});
    Expected<BatchReply> R = C.value()->runBatch(Resets);
    ASSERT_TRUE(bool(R)) << What << ": " << R.status().render();
    EXPECT_EQ(R.value().Results,
              std::vector<uint8_t>(3, kResultDone)) << What;

    for (uint32_t Op : {NumOps, 0xFFFFFFFFu}) {
      BatchRequest Bad;
      Bad.SessionId = S.value().SessionId;
      Bad.Events.push_back({Verb::Reset, Op, 0, 0});
      Bad.Events.push_back({Verb::Check, Op, 0, 0});
      Expected<BatchReply> Rejected = C.value()->runBatch(Bad);
      ASSERT_FALSE(bool(Rejected)) << What;
      EXPECT_EQ(Rejected.status().code(), ErrorCode::ProtocolError);
      EXPECT_EQ(Rejected.status().message(),
                "event 1: operation " + std::to_string(Op) + " out of range")
          << What;
    }

    // The session is intact and still serves a valid batch.
    BatchRequest Check;
    Check.SessionId = S.value().SessionId;
    Check.Events.push_back({Verb::Check, 0, 0, 0});
    EXPECT_TRUE(bool(C.value()->runBatch(Check))) << What;
  }
}

TEST(ServerConcurrency, TenantCounterCountsAcceptedBatchEvents) {
  // server.tenant.<name>.queries is created at a tenant's first accepted
  // batch and sums the events of every session of that tenant; rejected
  // batches count nothing.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("tenant");
  Options.Workers = 2;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(C)) << C.status().render();
  Expected<LoadMachineReply> M = C.value()->loadMachine("cydra5");
  ASSERT_TRUE(bool(M)) << M.status().render();

  const std::string Tenant = "acct-" + std::to_string(::getpid());
  const std::string Key = "server.tenant." + Tenant + ".queries";
  auto Count = [&Key]() -> std::optional<uint64_t> {
    StatsSnapshot Snap = StatsRegistry::instance().snapshot();
    auto It = Snap.Counters.find(Key);
    if (It == Snap.Counters.end())
      return std::nullopt;
    return It->second;
  };

  OpenSessionRequest Open;
  Open.MachineId = M.value().MachineId;
  Open.Tenant = Tenant;
  uint32_t Sessions[2];
  for (uint32_t &Id : Sessions) {
    Expected<OpenSessionReply> S = C.value()->openSession(Open);
    ASSERT_TRUE(bool(S)) << S.status().render();
    Id = S.value().SessionId;
  }

  BatchRequest Rejected;
  Rejected.SessionId = Sessions[0];
  Rejected.Events.push_back({Verb::Check, 0, 0, 0});
  Rejected.Events.push_back({Verb::Check, M.value().NumOperations, 0, 0});
  ASSERT_FALSE(bool(C.value()->runBatch(Rejected)));
  EXPECT_FALSE(Count().has_value()) << "registered before the first batch";

  size_t Sizes[] = {3, 5, 2};
  for (size_t B = 0; B < 3; ++B) {
    BatchRequest Req;
    Req.SessionId = Sessions[B % 2];
    Req.Events.assign(Sizes[B], {Verb::Check, 0, 0, 0});
    ASSERT_TRUE(bool(C.value()->runBatch(Req)));
  }
  EXPECT_EQ(Count(), std::optional<uint64_t>(10));
}

/// A raw client for the framing test: frames built by hand, sent in
/// pieces, replies read back by the same rules the reader applies.
class RawConnection {
public:
  explicit RawConnection(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    // '@' = abstract namespace: sun_path[0] stays NUL.
    std::memcpy(Addr.sun_path + 1, Path.data() + 1, Path.size() - 1);
    socklen_t Len =
        static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + Path.size());
    timeval Tv{300, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    Ok = Fd >= 0 &&
         ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), Len) == 0;
  }
  ~RawConnection() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool ok() const { return Ok; }

  /// Sends \p Payload's frame cut at \p Cuts (ascending offsets into the
  /// frame, length prefix included), sleeping between the pieces.
  bool sendInPieces(const std::vector<uint8_t> &Payload,
                    std::vector<size_t> Cuts) {
    std::vector<uint8_t> Frame(4);
    for (int I = 0; I < 4; ++I)
      Frame[I] = static_cast<uint8_t>(Payload.size() >> (8 * I));
    Frame.insert(Frame.end(), Payload.begin(), Payload.end());
    Cuts.push_back(Frame.size());
    size_t From = 0;
    for (size_t To : Cuts) {
      if (From != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (!sendAll(Frame.data() + From, To - From))
        return false;
      From = To;
    }
    return true;
  }

  bool send(const std::vector<uint8_t> &Payload) {
    return sendInPieces(Payload, {});
  }

  /// Reads one reply frame's payload; empty on EOF, timeout or error.
  std::vector<uint8_t> recvFrame() {
    uint8_t LenBytes[4];
    if (!recvAll(LenBytes, 4))
      return {};
    uint32_t Len = 0;
    for (int I = 0; I < 4; ++I)
      Len |= static_cast<uint32_t>(LenBytes[I]) << (8 * I);
    if (Len == 0 || Len > kMaxFrameBytes)
      return {};
    std::vector<uint8_t> Payload(Len);
    if (!recvAll(Payload.data(), Len))
      return {};
    return Payload;
  }

private:
  bool sendAll(const uint8_t *P, size_t N) {
    while (N) {
      ssize_t Sent = ::send(Fd, P, N, MSG_NOSIGNAL);
      if (Sent <= 0)
        return false;
      P += Sent;
      N -= static_cast<size_t>(Sent);
    }
    return true;
  }
  bool recvAll(uint8_t *P, size_t N) {
    while (N) {
      ssize_t Got = ::recv(Fd, P, N, 0);
      if (Got <= 0)
        return false;
      P += Got;
      N -= static_cast<size_t>(Got);
    }
    return true;
  }

  int Fd = -1;
  bool Ok = false;
};

/// Decodes an ok reply payload of type \p Type and returns its request id
/// and body through \p Decode; fails the test on anything else.
template <typename T, typename DecodeFn>
Expected<T> decodeRawReply(const std::vector<uint8_t> &Payload,
                           MessageType Type, uint32_t &RequestId,
                           DecodeFn Decode) {
  WireReader In(Payload);
  Expected<FrameHeader> H = decodeHeader(In, /*ExpectResponse=*/true);
  if (!H)
    return H.status();
  EXPECT_EQ(H.value().Type & ~kResponseBit, static_cast<uint8_t>(Type));
  RequestId = H.value().RequestId;
  Status ServerStatus;
  if (Status S = decodeReplyStatus(In, ServerStatus); !S)
    return S;
  if (!ServerStatus)
    return ServerStatus;
  return Decode(In);
}

TEST(ServerConcurrency, FramesSentInPiecesAreReassembled) {
  // The reader must reassemble a frame whose length prefix and payload
  // arrive in several pieces, answer it exactly as RmdClient::runBatch's
  // frame is answered, and then answer the next frame on the connection.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("pieces");
  Options.Workers = 2;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();
  const std::string &Socket = Server.value()->socketPath();

  RawConnection Raw(Socket);
  ASSERT_TRUE(Raw.ok());
  uint32_t Id = 0;
  ASSERT_TRUE(Raw.send(encodeRequest(1, LoadMachineRequest{"cydra5"})));
  Expected<LoadMachineReply> M = decodeRawReply<LoadMachineReply>(
      Raw.recvFrame(), MessageType::LoadMachine, Id,
      decodeBody<LoadMachineReply>);
  ASSERT_TRUE(bool(M)) << M.status().render();
  EXPECT_EQ(Id, 1u);
  OpenSessionRequest Open;
  Open.MachineId = M.value().MachineId;
  uint32_t Sessions[2];
  for (uint32_t I = 0; I < 2; ++I) {
    ASSERT_TRUE(Raw.send(encodeRequest(2 + I, Open)));
    Expected<OpenSessionReply> S = decodeRawReply<OpenSessionReply>(
        Raw.recvFrame(), MessageType::OpenSession, Id,
        decodeBody<OpenSessionReply>);
    ASSERT_TRUE(bool(S)) << S.status().render();
    Sessions[I] = S.value().SessionId;
  }

  // The same two seeded batches through RmdClient on sessions of its own.
  MachineDescription Reduced = reducedFor(makeCydra5());
  BatchRequest Batches[2];
  std::vector<uint8_t> Want[2];
  for (size_t I = 0; I < 2; ++I) {
    WorkloadGenerator Gen(Reduced, QueryConfig::linear(0), 0xf4a3e + I);
    Gen.nextBatch(300, Batches[I].Events, Want[I]);
  }
  Expected<std::unique_ptr<RmdClient>> C = RmdClient::connect(Socket, 300000);
  ASSERT_TRUE(bool(C)) << C.status().render();
  std::vector<uint8_t> ClientResults[2];
  for (size_t I = 0; I < 2; ++I) {
    Expected<OpenSessionReply> S = C.value()->openSession(Open);
    ASSERT_TRUE(bool(S)) << S.status().render();
    Batches[I].SessionId = S.value().SessionId;
    Expected<BatchReply> R = C.value()->runBatch(Batches[I]);
    ASSERT_TRUE(bool(R)) << R.status().render();
    ClientResults[I] = R.value().Results;
    EXPECT_EQ(ClientResults[I], Want[I]);
  }

  // Frame 1: the length prefix split 1+3, the payload in four more pieces.
  // Frame 2, on the other raw session, goes out straight after in one
  // piece, before frame 1 is answered.
  Batches[0].SessionId = Sessions[0];
  Batches[1].SessionId = Sessions[1];
  std::vector<uint8_t> First = encodeRequest(10, Batches[0]);
  ASSERT_TRUE(Raw.sendInPieces(First, {1, 4, 5, 21, 1000, 2500}));
  ASSERT_TRUE(Raw.send(encodeRequest(11, Batches[1])));

  // The two sessions are independent, so the replies may come back in
  // either order; each is matched by its request id.
  for (int Reply = 0; Reply < 2; ++Reply) {
    Expected<BatchReply> R = decodeRawReply<BatchReply>(
        Raw.recvFrame(), MessageType::Batch, Id, decodeBatchReply);
    ASSERT_TRUE(bool(R)) << R.status().render();
    ASSERT_TRUE(Id == 10 || Id == 11) << Id;
    EXPECT_EQ(R.value().Results, ClientResults[Id - 10])
        << "request " << Id;
  }
}

} // namespace
