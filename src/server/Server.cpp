//===- server/Server.cpp --------------------------------------------------===//

#include "server/Server.h"

#include "query/DiscreteQuery.h" // hasModuloSelfConflict
#include "sched/GraphIO.h"
#include "sched/IterativeModuloScheduler.h"
#include "support/Degradation.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"

#include <cerrno>
#include <chrono>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

// Process-wide server counters (docs/observability.md, "server.*").
static StatCounter StatRequests("server.requests");
static StatCounter StatOverloads("server.overloaded");
static StatCounter StatProtocolErrors("server.protocol_errors");
static StatCounter StatSessionsOpened("server.sessions.opened");
static StatCounter StatSessionsClosed("server.sessions.closed");
static StatCounter StatBatchQueries("server.batch.queries");
static StatCounter StatScheduleLoops("server.schedule_loops");
static StatCounter StatAcceptDrops("server.accept.dropped");

RmdServer::RmdServer(ServerOptions TheOptions)
    : Options(std::move(TheOptions)), Queue(Options.QueueCapacity) {}

Expected<std::unique_ptr<RmdServer>> RmdServer::start(ServerOptions Options) {
  if (Options.SocketPath.empty())
    Options.SocketPath = "@rmd-serve-" + std::to_string(::getpid());
  if (Options.QueueCapacity == 0)
    Options.QueueCapacity = 1;
  std::unique_ptr<RmdServer> Server(new RmdServer(std::move(Options)));
  Expected<int> Fd = openLocalSocket(Server->Options.SocketPath, true);
  if (!Fd)
    return Fd.status();
  Server->ListenFd = Fd.value();
  unsigned W = ThreadPool::resolveThreadCount(Server->Options.Workers);
  Server->Options.Workers = W;
  Server->Workers = std::make_unique<ThreadPool>(W);
  Server->DispatcherThread = std::thread([S = Server.get()] {
    S->dispatcherLoop();
  });
  Server->AcceptThread = std::thread([S = Server.get()] { S->acceptLoop(); });
  return Server;
}

RmdServer::~RmdServer() { stop(); }

void RmdServer::acceptLoop() {
  while (true) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (Stopping.load())
        break;
      if (errno == EINTR)
        continue;
      // EBADF/EINVAL mean the listen socket was torn down under us.
      if (errno == EBADF || errno == EINVAL)
        break;
      continue;
    }
    if (Stopping.load()) {
      ::close(Fd);
      break;
    }
    if (FaultInjection::fire(faultpoints::ServerAccept)) {
      // Injected accept failure: the connection attempt is dropped; the
      // loop keeps serving everyone else.
      StatAcceptDrops.add();
      ::close(Fd);
      continue;
    }
    reapFinishedReaders(false);
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Conn->Id = NextConnId++;
    Connections.emplace_back();
    ConnEntry &Entry = Connections.back();
    Entry.Conn = Conn;
    Entry.Reader = std::thread([this, E = &Entry] { readerLoop(E); });
  }
}

void RmdServer::readerLoop(ConnEntry *Entry) {
  Connection &Conn = *Entry->Conn;
  while (true) {
    WorkItem Item;
    uint32_t Len = 0;
    int Err = readFrame(Conn.Fd, Item.Payload, Len);
    if (Err == kBadFrameLength) {
      // A garbage length prefix poisons the stream position; answer once
      // (best effort) and drop the connection rather than resync blindly.
      sendError(Conn, MessageType::Ping, 0,
                Status(ErrorCode::ProtocolError,
                       "frame length " + std::to_string(Len) + " outside (0, " +
                           std::to_string(kMaxFrameBytes) + "]"));
      break;
    }
    if (Err)
      break;
    Item.Conn = Entry->Conn;
    // Peek before the push: tryPush takes the item by value, so a failed
    // push has still consumed the payload.
    FrameHeader Peek = peekFrame(Item.Payload);
    bool InjectFull = FaultInjection::fire(faultpoints::ServerEnqueue);
    if (InjectFull || !Queue.tryPush(std::move(Item))) {
      // Backpressure: the queue is full (or behaves as if, under the
      // server.enqueue fault). The client gets a structured Overloaded
      // answer for *this* request and may retry; nothing is dropped
      // silently.
      Overloads.fetch_add(1);
      StatOverloads.add();
      sendError(Conn, MessageType(Peek.Type), Peek.RequestId,
                Status(ErrorCode::Overloaded, "server request queue is full"));
    }
  }
  closeConnectionSessions(Conn.Id);
  ::close(Conn.Fd);
  Entry->Done.store(true);
}

void RmdServer::dispatcherLoop() {
  // The worker pool's blocks each run drainQueue() until the queue closes.
  // parallelFor rethrows the first block exception at the join (including
  // an armed threadpool.task fault); restarting keeps the server degraded
  // but live instead of dead, mirroring the reduction pipeline's ladder.
  while (true) {
    try {
      Workers->parallelFor(0, Workers->concurrency(),
                           [this](size_t, size_t) { drainQueue(); });
      break; // clean return: queue closed and drained
    } catch (...) {
      globalDegradation().noteWorkerRethrow();
      if (Stopping.load() && Queue.closed())
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void RmdServer::drainQueue() {
  while (std::optional<WorkItem> Item = Queue.pop()) {
    RequestsServed.fetch_add(1);
    StatRequests.add();
    handleRequest(*Item->Conn, Item->Payload);
  }
}

void RmdServer::reapFinishedReaders(bool JoinAll) {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (auto It = Connections.begin(); It != Connections.end();) {
    if (JoinAll || It->Done.load()) {
      if (It->Reader.joinable())
        It->Reader.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

void RmdServer::closeConnectionSessions(uint64_t ConnId) {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    if (It->second->ConnId == ConnId) {
      StatSessionsClosed.add();
      It = Sessions.erase(It);
    } else {
      ++It;
    }
  }
}

void RmdServer::stop() {
  if (Stopped.exchange(true))
    return;
  Stopping.store(true);
  StopToken.cancel(); // abandon in-flight schedule-loops promptly
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  {
    // Wake blocked readers so they observe EOF and tear down.
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (ConnEntry &E : Connections)
      ::shutdown(E.Conn->Fd, SHUT_RDWR);
  }
  if (AcceptThread.joinable())
    AcceptThread.join();
  reapFinishedReaders(true);
  Queue.close();
  if (DispatcherThread.joinable())
    DispatcherThread.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!Options.SocketPath.empty() && Options.SocketPath[0] != '@')
    ::unlink(Options.SocketPath.c_str());
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    for ([[maybe_unused]] auto &Entry : Sessions)
      StatSessionsClosed.add();
    Sessions.clear();
  }
  ShutdownCv.notify_all();
}

void RmdServer::waitForShutdown() {
  // Polls so requestShutdownAsync() can stay signal-handler-safe (a bare
  // atomic store; no cv notify needed from the handler).
  std::unique_lock<std::mutex> Lock(ShutdownMutex);
  while (!ShutdownRequested.load() && !Stopping.load())
    ShutdownCv.wait_for(Lock, std::chrono::milliseconds(50));
}

size_t RmdServer::sessionCount() const {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  return Sessions.size();
}

void RmdServer::sendFrame(Connection &Conn,
                          const std::vector<uint8_t> &Payload) {
  std::lock_guard<std::mutex> Lock(Conn.WriteMutex);
  writeFrame(Conn.Fd, Payload.data(), Payload.size());
}

FrameHeader RmdServer::peekFrame(const std::vector<uint8_t> &Payload) {
  FrameHeader H;
  H.Type = static_cast<uint8_t>(MessageType::Ping);
  if (Payload.size() >= 2 && isMessageType(Payload[1] & ~kResponseBit))
    H.Type = Payload[1] & ~kResponseBit;
  if (Payload.size() >= 8)
    H.RequestId = detail::load32(Payload.data() + 4);
  return H;
}

void RmdServer::sendError(Connection &Conn, MessageType Type,
                          uint32_t RequestId, Status Error) {
  if (Error.code() == ErrorCode::ProtocolError) {
    ProtocolErrors.fetch_add(1);
    StatProtocolErrors.add();
  }
  sendFrame(Conn, encodeErrorReply(RequestId, Type, Error));
}

void RmdServer::handleRequest(Connection &Conn,
                              const std::vector<uint8_t> &Payload) {
  WireReader In(Payload);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/false);
  if (!Header) {
    FrameHeader Peek = peekFrame(Payload);
    sendError(Conn, MessageType(Peek.Type), Peek.RequestId, Header.status());
    return;
  }
  MessageType Type = static_cast<MessageType>(Header.value().Type);
  uint32_t RequestId = Header.value().RequestId;
  withMessage(Type, [&](auto M) {
    using Req = typename decltype(M)::Request;
    Expected<std::vector<uint8_t>> Reply = answer<Req>(In, Conn.Id, RequestId);
    if (!Reply)
      return sendError(Conn, Type, RequestId, Reply.status());
    sendFrame(Conn, Reply.value());
    if constexpr (std::is_same_v<Req, ShutdownRequest>) {
      // Only once the reply is out: the waiter's stop() closes connections.
      ShutdownRequested.store(true);
      ShutdownCv.notify_all();
    }
  });
}

template <class Req>
Expected<std::vector<uint8_t>>
RmdServer::answer(WireReader &In, uint64_t ConnId, uint32_t RequestId) {
  if constexpr (std::is_same_v<Req, BatchRequest>) {
    Expected<BatchRecords> R = decodeBatchRecords(In);
    if (!R)
      return R.status();
    return handleBatch(R.value(), ConnId, RequestId);
  } else {
    Expected<Req> R = decodeBody<Req>(In);
    if (!R)
      return R.status();
    Expected<typename MessageOf<Req>::Reply> Reply = handle(R.value(), ConnId);
    if (!Reply)
      return Reply.status();
    return encodeReply(RequestId, Reply.value());
  }
}

Expected<LoadMachineReply> RmdServer::handle(const LoadMachineRequest &R,
                                             uint64_t) {
  Expected<const LoadedMachine *> M = Registry.load(R.Name);
  if (!M)
    return M.status();
  LoadMachineReply Reply;
  Reply.MachineId = M.value()->id();
  Reply.Degraded = M.value()->degraded();
  Reply.Bitvector = M.value()->usesBitvector();
  Reply.NumOperations =
      static_cast<uint32_t>(M.value()->reduced().numOperations());
  Reply.OriginalResources =
      static_cast<uint32_t>(M.value()->model().MD.numResources());
  Reply.ReducedResources =
      static_cast<uint32_t>(M.value()->reduced().numResources());
  return Reply;
}

Expected<OpenSessionReply> RmdServer::handle(const OpenSessionRequest &R,
                                             uint64_t ConnId) {
  // Injected allocation failure: a structured error, no session registered
  // (FaultInjectionTest asserts the count returns to zero).
  if (FaultInjection::fire(faultpoints::ServerSessionAlloc))
    return Status(ErrorCode::FaultInjected,
                  "injected session-allocation failure");
  const LoadedMachine *M = Registry.byId(R.MachineId);
  if (!M)
    return Status(ErrorCode::ProtocolError,
                  "unknown machine id " + std::to_string(R.MachineId));
  QueryConfig Config;
  if (R.Modulo) {
    if (R.ModuloII <= 0 || R.ModuloII > (1 << 16))
      return Status(ErrorCode::ProtocolError,
                    "modulo session needs an II in [1, 65536], got " +
                        std::to_string(R.ModuloII));
    Config = QueryConfig::modulo(R.ModuloII);
  } else {
    Config = QueryConfig::linear(R.MinCycle);
  }
  Config.UnionAlternativeCheck = R.UnionAlt != 0;

  auto S = std::make_shared<Session>();
  S->ConnId = ConnId;
  S->Machine = M;
  S->Config = Config;
  S->Tenant = R.Tenant;
  S->Module = M->makeModule(Config);
  if (R.Modulo) {
    const MachineDescription &MD = M->reduced();
    S->SelfConflict.assign(MD.numOperations(), 0);
    for (OpId Op = 0; Op < MD.numOperations(); ++Op)
      S->SelfConflict[Op] =
          hasModuloSelfConflict(MD.operation(Op).table(), R.ModuloII);
  }
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    S->Id = NextSessionId++;
    Sessions.emplace(S->Id, S);
  }
  StatSessionsOpened.add();
  return OpenSessionReply{S->Id};
}

std::shared_ptr<RmdServer::Session>
RmdServer::findSession(uint32_t Id, uint64_t ConnId, Status &Error) {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  auto It = Sessions.find(Id);
  // Tenant isolation: a session is visible only to the connection that
  // opened it; a stray or malicious handle gets the same error as a
  // nonexistent one (no probing which ids are live elsewhere).
  if (It == Sessions.end() || It->second->ConnId != ConnId) {
    Error = Status(ErrorCode::ProtocolError,
                   "unknown session id " + std::to_string(Id));
    return nullptr;
  }
  return It->second;
}

Expected<std::vector<uint8_t>> RmdServer::handleBatch(const BatchRecords &R,
                                                      uint64_t ConnId,
                                                      uint32_t RequestId) {
  Status Error;
  std::shared_ptr<Session> S = findSession(R.sessionId(), ConnId, Error);
  if (!S)
    return Error;

  // Validate the whole batch before touching the module: the query API
  // treats out-of-range ops/cycles and self-conflicting placements as
  // caller contract violations (asserts), so the trust boundary is here.
  // Reset ignores Op, Cycle and Instance, so none of them is checked (or
  // used to index anything) for it.
  const size_t NumOps = S->Machine->reduced().numOperations();
  const bool Modulo = S->Config.Mode == QueryConfig::Modulo;
  auto Reject = [](size_t I, const std::string &What) {
    return Status(ErrorCode::ProtocolError,
                  "event " + std::to_string(I) + ": " + What);
  };
  for (size_t I = 0; I < R.size(); ++I) {
    const BatchEvent E = R[I];
    if (E.TheVerb == Verb::Reset)
      continue;
    if (E.Op >= NumOps)
      return Reject(I, "operation " + std::to_string(E.Op) + " out of range");
    if (!Modulo && E.Cycle < S->Config.MinCycle)
      return Reject(I, "cycle " + std::to_string(E.Cycle) +
                           " below the session's linear window");
    if (Modulo && !S->SelfConflict.empty() && S->SelfConflict[E.Op] &&
        (E.TheVerb == Verb::Assign || E.TheVerb == Verb::AssignFree ||
         E.TheVerb == Verb::CheckAssign))
      return Reject(I, "operation " + std::to_string(E.Op) +
                           " self-conflicts at this II and can never be "
                           "placed");
  }

  // Each answer goes straight into the reply payload.
  std::vector<uint8_t> Reply =
      encodeBatchReply(RequestId, static_cast<uint32_t>(R.size()));
  uint8_t *Results = Reply.data() + kBatchResultsOffset;
  std::vector<InstanceId> Evicted;
  {
    std::lock_guard<std::mutex> Lock(S->Mutex);
    ContentionQueryModule &Q = *S->Module;
    for (size_t I = 0; I < R.size(); ++I) {
      const BatchEvent E = R[I];
      switch (E.TheVerb) {
      case Verb::Check:
        Results[I] = Q.check(E.Op, E.Cycle) ? 1 : 0;
        break;
      case Verb::Assign:
        Q.assign(E.Op, E.Cycle, E.Instance);
        ++S->LiveInstances;
        Results[I] = kResultDone;
        break;
      case Verb::Free:
        Q.free(E.Op, E.Cycle, E.Instance);
        --S->LiveInstances;
        Results[I] = kResultDone;
        break;
      case Verb::CheckAssign:
        if (Q.check(E.Op, E.Cycle)) {
          Q.assign(E.Op, E.Cycle, E.Instance);
          ++S->LiveInstances;
          Results[I] = 1;
        } else {
          Results[I] = 0;
        }
        break;
      case Verb::AssignFree: {
        Evicted.clear();
        Q.assignAndFree(E.Op, E.Cycle, E.Instance, Evicted);
        S->LiveInstances += 1;
        S->LiveInstances -= Evicted.size();
        Results[I] = static_cast<uint8_t>(
            std::min<size_t>(Evicted.size(), 0xFE));
        break;
      }
      case Verb::Reset:
        Q.reset();
        S->LiveInstances = 0;
        Results[I] = kResultDone;
        break;
      }
    }
    if (!S->Tenant.empty()) {
      // Per-tenant accounting: one counter per tenant name, registered at
      // the session's first batch (the registry is idempotent per name, so
      // sessions of one tenant share it) and kept for the session's life.
      if (!S->TenantQueries)
        S->TenantQueries.emplace("server.tenant." + S->Tenant + ".queries");
      S->TenantQueries->add(R.size());
    }
  }
  StatBatchQueries.add(R.size());
  return Reply;
}

Expected<ScheduleLoopReply> RmdServer::handle(const ScheduleLoopRequest &R,
                                              uint64_t) {
  const LoadedMachine *M = Registry.byId(R.MachineId);
  if (!M)
    return Status(ErrorCode::ProtocolError,
                  "unknown machine id " + std::to_string(R.MachineId));
  DiagnosticEngine Diags;
  std::optional<DepGraph> G = parseLoopGraph(R.GraphText, M->model(), Diags);
  if (!G) {
    std::ostringstream SS;
    Diags.print(SS, "<loop-graph>");
    return Status(ErrorCode::ParseError, SS.str());
  }

  QueryEnvironment Env;
  Env.FlatMD = &M->reduced();
  Env.Groups = &M->groups();
  Env.MakeModule = [M](QueryConfig Config) { return M->makeModule(Config); };

  ModuloScheduleOptions Opts;
  Opts.BudgetRatio = std::max(1, static_cast<int>(R.BudgetRatio));
  Opts.MaxII = std::max(0, static_cast<int>(R.MaxII));
  if (R.DeadlineMs > 0)
    Opts.TheDeadline = Deadline::afterMillis(R.DeadlineMs);
  Opts.Cancel = &StopToken; // server stop abandons the run

  ModuloScheduleResult Result = moduloSchedule(*G, M->model().MD, Env, Opts);
  StatScheduleLoops.add();

  ScheduleLoopReply Reply;
  Reply.Success = Result.Success;
  Reply.Outcome = static_cast<uint8_t>(Result.Outcome);
  Reply.II = Result.II;
  Reply.Time.assign(Result.Time.begin(), Result.Time.end());
  Reply.Alternative.assign(Result.Alternative.begin(),
                           Result.Alternative.end());
  Reply.Message = Result.Success ? "" : Result.Error.render();
  return Reply;
}

Expected<StatsReply> RmdServer::handle(const StatsRequest &R,
                                       uint64_t ConnId) {
  StatsReply Reply;
  if (R.SessionId == 0) {
    Reply.ServerWide = 1;
    Reply.Server.ActiveSessions = sessionCount();
    Reply.Server.MachinesLoaded = Registry.size();
    Reply.Server.RequestsServed = RequestsServed.load();
    Reply.Server.OverloadRejections = Overloads.load();
    Reply.Server.ProtocolErrors = ProtocolErrors.load();
    return Reply;
  }
  Status Error;
  std::shared_ptr<Session> S = findSession(R.SessionId, ConnId, Error);
  if (!S)
    return Error;
  std::lock_guard<std::mutex> Lock(S->Mutex);
  Reply.Session.Counters = S->Module->counters();
  Reply.Session.LiveInstances = S->LiveInstances;
  return Reply;
}

Expected<CloseSessionReply> RmdServer::handle(const CloseSessionRequest &R,
                                              uint64_t ConnId) {
  Status Error;
  std::shared_ptr<Session> S = findSession(R.SessionId, ConnId, Error);
  if (!S)
    return Error;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Sessions.erase(R.SessionId);
  }
  StatSessionsClosed.add();
  return CloseSessionReply{};
}
