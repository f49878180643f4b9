//===- perfbench/src/ServerPath.cpp ---------------------------------------===//

#include "ServerPath.h"

#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "server/Workload.h"

#include <thread>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;
using namespace rmdbench;

namespace {

/// The server's batch semantics (RmdServer::handleBatch) on a local
/// module, for the execute-only baseline and the timed query replay.
void execute(ContentionQueryModule &Q, const BatchRequest &R,
             std::vector<uint8_t> &Results) {
  Results.resize(R.Events.size());
  std::vector<InstanceId> Evicted;
  for (size_t I = 0; I < R.Events.size(); ++I) {
    const BatchEvent &E = R.Events[I];
    switch (E.TheVerb) {
    case Verb::Check:
      Results[I] = Q.check(E.Op, E.Cycle) ? 1 : 0;
      break;
    case Verb::Assign:
      Q.assign(E.Op, E.Cycle, E.Instance);
      Results[I] = kResultDone;
      break;
    case Verb::Free:
      Q.free(E.Op, E.Cycle, E.Instance);
      Results[I] = kResultDone;
      break;
    case Verb::CheckAssign:
      Results[I] = 0;
      if (Q.check(E.Op, E.Cycle)) {
        Q.assign(E.Op, E.Cycle, E.Instance);
        Results[I] = 1;
      }
      break;
    case Verb::AssignFree:
      Evicted.clear();
      Q.assignAndFree(E.Op, E.Cycle, E.Instance, Evicted);
      Results[I] = static_cast<uint8_t>(std::min<size_t>(Evicted.size(), 0xFE));
      break;
    case Verb::Reset:
      Q.reset();
      Results[I] = kResultDone;
      break;
    }
  }
}

MachineModel builtinModel(const std::string &Name) {
  return Name == "cydra5" ? makeCydra5() : makeMipsR3000();
}

/// Client \p C's batch cycle for \p Seed, with its expected answers.
void generate(const MachineDescription &Reduced, uint64_t Seed, size_t C,
              std::vector<BatchRequest> &Batches,
              std::vector<std::vector<uint8_t>> &Expected) {
  WorkloadGenerator Gen(Reduced, QueryConfig::linear(0), Seed * 2 + C + 1);
  for (size_t B = 0; B < ServerPath::kCycleBatches; ++B) {
    BatchRequest Req;
    std::vector<uint8_t> Want;
    if (B == 0) {
      BatchEvent Reset;
      Reset.TheVerb = Verb::Reset;
      Req.Events.push_back(Reset);
      Want.push_back(kResultDone);
    }
    Gen.nextBatch(ServerPath::kBatchEvents - Req.Events.size(), Req.Events,
                  Want);
    Batches.push_back(std::move(Req));
    Expected.push_back(std::move(Want));
  }
}

void digestStream(Digest &D, const std::string &Machine,
                  const std::vector<BatchRequest> &Batches,
                  const std::vector<std::vector<uint8_t>> &Expected) {
  D.str(Machine);
  for (size_t B = 0; B < Batches.size(); ++B) {
    for (const BatchEvent &E : Batches[B].Events) {
      D.value(E.TheVerb);
      D.value(E.Op);
      D.value(E.Cycle);
      D.value(E.Instance);
    }
    D.bytes(Expected[B].data(), Expected[B].size());
  }
}

} // namespace

PinToCpu::PinToCpu(int Cpu) {
  if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  Pinned = sched_setaffinity(0, sizeof(One), &One) == 0;
}

PinToCpu::~PinToCpu() {
  if (Pinned)
    sched_setaffinity(0, sizeof(Saved), &Saved);
}

std::unique_ptr<ServerPath> ServerPath::setUp(uint64_t Seed,
                                              unsigned Instance, int Cpu,
                                              std::string &Why) {
  std::unique_ptr<ServerPath> P(new ServerPath());
  P->Cpu = Cpu;
  const char *Machines[] = {"cydra5", "mips-r3000"};
  for (size_t C = 0; C < 2; ++C) {
    ClientStream S;
    S.Machine = Machines[C];
    S.Local = std::make_unique<LoadedMachine>(S.Machine,
                                              builtinModel(S.Machine));
    generate(S.Local->reduced(), Seed, C, S.Batches, S.Expected);
    P->Streams.push_back(std::move(S));
  }

  // Every server thread is created under the pin and inherits it.
  PinToCpu Pin(Cpu);
  ServerOptions Options;
  Options.SocketPath = "@rmdbench-" + std::to_string(::getpid()) + "-" +
                       std::to_string(Instance);
  Options.Workers = 2;
  Options.QueueCapacity = 16;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  if (!Server) {
    Why = "server start: " + Server.status().render();
    return nullptr;
  }
  P->Server = Server.take();

  for (ClientStream &S : P->Streams) {
    Expected<std::unique_ptr<RmdClient>> Client =
        RmdClient::connect(P->Server->socketPath(), /*RecvTimeoutMs=*/60000);
    if (!Client) {
      Why = "client connect: " + Client.status().render();
      return nullptr;
    }
    S.Client = Client.take();
    uint64_t T0 = nowNs();
    Expected<LoadMachineReply> M = S.Client->loadMachine(S.Machine);
    P->LoadMachineMs += msSince(T0);
    if (!M) {
      Why = "load " + S.Machine + ": " + M.status().render();
      return nullptr;
    }
    OpenSessionRequest Open;
    Open.MachineId = M.value().MachineId;
    Open.Tenant = "bench-" + S.Machine;
    T0 = nowNs();
    Expected<OpenSessionReply> Session = S.Client->openSession(Open);
    P->OpenSessionUs += msSince(T0) * 1e3;
    if (!Session) {
      Why = "open session on " + S.Machine + ": " +
            Session.status().render();
      return nullptr;
    }
    for (BatchRequest &Req : S.Batches)
      Req.SessionId = Session.value().SessionId;
  }
  return P;
}

ServerPath::~ServerPath() {
  for (ClientStream &S : Streams)
    S.Client.reset();
  if (Server)
    Server->stop();
}

uint64_t ServerPath::inputDigest() const {
  Digest D;
  for (const ClientStream &S : Streams)
    digestStream(D, S.Machine, S.Batches, S.Expected);
  return D.get();
}

uint64_t ServerPath::inputDigestFor(uint64_t Seed) const {
  Digest D;
  for (size_t C = 0; C < Streams.size(); ++C) {
    std::vector<BatchRequest> Batches;
    std::vector<std::vector<uint8_t>> Expected;
    generate(Streams[C].Local->reduced(), Seed, C, Batches, Expected);
    digestStream(D, Streams[C].Machine, Batches, Expected);
  }
  return D.get();
}

ServerRound ServerPath::runRound(size_t BatchesPerClient) {
  struct ClientResult {
    uint64_t StartNs = 0, EndNs = 0, Events = 0, Attempted = 0, Failed = 0;
    std::vector<double> LatencyUs;
    std::string Error;
  };
  std::vector<ClientResult> Results(Streams.size());
  PinToCpu Pin(Cpu);
  auto Drive = [BatchesPerClient](ClientStream &S, ClientResult &Out) {
    Out.LatencyUs.reserve(BatchesPerClient);
    Out.StartNs = nowNs();
    for (size_t I = 0; I < BatchesPerClient; ++I) {
      const BatchRequest &Req = S.Batches[S.Next];
      uint64_t T0 = nowNs();
      Expected<BatchReply> Reply = S.Client->runBatch(Req);
      uint64_t T1 = nowNs();
      ++Out.Attempted;
      if (!Reply) {
        ++Out.Failed;
        Out.Error = S.Machine + " batch refused: " + Reply.status().render();
        break;
      }
      if (Reply.value().Results != S.Expected[S.Next]) {
        Out.Error = S.Machine + " batch " + std::to_string(S.Next) +
                    ": server answer differs from the expected one";
        break;
      }
      Out.LatencyUs.push_back((T1 - T0) / 1e3);
      Out.Events += Req.Events.size();
      S.Next = (S.Next + 1) % S.Batches.size();
    }
    Out.EndNs = nowNs();
  };
  std::vector<std::thread> Threads;
  for (size_t C = 1; C < Streams.size(); ++C)
    Threads.emplace_back(Drive, std::ref(Streams[C]), std::ref(Results[C]));
  Drive(Streams[0], Results[0]);
  for (std::thread &T : Threads)
    T.join();

  ServerRound R;
  uint64_t Start = Results[0].StartNs, End = Results[0].EndNs;
  for (ClientResult &C : Results) {
    Start = std::min(Start, C.StartNs);
    End = std::max(End, C.EndNs);
    R.Events += C.Events;
    R.Attempted += C.Attempted;
    R.Failed += C.Failed;
    R.LatencyUs.insert(R.LatencyUs.end(), C.LatencyUs.begin(),
                       C.LatencyUs.end());
    if (R.Error.empty())
      R.Error = C.Error;
  }
  R.WallMs = (End - Start) / 1e6;
  return R;
}

double ServerPath::pingUs(int N, SpanLog *Log) {
  PinToCpu Pin(Cpu);
  std::vector<double> Us;
  for (int I = 0; I < N; ++I) {
    uint64_t T0 = nowNs();
    ScopedSpan Span(Log, "server.ping");
    Status S = Streams[0].Client->ping();
    if (S)
      Us.push_back((nowNs() - T0) / 1e3);
  }
  return median(Us);
}

bool ServerPath::codecUs(double &Us, std::string &Why, SpanLog *Log) {
  std::vector<double> PerBatch;
  for (const ClientStream &S : Streams)
    for (size_t B = 0; B < S.Batches.size(); ++B) {
      uint64_t T0 = nowNs();
      ScopedSpan Span(Log, "server.codec");
      std::vector<uint8_t> Req = encodeRequest(7, S.Batches[B]);
      WireReader In(Req);
      Expected<FrameHeader> H = decodeHeader(In, false);
      Expected<BatchRequest> Decoded = decodeBatchRequest(In);
      BatchReply Reply;
      Reply.Results = S.Expected[B];
      std::vector<uint8_t> Rep = encodeReply(7, Reply);
      WireReader RIn(Rep);
      Expected<FrameHeader> RH = decodeHeader(RIn, true);
      Status ServerStatus;
      Status Prefix = decodeReplyStatus(RIn, ServerStatus);
      Expected<BatchReply> RDecoded = decodeBatchReply(RIn);
      PerBatch.push_back((nowNs() - T0) / 1e3);
      if (!H || !Decoded || !RH || !Prefix || !ServerStatus || !RDecoded ||
          Decoded.value().Events.size() != S.Batches[B].Events.size() ||
          RDecoded.value().Results != S.Expected[B]) {
        Why = "codec: " + S.Machine + " batch " + std::to_string(B) +
              " does not round-trip";
        return false;
      }
    }
  Us = median(PerBatch);
  return true;
}

bool ServerPath::executeUs(double &Us, std::string &Why, SpanLog *Log) {
  std::vector<double> PerBatch;
  std::vector<uint8_t> Results;
  for (const ClientStream &S : Streams) {
    std::unique_ptr<ContentionQueryModule> Q =
        S.Local->makeModule(QueryConfig::linear(0));
    for (size_t B = 0; B < S.Batches.size(); ++B) {
      uint64_t T0 = nowNs();
      {
        ScopedSpan Span(Log, "server.execute");
        execute(*Q, S.Batches[B], Results);
      }
      PerBatch.push_back((nowNs() - T0) / 1e3);
      if (Results != S.Expected[B]) {
        Why = "execute: " + S.Machine + " batch " + std::to_string(B) +
              " answers differ locally";
        return false;
      }
    }
  }
  Us = median(PerBatch);
  return true;
}

void ServerPath::replayTimed(Rep R, QueryTally &Tally) {
  const ClientStream &S = Streams[0];
  const MachineDescription &MD = S.Local->reduced();
  std::unique_ptr<ContentionQueryModule> Inner;
  if (R == Rep::Bitvector)
    Inner = std::make_unique<BitvectorQueryModule>(MD, QueryConfig::linear(0));
  else
    Inner = std::make_unique<DiscreteQueryModule>(MD, QueryConfig::linear(0));
  TimedQueryModule Q(std::move(Inner), Tally);
  std::vector<uint8_t> Results;
  for (const BatchRequest &B : S.Batches)
    execute(Q, B, Results);
}

Expected<StatsReply> ServerPath::serverStats() {
  return Streams[0].Client->serverStats();
}
