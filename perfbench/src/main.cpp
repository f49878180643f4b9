//===- perfbench/src/main.cpp - The end-to-end benchmark ------------------===//
//
// rmdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//          [--root <dir>] [--out-dir <dir>] [--git-sha <sha>]
//
// Every run sets up all three paths (reduce, schedule, serve), sets up
// several times to time set-up, and then spends --seconds measuring them
// in interleaved samples. The named workload gets most of the measured
// time; the other two paths keep a smaller share so every end-to-end
// metric is defined on every workload. All inputs derive from --seed.
// Outputs are checked outside the clock; a wrong answer fails the run.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics from traced samples, interleaved with untraced ones so the
// tracing overhead is measured too, and writes the spans under --out-dir.
// The last line of stdout is always the result object; the full report
// (host fingerprint, sample counts, tail percentiles, digests) precedes it
// and is also written under --out-dir. See ../METRICS.md.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "ReducePath.h"
#include "SchedulePath.h"
#include "ServerPath.h"

#include "machines/MdlModel.h"
#include "query/SimdOps.h"
#include "reduce/Reduction.h"
#include "support/Diagnostics.h"
#include "support/Stats.h"
#include "workload/Corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <sys/resource.h>
#include <thread>

using namespace rmd;
using namespace rmdbench;
namespace fs = std::filesystem;

namespace {

enum class Path { Reduce, Schedule, Serve, Count };
const char *WorkloadNames[] = {"reduce-corpus", "schedule-corpus",
                               "server-batch"};

/// Samples a path takes per 30 measured seconds on the workloads it does
/// not belong to (reduce, schedule, serve); the workload's own path gets
/// the rest of --seconds.
/// Fixed counts keep each tail at the same rank from run to run: ten
/// reduce passes (the tail is their maximum), thirty schedule samples and
/// three hundred serve rounds (the 11th largest lies above the median).
constexpr uint32_t kSideSamples[3] = {10, 30, 300};
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
constexpr size_t kBatchesPerRound = 16;

struct Options {
  Path Workload = Path::Count;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string Root = ".";
  std::string OutDir;
  std::string GitSha = "unknown";
};

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "rmdbench: " << Why
            << "\nusage: rmdbench --workload <reduce-corpus|schedule-corpus|"
               "server-batch> --seed <n> --seconds <s> --trace <0|1> "
               "[--root <dir>] [--out-dir <dir>] [--git-sha <sha>]\n";
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Arg);
    std::string Value = Argv[++I];
    try {
      if (Arg == "--workload") {
        for (int W = 0; W < 3; ++W)
          if (Value == WorkloadNames[W])
            O.Workload = static_cast<Path>(W);
        if (O.Workload == Path::Count)
          usage("unknown workload '" + Value + "'");
      } else if (Arg == "--seed") {
        O.Seed = std::stoull(Value);
        HaveSeed = true;
      } else if (Arg == "--seconds") {
        O.Seconds = std::stod(Value);
        HaveSeconds = O.Seconds > 0;
      } else if (Arg == "--trace") {
        if (Value != "0" && Value != "1")
          usage("--trace takes 0 or 1");
        O.Trace = Value == "1";
        HaveTrace = true;
      } else if (Arg == "--root") {
        O.Root = Value;
      } else if (Arg == "--out-dir") {
        O.OutDir = Value;
      } else if (Arg == "--git-sha") {
        O.GitSha = Value;
      } else {
        usage("unknown option " + Arg);
      }
    } catch (const std::exception &) {
      usage("bad value for " + Arg + ": " + Value);
    }
  }
  if (O.Workload == Path::Count || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  return O;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string firstLineWith(const char *File, const char *Key) {
  std::ifstream In(File);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // KiB on Linux
}

uint64_t corpusDigest(const std::vector<DepGraph> &Corpus) {
  Digest D;
  for (const DepGraph &G : Corpus) {
    D.str(G.name());
    D.value(G.numNodes());
    for (NodeId N = 0; N < G.numNodes(); ++N)
      D.value(G.opOf(N));
    for (const DepEdge &E : G.edges()) {
      D.value(E.From);
      D.value(E.To);
      D.value(E.Delay);
      D.value(E.Distance);
    }
  }
  return D.get();
}

/// Everything the measured samples need; built kSetups times per run.
struct Setup {
  MachineModel Cydra;
  ExpandedMachine EM;
  MachineDescription Reduced;
  std::vector<DepGraph> Corpus;
  std::unique_ptr<ServerPath> Server;
  double CorpusBuildMs = 0;
};

/// The corpus seed: the run's seed, spread so neighbouring seeds share no
/// loops.
uint64_t corpusSeed(uint64_t Seed) { return Seed * 0x9e3779b97f4a7c15ull + 1; }

std::unique_ptr<Setup> setUp(const std::vector<MachineInput> &Machines,
                             uint64_t Seed, unsigned Instance, int ServeCpu,
                             std::string &Why) {
  auto S = std::make_unique<Setup>();
  const MachineInput *Cydra = nullptr;
  for (const MachineInput &M : Machines)
    if (M.Name == "cydra5")
      Cydra = &M;
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model =
      Cydra ? parseMdlModel(Cydra->Text, Diags) : std::nullopt;
  if (!Model) {
    Why = "set-up: cannot read machines/cydra5.mdl";
    return nullptr;
  }
  S->Cydra = std::move(*Model);
  S->EM = expandAlternatives(S->Cydra.MD);
  Expected<ReductionResult> R = reduceMachineChecked(S->EM.Flat);
  if (!R) {
    Why = "set-up: cydra5 reduction failed: " + R.status().render();
    return nullptr;
  }
  S->Reduced = std::move(R.value().Reduced);
  CorpusParams Params;
  Params.Seed = corpusSeed(Seed);
  uint64_t T0 = nowNs();
  S->Corpus = buildCorpus(S->Cydra, Params);
  S->CorpusBuildMs = msSince(T0);
  S->Server = ServerPath::setUp(Seed, Instance, ServeCpu, Why);
  if (!S->Server)
    return nullptr;
  return S;
}

uint64_t statCounter(const StatsSnapshot &S, const char *Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : It->second;
}

/// Per-sample series of one run, and the checks' verdict.
struct Series {
  std::vector<double> Reduce, ReduceMt;
  std::vector<double> Sched[2]; // by Rep
  std::vector<double> RoundMqps;
  std::vector<std::vector<double>> RoundLatencyUs;
  std::vector<std::vector<double>> MachineMs;
  uint64_t Attempted = 0, Failed = 0;
  ReduceCounts ReduceCountsSeen;
  ScheduleCounts SchedCounts[2];
  double IISum = 0;
  size_t Loops = 0;

  // Traced runs only.
  std::vector<double> TracedReduce;
  std::map<std::string, std::vector<double>> LayerMs; // per traced pass
  std::vector<double> TracedSched[2], BuildMs[2], QueryMs[2], SelfMs[2],
      Unaccounted[2];
  std::vector<double> QueryNs[2][QueryTally::NumFns];
  std::vector<double> AssignNs[2];
  uint64_t CheckAltCalls = 0;
  uint64_t ReplayAssignCalls = 0;
  double Builds = 0;
  std::vector<double> OriginalMs;
  std::vector<double> PingUs, CodecUs, ExecuteUs;

  bool Correct = true;
  std::string Why;
  void fail(const std::string &Reason) {
    if (Correct)
      Why = Reason;
    Correct = false;
  }
};

class Runner {
public:
  Runner(const Options &O, ReducePath &Reduce, SchedulePath &Sched,
         ServerPath &Server, const TimerCost &Cost)
      : O(O), Reduce(Reduce), Sched(Sched), Server(Server), Cost(Cost) {}

  Series S;
  SpanLog Log;

  void reduceSample(uint32_t Id) {
    Log.setSample(Id);
    unsigned Mt = std::max(1u, std::thread::hardware_concurrency());
    // Alternate which thread count goes first.
    unsigned Order[2] = {1, Mt};
    if (Id % 2)
      std::swap(Order[0], Order[1]);
    for (unsigned Threads : Order) {
      ReducePass P = Reduce.run(Threads, nullptr);
      record(P, false);
      if (O.Trace) {
        size_t First = Log.spans().size();
        ReducePass T = Reduce.run(Threads, &Log);
        record(T, true);
        for (const auto &[Name, Ms] : Log.totalsSince(First)) {
          bool IsMt = Name.size() > 3 &&
                      Name.compare(Name.size() - 3, 3, "_mt") == 0;
          if (IsMt == (Threads != 1) &&
              Name.rfind("reduce.machine.", 0) != 0)
            S.LayerMs[Name].push_back(Ms);
        }
      }
    }
  }

  void scheduleSample(uint32_t Id) {
    Log.setSample(Id);
    Rep Order[2] = {Rep::Bitvector, Rep::Discrete};
    if (Id % 2)
      std::swap(Order[0], Order[1]);
    for (Rep R : Order) {
      SchedulePass P = Sched.run(R, true, nullptr);
      record(P, false);
      if (O.Trace)
        record(Sched.run(R, true, &Log), true);
    }
  }

  void serveSample(uint32_t Id) {
    ServerRound R = Server.runRound(kBatchesPerRound);
    S.Attempted += R.Attempted;
    S.Failed += R.Failed;
    if (!R.Error.empty()) {
      S.fail("serve: " + R.Error);
      return;
    }
    S.RoundMqps.push_back(R.Events / (R.WallMs * 1e3));
    S.RoundLatencyUs.push_back(std::move(R.LatencyUs));
    if (O.Trace && Id % 8 == 0) {
      Log.setSample(Id);
      double Us = 0;
      std::string Why;
      S.PingUs.push_back(Server.pingUs(64, &Log));
      if (!Server.codecUs(Us, Why, &Log))
        S.fail(Why);
      S.CodecUs.push_back(Us);
      if (!Server.executeUs(Us, Why, &Log))
        S.fail(Why);
      S.ExecuteUs.push_back(Us);
    }
  }

private:
  void record(const ReducePass &P, bool Traced) {
    S.Attempted += P.Attempted;
    S.Failed += P.Failed;
    std::string Why;
    if (!Reduce.check(P, Why))
      S.fail(Why);
    S.ReduceCountsSeen = P.Counts;
    bool Mt = P.Threads != 1;
    if (Traced) {
      if (!Mt) {
        S.TracedReduce.push_back(P.Ms);
        S.MachineMs.resize(P.MachineMs.size());
        for (size_t I = 0; I < P.MachineMs.size(); ++I)
          S.MachineMs[I].push_back(P.MachineMs[I]);
      }
      return;
    }
    (Mt ? S.ReduceMt : S.Reduce).push_back(P.Ms);
  }

  void record(const SchedulePass &P, bool Traced) {
    int R = static_cast<int>(P.Representation);
    S.Attempted += P.Loops.size();
    S.Failed += P.Failed;
    std::string Why;
    if (!Sched.check(P, Why))
      S.fail(Why);
    S.SchedCounts[R] = P.Counts;
    if (!Traced) {
      S.Sched[R].push_back(P.Ms);
      S.IISum = static_cast<double>(P.Counts.IISum);
      S.Loops = P.Loops.size();
      return;
    }
    double QueryRawMs = P.Tally.topLevelNs() / 1e6;
    double QueryMs = P.Tally.calibratedTopLevelNs(Cost) / 1e6;
    double SelfMs = Log.selfMs(P.PassSpan) - QueryRawMs;
    S.TracedSched[R].push_back(P.Ms);
    S.BuildMs[R].push_back(P.BuildMs);
    S.QueryMs[R].push_back(QueryMs);
    S.SelfMs[R].push_back(SelfMs);
    S.Unaccounted[R].push_back(P.Ms - (P.BuildMs + QueryMs + SelfMs));
    for (int F = 0; F < QueryTally::NumFns; ++F)
      if (P.Tally.Calls[F])
        S.QueryNs[R][F].push_back(P.Tally.calibratedNsPerCall(F, Cost));
    S.CheckAltCalls = P.Tally.Calls[QueryTally::CheckAlt];
    S.Builds = static_cast<double>(P.Counts.ModuleBuilds);
  }

  const Options &O;
  ReducePath &Reduce;
  SchedulePath &Sched;
  ServerPath &Server;
  TimerCost Cost;
};

double fastest(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// One sample series, in measurement order, with its median.
std::string seriesJson(const std::vector<double> &V) {
  std::ostringstream OS;
  OS << "{\"n\": " << V.size() << ", \"median\": " << jsonNumber(median(V))
     << ", \"samples\": [";
  for (size_t I = 0; I < V.size(); ++I)
    OS << (I ? ", " : "") << jsonNumber(V[I]);
  OS << "]}";
  return OS.str();
}

/// Records the tail of \p Values in the report; a traced run also prints
/// it as a per-layer metric.
void addTail(std::vector<Metric> *M, std::ostringstream &Tails,
             const char *Name, const std::vector<double> &Values) {
  Tail T = tail(Values);
  if (M)
    M->push_back({Name, T.Value, "ms"});
  Tails << (Tails.tellp() > 0 ? ", " : "") << jsonString(Name)
        << ": {\"value\": " << jsonNumber(T.Value)
        << ", \"percentile\": " << jsonNumber(T.Percentile)
        << ", \"samples\": " << T.Samples << "}";
}

/// The quiet rounds: the fifth of serve rounds with the highest
/// throughput. Their batch latencies and throughputs are what the
/// server-batch metrics report.
struct QuietRounds {
  std::vector<double> Mqps, LatencyUs;
};
QuietRounds quietRounds(const Series &S) {
  std::vector<size_t> Order(S.RoundMqps.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return S.RoundMqps[A] > S.RoundMqps[B];
  });
  Order.resize(std::min(Order.size(), std::max<size_t>(1, Order.size() / 5)));
  QuietRounds Q;
  for (size_t I : Order) {
    Q.Mqps.push_back(S.RoundMqps[I]);
    Q.LatencyUs.insert(Q.LatencyUs.end(), S.RoundLatencyUs[I].begin(),
                       S.RoundLatencyUs[I].end());
  }
  return Q;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::string LoadAvg;
  {
    std::ifstream In("/proc/loadavg");
    std::getline(In, LoadAvg);
  }

  // Inputs: the MDL files, in name order.
  std::vector<MachineInput> Machines;
  fs::path MachineDir = fs::path(O.Root) / "machines";
  std::error_code EC;
  for (const auto &Entry : fs::directory_iterator(MachineDir, EC))
    if (Entry.path().extension() == ".mdl")
      Machines.push_back({Entry.path().stem().string(),
                          readFile(Entry.path())});
  if (EC || Machines.empty()) {
    std::cerr << "rmdbench: no machine descriptions under " << MachineDir
              << "\n";
    return 1;
  }
  std::sort(Machines.begin(), Machines.end(),
            [](const MachineInput &A, const MachineInput &B) {
              return A.Name < B.Name;
            });

  // Set up several times; keep the last one. Inputs must come out
  // byte-identical each time.
  int ServeCpu = 0;
  {
    cpu_set_t Allowed;
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
      while (ServeCpu < CPU_SETSIZE - 1 && !CPU_ISSET(ServeCpu, &Allowed))
        ++ServeCpu;
  }
  std::vector<double> SetupS, CorpusMs, LoadMs, OpenUs;
  std::unique_ptr<Setup> Live;
  uint64_t CorpusDigest = 0, TrafficDigest = 0;
  StatsSnapshot BeforeServer;
  for (int I = 0; I < kSetups; ++I) {
    Live.reset();
    std::string Why;
    BeforeServer = StatsRegistry::instance().snapshot();
    uint64_t T0 = nowNs();
    Live = setUp(Machines, O.Seed, static_cast<unsigned>(I), ServeCpu, Why);
    SetupS.push_back(msSince(T0) / 1e3);
    if (!Live) {
      std::cerr << "rmdbench: " << Why << "\n";
      return 1;
    }
    CorpusMs.push_back(Live->CorpusBuildMs);
    LoadMs.push_back(Live->Server->loadMachineMs());
    OpenUs.push_back(Live->Server->openSessionUs());
    uint64_t CD = corpusDigest(Live->Corpus);
    uint64_t TD = Live->Server->inputDigest();
    if (I > 0 && (CD != CorpusDigest || TD != TrafficDigest)) {
      std::cerr << "rmdbench: the same seed generated different inputs\n";
      return 1;
    }
    CorpusDigest = CD;
    TrafficDigest = TD;
  }
  StatsSnapshot AfterServer = StatsRegistry::instance().snapshot();
  Setup &St = *Live;

  // Held-out seed: generated twice, it must come out identical too.
  uint64_t HeldOut = O.Seed ^ 0x5eed5eed5eedull;
  bool HeldOutOk = true;
  uint64_t HeldOutCorpus = 0, HeldOutTraffic = 0;
  {
    CorpusParams Params;
    Params.Seed = corpusSeed(HeldOut);
    uint64_t A = corpusDigest(buildCorpus(St.Cydra, Params));
    uint64_t B = corpusDigest(buildCorpus(St.Cydra, Params));
    uint64_t C = St.Server->inputDigestFor(HeldOut);
    uint64_t D = St.Server->inputDigestFor(HeldOut);
    HeldOutOk = A == B && C == D && A != CorpusDigest;
    HeldOutCorpus = A;
    HeldOutTraffic = C;
  }

  ReducePath Reduce(Machines);
  SchedulePath Sched(St.Cydra, St.Corpus, St.EM.Flat, St.EM.Groups,
                     St.Reduced);
  // Theorem 1 reference: discrete over the original description.
  std::vector<double> OriginalMs;
  {
    SchedulePass Ref = Sched.run(Rep::Discrete, false, nullptr);
    OriginalMs.push_back(Ref.Ms);
    Sched.setReference(std::move(Ref));
  }
  TimerCost Cost = O.Trace ? calibrateQueryTimer() : TimerCost{};

  Runner Run(O, Reduce, Sched, *St.Server, Cost);
  Series &S = Run.S;
  if (!HeldOutOk)
    S.fail("determinism: the held-out seed generated different inputs");

  // Interleaved samples: a side path runs whenever it falls behind an even
  // spread of its samples over --seconds; otherwise the workload's own path
  // runs, until the time is up.
  const int Own = static_cast<int>(O.Workload);
  const double BudgetMs = O.Seconds * 1e3;
  uint32_t Count[3] = {0, 0, 0}, Side[3];
  for (int P = 0; P < 3; ++P)
    Side[P] = std::max<uint32_t>(
        2, static_cast<uint32_t>(kSideSamples[P] * O.Seconds / 30 + 0.5));
  uint32_t Sample = 0;
  uint64_t Start = nowNs();
  while (S.Correct) {
    double Elapsed = msSince(Start);
    double Due = std::min(1.0, Elapsed / BudgetMs);
    int Next = -1;
    for (int P = 0; P < 3 && Next < 0; ++P)
      if (P != Own && Count[P] < Side[P] &&
          (Count[P] < Side[P] * Due || Elapsed >= BudgetMs))
        Next = P;
    if (Next < 0 && (Elapsed < BudgetMs || Count[Own] < 2))
      Next = Own;
    if (Next < 0)
      break;
    switch (static_cast<Path>(Next)) {
    case Path::Reduce:
      Run.reduceSample(Sample);
      break;
    case Path::Schedule:
      Run.scheduleSample(Sample);
      break;
    default:
      Run.serveSample(Sample);
      break;
    }
    ++Count[Next];
    ++Sample;
  }

  if (O.Trace && S.Correct) {
    for (int I = 0; I < 3; ++I)
      OriginalMs.push_back(Sched.run(Rep::Discrete, false, nullptr).Ms);
    for (int I = 0; I < 5; ++I)
      for (Rep R : {Rep::Bitvector, Rep::Discrete}) {
        QueryTally T;
        St.Server->replayTimed(R, T);
        S.AssignNs[static_cast<int>(R)].push_back(
            T.calibratedNsPerCall(QueryTally::Assign, Cost));
        S.ReplayAssignCalls = T.Calls[QueryTally::Assign];
      }
  }

  // Metrics.
  std::vector<Metric> M;
  std::ostringstream Tails;
  uint64_t Attempted = std::max<uint64_t>(S.Attempted, 1);
  Expected<wire::StatsReply> ServerStats = St.Server->serverStats();
  QuietRounds Quiet = quietRounds(S);
  double ServerP50 = percentile(Quiet.LatencyUs, 50);
  std::vector<Metric> *TailMetrics = O.Trace ? &M : nullptr;
  addTail(TailMetrics, Tails, "reduce_tail_ms", S.Reduce);
  addTail(TailMetrics, Tails, "schedule_bitvector_tail_ms", S.Sched[0]);
  addTail(TailMetrics, Tails, "schedule_discrete_tail_ms", S.Sched[1]);
  if (!O.Trace) {
    M.push_back({"setup_s", median(SetupS), "s"});
    M.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    M.push_back({"ok_ratio",
                 static_cast<double>(Attempted - S.Failed) / Attempted,
                 "ratio"});
    // Pass times are the fastest pass of the run, and the server figures
    // come from its quietest rounds. On a shared 4-vCPU virtual machine the
    // host slowed passes by up to ~35% for minutes at a time: over ten
    // runs, run medians spread by up to 31%, fastest passes by 7-20%. The
    // tails, which follow the host's load, are reported per layer.
    M.push_back({"reduce_ms", fastest(S.Reduce), "ms"});
    M.push_back({"reduced_res_uses",
                 static_cast<double>(S.ReduceCountsSeen.ResUses), "count"});
    M.push_back({"schedule_bitvector_ms", fastest(S.Sched[0]), "ms"});
    M.push_back({"schedule_discrete_ms", fastest(S.Sched[1]), "ms"});
    M.push_back({"schedule_mean_ii",
                 S.Loops ? S.IISum / static_cast<double>(S.Loops) : 0,
                 "cycles"});
    M.push_back({"server_p50_us", ServerP50, "us"});
    M.push_back({"server_mqps", median(Quiet.Mqps), "Mq/s"});
  } else {
    auto Layer = [&](const std::string &Span) {
      auto It = S.LayerMs.find(Span);
      return It == S.LayerMs.end() ? 0.0 : median(It->second);
    };
    for (const char *Name :
         {"mdl.parse", "mdl.write", "mdesc.expand", "flm.compute",
          "reduce.fold", "reduce.prune", "reduce.select", "reduce.build",
          "reduce.verify"})
      M.push_back({std::string(Name) + "_ms", Layer(Name), "ms"});
    // On a shared virtual machine the nproc-thread pass swings 2-3x with
    // how the host schedules the other virtual CPUs: reported, ungated.
    M.push_back({"reduce_mt_ms", median(S.ReduceMt), "ms"});
    for (const char *Name : {"reduce.fold_mt", "reduce.prune_mt",
                             "flm.compute_mt"})
      M.push_back({std::string(Name) + "_ms", Layer(Name), "ms"});
    for (size_t I = 0; I < Machines.size() && I < S.MachineMs.size(); ++I)
      M.push_back({"reduce.machine." + Machines[I].Name + "_ms",
                   median(S.MachineMs[I]), "ms"});
    const ReduceCounts &RC = S.ReduceCountsSeen;
    M.push_back({"reduce.generating_set_size",
                 static_cast<double>(RC.GeneratingSetSize), "count"});
    M.push_back({"reduce.pruned_set_size",
                 static_cast<double>(RC.PrunedSetSize), "count"});
    M.push_back({"reduce.prune_keep_ratio",
                 RC.GeneratingSetSize
                     ? static_cast<double>(RC.PrunedSetSize) /
                           RC.GeneratingSetSize
                     : 0,
                 "ratio"});
    M.push_back({"reduce.pairs", static_cast<double>(RC.Pairs), "count"});
    M.push_back({"reduce.rule1", static_cast<double>(RC.Rule1), "count"});
    M.push_back({"reduce.rule2", static_cast<double>(RC.Rule2), "count"});
    M.push_back({"reduce.rule2_discard",
                 static_cast<double>(RC.Rule2Discard), "count"});
    M.push_back({"reduce.rule3", static_cast<double>(RC.Rule3), "count"});
    M.push_back({"reduce.rule4", static_cast<double>(RC.Rule4), "count"});
    M.push_back({"flm.canonical_latencies",
                 static_cast<double>(RC.CanonicalLatencies), "count"});
    M.push_back({"trace.overhead_ms.reduce",
                 median(S.TracedReduce) - median(S.Reduce), "ms"});

    M.push_back({"query.builds", S.Builds, "count"});
    for (int R = 0; R < 2; ++R) {
      std::string Rn = repName(static_cast<Rep>(R));
      const WorkCounters &W = S.SchedCounts[R].Work;
      M.push_back({"query.build_ms." + Rn, median(S.BuildMs[R]), "ms"});
      for (int F = 0; F < QueryTally::NumFns; ++F) {
        // The IMS issues no plain assign (paper, Section 8): assign comes
        // from the linear replay of the server-batch cydra5 traffic.
        M.push_back({std::string("query.") + QueryTally::name(F) + "_ns." + Rn,
                     median(F == QueryTally::Assign ? S.AssignNs[R]
                                                    : S.QueryNs[R][F]),
                     "ns"});
      }
      uint64_t Calls[QueryTally::NumFns] = {W.CheckCalls, S.CheckAltCalls,
                                            S.ReplayAssignCalls, W.FreeCalls,
                                            W.AssignFreeCalls};
      for (int F = 0; F < QueryTally::NumFns; ++F)
        M.push_back({std::string("query.") + QueryTally::name(F) +
                         "_calls." + Rn,
                     static_cast<double>(Calls[F]), "count"});
      M.push_back({"query.units." + Rn,
                   static_cast<double>(W.totalUnits()), "count"});
      // Calibrated query time over the untraced pass it estimates.
      M.push_back({"query.share." + Rn,
                   median(S.QueryMs[R]) / median(S.Sched[R]), "ratio"});
      M.push_back({"sched.self_ms." + Rn, median(S.SelfMs[R]), "ms"});
      M.push_back({"sched.traced_pass_ms." + Rn, median(S.TracedSched[R]),
                   "ms"});
      M.push_back({"trace.overhead_ms." + Rn,
                   median(S.TracedSched[R]) - median(S.Sched[R]), "ms"});
      M.push_back({"trace.unaccounted_ms." + Rn, median(S.Unaccounted[R]),
                   "ms"});
    }
    const ScheduleCounts &SC = S.SchedCounts[0];
    M.push_back({"sched.attempts", static_cast<double>(SC.Attempts),
                 "count"});
    M.push_back({"sched.decisions", static_cast<double>(SC.Decisions),
                 "count"});
    M.push_back({"sched.evictions", static_cast<double>(SC.Evictions),
                 "count"});
    M.push_back({"sched.checks_per_decision",
                 SC.Decisions ? static_cast<double>(SC.Checks) / SC.Decisions
                              : 0,
                 "ratio"});
    M.push_back({"sched.original_discrete_ms", fastest(OriginalMs), "ms"});
    M.push_back({"trace.empty_span_ns", Cost.InsideNs, "ns"});

    M.push_back({"workload.corpus_build_ms", median(CorpusMs), "ms"});
    M.push_back({"server.load_machine_ms", median(LoadMs), "ms"});
    M.push_back({"server.open_session_us", median(OpenUs), "us"});
    double Ping = median(S.PingUs), Codec = median(S.CodecUs),
           Exec = median(S.ExecuteUs);
    // The server's tail follows the host's load like the pass tails do, so
    // it is reported here, over every batch of the run.
    std::vector<double> AllLatencyUs;
    for (const std::vector<double> &Round : S.RoundLatencyUs)
      AllLatencyUs.insert(AllLatencyUs.end(), Round.begin(), Round.end());
    M.push_back({"server_p99_us", percentile(AllLatencyUs, 99), "us"});
    M.push_back({"server.ping_us", Ping, "us"});
    M.push_back({"server.codec_us", Codec, "us"});
    M.push_back({"server.execute_us", Exec, "us"});
    M.push_back({"server.unexplained_us", ServerP50 - Ping - Codec - Exec,
                 "us"});
    M.push_back({"server.requests",
                 ServerStats ? static_cast<double>(
                                   ServerStats.value().Server.RequestsServed)
                             : 0,
                 "count"});
    M.push_back({"server.overloaded",
                 ServerStats
                     ? static_cast<double>(
                           ServerStats.value().Server.OverloadRejections)
                     : 0,
                 "count"});
    auto ServerDelta = [&](const char *Name) {
      return static_cast<double>(statCounter(AfterServer, Name) -
                                 statCounter(BeforeServer, Name));
    };
    M.push_back({"server.arena_hits", ServerDelta("server.arena.hits"),
                 "count"});
    M.push_back({"server.arena_builds", ServerDelta("server.arena.builds"),
                 "count"});
  }
  if (!ServerStats)
    S.fail("serve: stats request failed: " + ServerStats.status().render());
  Live.reset(); // stops the server and joins its threads

  // The full report, then the result line.
  std::ostringstream Doc;
  Doc << "{\n  \"schema\": \"rmdbench-report-v1\",\n"
      << "  \"workload\": " << jsonString(WorkloadNames[int(O.Workload)])
      << ",\n  \"seed\": " << O.Seed << ",\n  \"seconds\": "
      << jsonNumber(O.Seconds) << ",\n  \"trace\": " << O.Trace << ",\n"
      << "  \"host\": {\"cpu\": "
      << jsonString(firstLineWith("/proc/cpuinfo", "model name"))
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << jsonString(RMDBENCH_COMPILER)
      << ", \"build_type\": "
      << jsonString(std::string(RMDBENCH_BUILD_TYPE) + " (assertions on)")
      << ", \"simd_tier\": "
      << jsonString(simd::tierName(simd::activeTier()))
      << ", \"git_sha\": " << jsonString(O.GitSha)
      << ", \"loadavg_at_start\": " << jsonString(LoadAvg) << "},\n"
      << "  \"samples\": {\"reduce\": " << Count[0]
      << ", \"schedule\": " << Count[1] << ", \"serve_rounds\": " << Count[2]
      << ", \"quiet_server_batches\": " << Quiet.LatencyUs.size()
      << ", \"setups\": " << SetupS.size() << "},\n"
      << "  \"tails\": {" << Tails.str() << "},\n"
      << "  \"digests\": {\"corpus\": \"" << hex64(CorpusDigest)
      << "\", \"traffic\": \"" << hex64(TrafficDigest)
      << "\", \"held_out_seed\": " << HeldOut << ", \"held_out_corpus\": \""
      << hex64(HeldOutCorpus) << "\", \"held_out_traffic\": \""
      << hex64(HeldOutTraffic) << "\", \"held_out_repeats\": "
      << (HeldOutOk ? "true" : "false") << "},\n"
      << "  \"exact_counts\": {\"reduce.pairs\": " << S.ReduceCountsSeen.Pairs
      << ", \"reduce.rule1\": " << S.ReduceCountsSeen.Rule1
      << ", \"reduce.res_uses\": " << S.ReduceCountsSeen.ResUses
      << ", \"query.units.bitvector\": "
      << S.SchedCounts[0].Work.totalUnits()
      << ", \"query.units.discrete\": " << S.SchedCounts[1].Work.totalUnits()
      << ", \"sched.decisions\": " << S.SchedCounts[0].Decisions << "},\n"
      << "  \"timer_cost_ns\": {\"inside\": " << jsonNumber(Cost.InsideNs)
      << ", \"outside\": " << jsonNumber(Cost.OutsideNs) << "},\n"
      << "  \"correct\": " << (S.Correct ? "true" : "false")
      << ",\n  \"why\": " << jsonString(S.Why) << ",\n  \"metrics\": {";
  std::ostringstream Line;
  Line << "{\"correct\": " << (S.Correct ? "true" : "false")
       << ", \"attempted\": " << Attempted << ", \"failed\": " << S.Failed
       << ", \"metrics\": {";
  for (size_t I = 0; S.Correct && I < M.size(); ++I) {
    std::string Entry = jsonString(M[I].Name) + ": {\"value\": " +
                        jsonNumber(M[I].Value) +
                        ", \"unit\": " + jsonString(M[I].Unit) + "}";
    Doc << (I ? ",\n    " : "\n    ") << Entry;
    Line << (I ? ", " : "") << Entry;
  }
  Doc << "\n  }\n}\n";
  Line << "}}";

  if (!O.OutDir.empty()) {
    fs::create_directories(O.OutDir, EC);
    std::string Stem = std::string(WorkloadNames[int(O.Workload)]) + "-" +
                       std::to_string(O.Seed) + (O.Trace ? "-trace" : "");
    // The file copy also carries every sample, in measurement order.
    std::string Full = Doc.str();
    Full.insert(Full.find("  \"digests\""),
                "  \"series\": {\"reduce_ms\": " + seriesJson(S.Reduce) +
                    ", \"reduce_mt_ms\": " + seriesJson(S.ReduceMt) +
                    ", \"schedule_bitvector_ms\": " + seriesJson(S.Sched[0]) +
                    ", \"schedule_discrete_ms\": " + seriesJson(S.Sched[1]) +
                    ", \"round_mqps\": " + seriesJson(S.RoundMqps) + "},\n");
    std::ofstream(fs::path(O.OutDir) / (Stem + ".json")) << Full;
    // One span file per workload (tens of MB), replaced by each traced run.
    std::string SpanFile = std::string(WorkloadNames[int(O.Workload)]) +
                           ".spans.jsonl";
    if (O.Trace &&
        !Run.Log.writeJsonLines((fs::path(O.OutDir) / SpanFile).string()))
      std::cerr << "rmdbench: cannot write the span log\n";
  }
  if (!S.Correct)
    std::cerr << "rmdbench: INCORRECT: " << S.Why << "\n";
  std::cout << Doc.str() << Line.str() << std::endl;
  return S.Correct ? 0 : 1;
}
