//===- tests/SchedulerTest.cpp - DepGraph, MII, list & modulo scheduling --===//

#include "ReferenceRecMII.h"
#include "machines/MachineModel.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ListScheduler.h"
#include "sched/MII.h"
#include "support/RNG.h"
#include "workload/Corpus.h"
#include "workload/Experiment.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <map>

using namespace rmd;

namespace {

/// A fresh discrete module over \p Flat confirms that placing every node of
/// \p G at Time[n] mod II (picking Alternative[n]) is contention-free.
void expectScheduleFeasible(const MachineDescription &Flat,
                            const std::vector<std::vector<OpId>> &Groups,
                            const DepGraph &G,
                            const ModuloScheduleResult &R) {
  ASSERT_TRUE(R.Success);
  DiscreteQueryModule Q(Flat, QueryConfig::modulo(R.II));
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    OpId Flat0 = Groups[G.opOf(N)][R.Alternative[N]];
    ASSERT_TRUE(Q.check(Flat0, R.Time[N]))
        << "contention at node " << N << " of " << G.name();
    Q.assign(Flat0, R.Time[N], static_cast<InstanceId>(N));
  }
  EXPECT_TRUE(G.scheduleRespectsDependences(R.Time, R.II));
}

QueryEnvironment discreteEnv(const MachineDescription &Flat,
                             const std::vector<std::vector<OpId>> &Groups) {
  QueryEnvironment Env;
  Env.FlatMD = &Flat;
  Env.Groups = &Groups;
  Env.MakeModule = [&Flat](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(Flat, C));
  };
  return Env;
}

} // namespace

TEST(DepGraph, TopologicalOrderAndAcyclicity) {
  DepGraph G("g");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(0);
  NodeId C = G.addNode(0);
  G.addEdge(A, B, 1);
  G.addEdge(B, C, 1);
  G.addEdge(A, C, 2);
  EXPECT_TRUE(G.isAcyclic());
  EXPECT_EQ(G.topologicalOrder(), (std::vector<NodeId>{A, B, C}));

  G.addEdge(C, A, 1, /*Distance=*/1);
  EXPECT_FALSE(G.isAcyclic()); // loop-carried edge
}

TEST(DepGraph, ScheduleRespectsDependences) {
  DepGraph G("g");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(0);
  G.addEdge(A, B, 3);
  EXPECT_TRUE(G.scheduleRespectsDependences({0, 3}, 0));
  EXPECT_FALSE(G.scheduleRespectsDependences({0, 2}, 0));
  // With a carried edge, II participates.
  G.addEdge(B, A, 5, 1);
  EXPECT_TRUE(G.scheduleRespectsDependences({0, 3}, 8));
  EXPECT_FALSE(G.scheduleRespectsDependences({0, 3}, 7));
}

TEST(MII, RecurrenceBound) {
  DepGraph G("rec");
  NodeId A = G.addNode(0);
  G.addEdge(A, A, 4, 1);
  EXPECT_EQ(computeRecMII(G), 4);

  DepGraph G2("rec2");
  NodeId X = G2.addNode(0);
  NodeId Y = G2.addNode(0);
  G2.addEdge(X, Y, 3, 0);
  G2.addEdge(Y, X, 2, 1);
  EXPECT_EQ(computeRecMII(G2), 5);

  DepGraph G3("dist2");
  NodeId Z = G3.addNode(0);
  G3.addEdge(Z, Z, 9, 2); // ceil(9/2) = 5
  EXPECT_EQ(computeRecMII(G3), 5);

  DepGraph Acyclic("dag");
  Acyclic.addNode(0);
  EXPECT_EQ(computeRecMII(Acyclic), 1);
}

TEST(MII, ResourceBound) {
  MachineModel Toy = makeToyVliw();
  DepGraph G("loads");
  OpId Load = Toy.MD.findOperation("load");
  for (int I = 0; I < 4; ++I)
    G.addNode(Load);
  // Each load holds Mem for 2 cycles; 4 loads need II >= 8.
  EXPECT_EQ(computeResMII(Toy.MD, G), 8);

  DepGraph G2("alus");
  OpId Alu = Toy.MD.findOperation("alu");
  for (int I = 0; I < 4; ++I)
    G2.addNode(Alu);
  // ALUs split over two slots but share the writeback bus: 4 ops, 1 bus.
  EXPECT_EQ(computeResMII(Toy.MD, G2), 4);
}

TEST(ListScheduler, ChainOnToyVliw) {
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EM = expandAlternatives(Toy.MD);

  DepGraph G("chain");
  OpId Load = Toy.MD.findOperation("load");
  OpId Alu = Toy.MD.findOperation("alu");
  NodeId L = G.addNode(Load);
  NodeId A1 = G.addNode(Alu);
  NodeId A2 = G.addNode(Alu);
  G.addEdge(L, A1, Toy.Latency[Load]);
  G.addEdge(A1, A2, Toy.Latency[Alu]);

  DiscreteQueryModule Q(EM.Flat, QueryConfig::linear());
  ListScheduleResult R = listSchedule(G, EM.Groups, Q);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Time[L], 0);
  EXPECT_EQ(R.Time[A1], R.Time[L] + Toy.Latency[Load]);
  EXPECT_EQ(R.Time[A2], R.Time[A1] + Toy.Latency[Alu]);
  EXPECT_TRUE(G.scheduleRespectsDependences(R.Time, 0));
}

TEST(ListScheduler, BoundaryConditionsDelaySchedule) {
  // A multiply dangling from the predecessor block occupies the multiplier
  // through cycle 1; a new mul cannot start before the unit frees up.
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  OpId Mul = Toy.MD.findOperation("mul");
  OpId FlatMul = EM.Groups[Mul][0];

  DepGraph G("mulblock");
  G.addNode(Mul);

  DiscreteQueryModule Clean(EM.Flat, QueryConfig::linear(-4));
  ListScheduleResult NoDangle = listSchedule(G, EM.Groups, Clean);
  ASSERT_TRUE(NoDangle.Success);
  EXPECT_EQ(NoDangle.Time[0], 0);

  DiscreteQueryModule Seeded(EM.Flat, QueryConfig::linear(-4));
  ListScheduleResult Dangled =
      listSchedule(G, EM.Groups, Seeded, {{FlatMul, -2}});
  ASSERT_TRUE(Dangled.Success);
  // mul@-2 holds Mul in cycles -1..1 and WbBus at 2; mul@0 would collide
  // on Mul (1..3) and mul@1 on Mul@1? -- first feasible slot is 2... the
  // new mul at t uses Mul in t+1..t+3 and WbBus at t+4; conflicts for
  // t+1 <= 1, i.e. t <= 0. Earliest is t = 1.
  EXPECT_EQ(Dangled.Time[0], 1);
}

TEST(ListScheduler, IdenticalSchedulesOriginalVsReduced) {
  // The paper's 1327-loop validation, in miniature: list scheduling against
  // the reduced description must reproduce the original's schedules
  // exactly.
  for (const MachineModel &M :
       {makeToyVliw(), makeMipsR3000(), makeCydra5()}) {
    ExpandedMachine EM = expandAlternatives(M.MD);
    MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

    RNG R(111);
    for (int Trial = 0; Trial < 25; ++Trial) {
      // Random acyclic graph over original ops.
      DepGraph G("t");
      unsigned N = 3 + static_cast<unsigned>(R.nextBelow(12));
      for (unsigned I = 0; I < N; ++I)
        G.addNode(static_cast<OpId>(R.nextBelow(M.MD.numOperations())));
      for (NodeId V = 1; V < N; ++V) {
        NodeId From = static_cast<NodeId>(R.nextBelow(V));
        G.addEdge(From, V, M.Latency[G.opOf(From)]);
      }

      DiscreteQueryModule QO(EM.Flat, QueryConfig::linear());
      DiscreteQueryModule QR(Reduced, QueryConfig::linear());
      ListScheduleResult RO = listSchedule(G, EM.Groups, QO);
      ListScheduleResult RR = listSchedule(G, EM.Groups, QR);
      ASSERT_TRUE(RO.Success);
      ASSERT_TRUE(RR.Success);
      EXPECT_EQ(RO.Time, RR.Time) << M.MD.name() << " trial " << Trial;
      EXPECT_EQ(RO.Alternative, RR.Alternative)
          << M.MD.name() << " trial " << Trial;
    }
  }
}

TEST(ModuloScheduler, InnerProductOnCydra) {
  MachineModel Cydra = makeCydra5();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  DepGraph G = bind(livermoreKernels()[1], Cydra); // inner_product

  ModuloScheduleResult R =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  // The reduction recurrence (fadd latency 6, distance 1) forces II >= 6.
  EXPECT_GE(R.Stats.RecMII, 6);
  EXPECT_GE(R.II, R.Stats.MII);
  expectScheduleFeasible(EM.Flat, EM.Groups, G, R);
}

TEST(ModuloScheduler, AchievesMIIOnParallelLoops) {
  // first_diff is fully parallel. On the single-memory-pipe toy VLIW the
  // resource bound is exact and the IMS must land on MII.
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EMToy = expandAlternatives(Toy.MD);
  DepGraph GToy = bind(livermoreKernels()[5], Toy);
  ModuloScheduleResult RToy =
      moduloSchedule(GToy, Toy.MD, discreteEnv(EMToy.Flat, EMToy.Groups));
  ASSERT_TRUE(RToy.Success);
  EXPECT_EQ(RToy.II, RToy.Stats.MII);
  expectScheduleFeasible(EMToy.Flat, EMToy.Groups, GToy, RToy);

  // On the Cydra the fractional two-port ResMII can be off by one (3
  // memory ops on 2 ports cannot pack into 3 cycles), so only closeness is
  // required.
  MachineModel Cydra = makeCydra5();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  DepGraph G = bind(livermoreKernels()[5], Cydra);
  ModuloScheduleResult R =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  EXPECT_LE(R.II, R.Stats.MII + 1);
  expectScheduleFeasible(EM.Flat, EM.Groups, G, R);
}

TEST(ModuloScheduler, AllKernelsScheduleOnAllMachines) {
  for (const MachineModel &M :
       {makeCydra5(), makeAlpha21064(), makeMipsR3000(), makeToyVliw(),
        makePlayDoh()}) {
    ExpandedMachine EM = expandAlternatives(M.MD);
    for (const RoleGraph &K : livermoreKernels()) {
      DepGraph G = bind(K, M);
      ModuloScheduleResult R =
          moduloSchedule(G, M.MD, discreteEnv(EM.Flat, EM.Groups));
      ASSERT_TRUE(R.Success) << M.MD.name() << " " << K.Name;
      expectScheduleFeasible(EM.Flat, EM.Groups, G, R);
      EXPECT_LE(static_cast<double>(R.II) / R.Stats.MII, 2.0)
          << M.MD.name() << " " << K.Name << ": II far above MII";
    }
  }
}

TEST(ModuloScheduler, SameIIAcrossRepresentationsAndDescriptions) {
  // Identical query answers => identical scheduling traces. Run the same
  // kernels against original/reduced x discrete/bitvector and require the
  // same II and the same schedule.
  MachineModel Mips = makeMipsR3000();
  ExpandedMachine EM = expandAlternatives(Mips.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  auto bitvectorEnv = [&](const MachineDescription &Flat) {
    QueryEnvironment Env;
    Env.FlatMD = &Flat;
    Env.Groups = &EM.Groups;
    Env.MakeModule = [&Flat](QueryConfig C) {
      return std::unique_ptr<ContentionQueryModule>(
          new BitvectorQueryModule(Flat, C));
    };
    return Env;
  };

  for (const RoleGraph &K : livermoreKernels()) {
    DepGraph G = bind(K, Mips);
    ModuloScheduleResult Base =
        moduloSchedule(G, Mips.MD, discreteEnv(EM.Flat, EM.Groups));
    ASSERT_TRUE(Base.Success);

    for (const QueryEnvironment &Env :
         {discreteEnv(Reduced, EM.Groups), bitvectorEnv(EM.Flat),
          bitvectorEnv(Reduced)}) {
      ModuloScheduleResult Other = moduloSchedule(G, Mips.MD, Env);
      ASSERT_TRUE(Other.Success) << K.Name;
      EXPECT_EQ(Other.II, Base.II) << K.Name;
      EXPECT_EQ(Other.Time, Base.Time) << K.Name;
      EXPECT_EQ(Other.Alternative, Base.Alternative) << K.Name;
    }
  }
}

TEST(ModuloScheduler, BudgetForcesHigherII) {
  // With a tiny budget, hard loops take more attempts (and sometimes a
  // larger II) but must still schedule.
  MachineModel Cydra = makeCydra5();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  DepGraph G = bind(replicate(livermoreKernels()[0], 6), Cydra);

  ModuloScheduleOptions Tight;
  Tight.BudgetRatio = 1;
  ModuloScheduleResult R =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups), Tight);
  ASSERT_TRUE(R.Success);
  expectScheduleFeasible(EM.Flat, EM.Groups, G, R);

  ModuloScheduleResult Loose =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(Loose.Success);
  EXPECT_LE(Loose.II, R.II);
}

TEST(ModuloScheduler, ChecksPerDecisionRecorded) {
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G = bind(livermoreKernels()[6], Toy); // daxpy
  ModuloScheduleResult R =
      moduloSchedule(G, Toy.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Stats.ChecksPerDecision.size(), R.Stats.totalDecisions());
  for (uint32_t C : R.Stats.ChecksPerDecision)
    EXPECT_GE(C, 1u);
  EXPECT_GT(R.Counters.AssignFreeCalls, 0u);
  EXPECT_EQ(R.Counters.AssignCalls, 0u); // IMS always uses assign&free
}

//===----------------------------------------------------------------------===//
// One query module per II per environment
//===----------------------------------------------------------------------===//

namespace {

void expectSameRun(const ModuloScheduleResult &A, const ModuloScheduleResult &B,
                   const std::string &What) {
  EXPECT_EQ(A.Success, B.Success) << What;
  EXPECT_EQ(A.II, B.II) << What;
  EXPECT_EQ(A.Time, B.Time) << What;
  EXPECT_EQ(A.Alternative, B.Alternative) << What;
  EXPECT_EQ(A.Stats.DecisionsPerAttempt, B.Stats.DecisionsPerAttempt) << What;
  EXPECT_EQ(A.Stats.ChecksPerDecision, B.Stats.ChecksPerDecision) << What;
  EXPECT_EQ(A.Stats.EvictedByResource, B.Stats.EvictedByResource) << What;
  const WorkCounters &X = A.Counters, &Y = B.Counters;
  EXPECT_EQ(X.CheckCalls, Y.CheckCalls) << What;
  EXPECT_EQ(X.CheckUnits, Y.CheckUnits) << What;
  EXPECT_EQ(X.AssignCalls, Y.AssignCalls) << What;
  EXPECT_EQ(X.AssignUnits, Y.AssignUnits) << What;
  EXPECT_EQ(X.FreeCalls, Y.FreeCalls) << What;
  EXPECT_EQ(X.FreeUnits, Y.FreeUnits) << What;
  EXPECT_EQ(X.AssignFreeCalls, Y.AssignFreeCalls) << What;
  EXPECT_EQ(X.AssignFreeUnits, Y.AssignFreeUnits) << What;
  EXPECT_EQ(X.TransitionUnits, Y.TransitionUnits) << What;
}

/// \p Env with a factory that tallies its builds per II into \p Builds.
QueryEnvironment countingEnv(const MachineDescription &Flat,
                             const std::vector<std::vector<OpId>> &Groups,
                             const ModuleFactory &Factory,
                             std::map<int, int> &Builds) {
  QueryEnvironment Env;
  Env.FlatMD = &Flat;
  Env.Groups = &Groups;
  Env.MakeModule = [&Factory, &Builds](QueryConfig C) {
    ++Builds[C.ModuloII];
    return Factory(C);
  };
  return Env;
}

} // namespace

TEST(ModuloScheduler, EnvironmentBuildsOneModulePerII) {
  // Over a whole corpus, one environment builds each II's module once and
  // resets it for every later attempt at that II; every loop's results
  // and counters equal those of a run through a fresh environment.
  MachineModel Cydra = makeCydra5();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, CorpusParams());

  for (auto Kind : {RepresentationSpec::Bitvector, RepresentationSpec::Discrete}) {
    RepresentationSpec Spec;
    Spec.Kind = Kind;
    Spec.FlatMD = &Reduced;
    ModuleFactory Factory = makeModuleFactory(Spec);
    std::string Label =
        Kind == RepresentationSpec::Bitvector ? "bitvector" : "discrete";

    std::map<int, int> Pooled, Fresh;
    QueryEnvironment Env = countingEnv(Reduced, EM.Groups, Factory, Pooled);
    size_t FreshBuilds = 0;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      ModuloScheduleResult Got = moduloSchedule(Corpus[I], Cydra.MD, Env);
      std::map<int, int> Once;
      ModuloScheduleResult Want = moduloSchedule(
          Corpus[I], Cydra.MD, countingEnv(Reduced, EM.Groups, Factory, Once));
      expectSameRun(Got, Want, Label + " loop " + std::to_string(I));
      for (auto [II, Count] : Once) {
        EXPECT_EQ(Count, 1) << Label << " loop " << I << " II " << II;
        ++Fresh[II];
        FreshBuilds += Count;
      }
    }
    // A fresh environment per loop builds far more modules than there are
    // IIs; the shared one builds exactly one per II those runs built.
    EXPECT_GT(FreshBuilds, 2 * Pooled.size()) << Label;
    ASSERT_EQ(Pooled.size(), Fresh.size()) << Label;
    for (auto [II, Count] : Pooled) {
      EXPECT_EQ(Count, 1) << Label << " II " << II;
      EXPECT_TRUE(Fresh.count(II)) << Label << " II " << II;
    }

    // A second pass through the same environment builds nothing.
    std::map<int, int> Before = Pooled;
    for (const DepGraph &G : Corpus)
      moduloSchedule(G, Cydra.MD, Env);
    EXPECT_EQ(Pooled, Before) << Label;
  }
}

TEST(ModuloScheduler, CopiedEnvironmentStartsWithEmptyPool) {
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G = bind(livermoreKernels()[6], Toy); // daxpy
  RepresentationSpec Spec;
  Spec.FlatMD = &EM.Flat;
  ModuleFactory Factory = makeModuleFactory(Spec);

  std::map<int, int> Builds;
  QueryEnvironment Env = countingEnv(EM.Flat, EM.Groups, Factory, Builds);
  ModuloScheduleResult First = moduloSchedule(G, Toy.MD, Env);
  ASSERT_TRUE(First.Success);
  ASSERT_EQ(Builds[First.II], 1);

  QueryEnvironment Copy = Env;
  expectSameRun(moduloSchedule(G, Toy.MD, Copy), First, "copy");
  EXPECT_EQ(Builds[First.II], 2); // the copy built its own module
  expectSameRun(moduloSchedule(G, Toy.MD, Env), First, "original");
  expectSameRun(moduloSchedule(G, Toy.MD, Copy), First, "copy again");
  EXPECT_EQ(Builds[First.II], 2);
}

//===----------------------------------------------------------------------===//
// RecMII against the binary-search oracle
//===----------------------------------------------------------------------===//

namespace {

void expectSameRecMII(const DepGraph &G, const std::string &What) {
  Expected<int> Got = computeRecMIIChecked(G);
  Expected<int> Want = reference::computeRecMIIChecked(G);
  ASSERT_EQ(static_cast<bool>(Got), static_cast<bool>(Want)) << What;
  if (Want) {
    EXPECT_EQ(Got.value(), Want.value()) << What;
  } else {
    EXPECT_EQ(Got.status().code(), Want.status().code()) << What;
    EXPECT_EQ(Got.status().message(), Want.status().message()) << What;
  }
}

} // namespace

TEST(RecMIIOracle, MatchesBinarySearchOnCorpus) {
  MachineModel Cydra = makeCydra5();
  for (uint64_t Seed : {uint64_t(0x1327), uint64_t(7)}) {
    CorpusParams Params;
    Params.Seed = Seed;
    std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);
    size_t AboveOne = 0;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      expectSameRecMII(Corpus[I], "seed " + std::to_string(Seed) + " loop " +
                                      std::to_string(I));
      AboveOne += computeRecMII(Corpus[I]) > 1;
    }
    EXPECT_GT(AboveOne, Corpus.size() / 10) << "seed " << Seed;
  }
}

TEST(RecMIIOracle, MatchesBinarySearchOnRandomGraphs) {
  // Self-loops, parallel edges, disconnected parts, negative delays, and
  // (in half the shapes) backward zero-distance edges that close
  // zero-distance positive cycles.
  RNG R(2024);
  size_t Infeasible = 0, Acyclic = 0, Recurrent = 0;
  for (int Graph = 0; Graph < 200; ++Graph) {
    int Shape = Graph % 4;
    DepGraph G("g" + std::to_string(Graph));
    size_t N = 1 + R.nextBelow(10);
    for (size_t V = 0; V < N; ++V)
      G.addNode(0, Graph % 3 ? "n" + std::to_string(V) : "");
    size_t Edges = R.nextBelow(3 * N + 1);
    for (size_t E = 0; E < Edges; ++E) {
      NodeId From = static_cast<NodeId>(R.nextBelow(N));
      NodeId To = E % 5 == 4 ? From : static_cast<NodeId>(R.nextBelow(N));
      int Delay = static_cast<int>(R.nextInRange(-2, 8));
      int Distance = Shape == 2 || R.nextChance(1, 2)
                         ? 0
                         : static_cast<int>(R.nextInRange(1, 3));
      // Shapes 0 and 2 keep zero-distance edges forward (no zero-distance
      // cycle); shape 1 allows any; shape 3 rarely goes backward.
      if (Distance == 0 && To <= From &&
          (Shape == 0 || Shape == 2 || (Shape == 3 && !R.nextChance(1, 6))))
        std::swap(From, To);
      if (Distance == 0 && From == To && Shape != 1)
        continue;
      G.addEdge(From, To, Delay, Distance);
      if (R.nextChance(1, 8)) // a parallel edge
        G.addEdge(From, To, static_cast<int>(R.nextInRange(-2, 8)), Distance);
    }
    expectSameRecMII(G, G.name());
    Expected<int> RecMII = computeRecMIIChecked(G);
    if (!RecMII)
      ++Infeasible;
    else if (RecMII.value() == 1)
      ++Acyclic;
    else
      ++Recurrent;
  }
  EXPECT_GE(Infeasible, 20u);
  EXPECT_GE(Acyclic, 20u);
  EXPECT_GE(Recurrent, 20u);
}
