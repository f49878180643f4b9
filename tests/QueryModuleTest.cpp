//===- tests/QueryModuleTest.cpp - Contention query module tests ----------===//

#include "machines/MachineModel.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"
#include "verify/QueryTrace.h"
#include "verify/TraceFuzzer.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

using namespace rmd;

namespace {

/// The Figure 1 machine and its op ids.
struct Fig1 {
  MachineDescription MD = makeFig1Machine();
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");
};

} // namespace

TEST(DiscreteQuery, CheckAssignFreeRoundTrip) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::linear());

  EXPECT_TRUE(Q.check(F.A, 0));
  Q.assign(F.A, 0, 1);
  // F(B,A) = {1}: B one cycle after A conflicts; 0 and 2 cycles are fine.
  EXPECT_FALSE(Q.check(F.B, 1));
  EXPECT_TRUE(Q.check(F.B, 0));
  EXPECT_TRUE(Q.check(F.B, 2));
  // A conflicts with itself only at distance 0.
  EXPECT_FALSE(Q.check(F.A, 0));
  EXPECT_TRUE(Q.check(F.A, 1));

  Q.free(F.A, 0, 1);
  EXPECT_TRUE(Q.check(F.B, 1));
  EXPECT_TRUE(Q.check(F.A, 0));
}

TEST(DiscreteQuery, WorkUnitAccounting) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::linear());
  Q.check(F.B, 0); // clean table: every usage tested
  EXPECT_EQ(Q.counters().CheckCalls, 1u);
  EXPECT_EQ(Q.counters().CheckUnits,
            F.MD.operation(F.B).table().usageCount());

  Q.assign(F.B, 0, 7);
  EXPECT_EQ(Q.counters().AssignUnits,
            F.MD.operation(F.B).table().usageCount());

  // B against itself at distance 0 hits the very first usage.
  uint64_t Before = Q.counters().CheckUnits;
  EXPECT_FALSE(Q.check(F.B, 0));
  EXPECT_EQ(Q.counters().CheckUnits, Before + 1);
}

TEST(DiscreteQuery, AssignAndFreeEvicts) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::linear());
  Q.assign(F.A, 0, 1);

  std::vector<InstanceId> Evicted;
  Q.assignAndFree(F.B, 1, 2, Evicted); // conflicts with A@0
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0], 1);

  // All of A's resources are released, B's are held.
  EXPECT_TRUE(Q.check(F.A, 3));
  EXPECT_FALSE(Q.check(F.B, 1));
  Q.free(F.B, 1, 2);
  EXPECT_TRUE(Q.check(F.B, 1));
}

TEST(DiscreteQuery, AssignAndFreeNoEvictionOnFreeSlot) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::linear());
  std::vector<InstanceId> Evicted;
  Q.assignAndFree(F.A, 0, 1, Evicted);
  EXPECT_TRUE(Evicted.empty());
}

TEST(DiscreteQuery, ModuloWrapsAround) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::modulo(5));
  Q.assign(F.A, 0, 1);
  // A@0 and A@5 share every MRT slot at II=5.
  EXPECT_FALSE(Q.check(F.A, 5));
  EXPECT_FALSE(Q.check(F.A, -5));
  EXPECT_TRUE(Q.check(F.A, 6));
}

TEST(DiscreteQuery, ModuloSelfConflict) {
  Fig1 F;
  // B uses r3 at cycles 2..5: at II=2, cycles 2 and 4 collide.
  EXPECT_TRUE(hasModuloSelfConflict(F.MD.operation(F.B).table(), 2));
  EXPECT_FALSE(hasModuloSelfConflict(F.MD.operation(F.B).table(), 7));
  DiscreteQueryModule Q(F.MD, QueryConfig::modulo(2));
  EXPECT_FALSE(Q.check(F.B, 0));
  EXPECT_FALSE(Q.check(F.B, 1));
}

TEST(DiscreteQuery, BoundaryConditionsNegativeCycles) {
  Fig1 F;
  // Dangling requirement: a B issued 3 cycles before block entry still
  // holds r3 in cycles -1..2 and r4 in 3..4.
  DiscreteQueryModule Q(F.MD, QueryConfig::linear(-8));
  Q.assign(F.B, -3, 1);
  EXPECT_FALSE(Q.check(F.B, -3 + 1)); // overlaps the dangling B
  EXPECT_TRUE(Q.check(F.A, -2));
  EXPECT_FALSE(Q.check(F.B, -2));
}

TEST(DiscreteQuery, SnapshotRestoreRoundTrip) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::modulo(7));
  Q.assign(F.A, 0, 1);
  DiscreteQueryModule::Snapshot S = Q.snapshot();

  // Mutate: evict A via a forced B, add another A.
  std::vector<InstanceId> Evicted;
  Q.assignAndFree(F.B, 1, 2, Evicted);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_TRUE(Q.check(F.A, 3));

  // Restore: the pre-mutation answers return exactly.
  Q.restore(S);
  EXPECT_FALSE(Q.check(F.A, 0)); // A@0 is scheduled again
  EXPECT_FALSE(Q.check(F.B, 1)); // and blocks B@1 as before
  EXPECT_TRUE(Q.check(F.B, 2));
  // The restored instance is live and freeable.
  Q.free(F.A, 0, 1);
  EXPECT_TRUE(Q.check(F.B, 1));
}

TEST(DiscreteQuery, OccupancyRendering) {
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::linear());
  Q.assign(F.A, 1, 42);
  std::ostringstream OS;
  Q.renderOccupancy(OS, 0, 4);
  std::string Out = OS.str();
  // A@1 uses r0@1, r1@2, r2@3: owner 42 appears; untouched cells are '.'.
  EXPECT_NE(Out.find("42"), std::string::npos);
  EXPECT_NE(Out.find("r0"), std::string::npos);
  EXPECT_NE(Out.find("."), std::string::npos);
  // Three reserved cells => exactly three owner mentions.
  size_t Mentions = 0;
  for (size_t Pos = Out.find("42"); Pos != std::string::npos;
       Pos = Out.find("42", Pos + 1))
    ++Mentions;
  EXPECT_EQ(Mentions, 3u);
}

TEST(QueryModule, CheckWithAlternatives) {
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DiscreteQueryModule Q(EM.Flat, QueryConfig::linear());

  const std::vector<OpId> &AluAlts = EM.Groups[0];
  ASSERT_EQ(AluAlts.size(), 2u);
  // Occupy slot 0's ALU path at cycle 0. Alternative 1 is also blocked at
  // cycle 0 (shared writeback bus at cycle 1), so no alternative fits.
  Q.assign(AluAlts[0], 0, 1);
  EXPECT_EQ(Q.checkWithAlternatives(AluAlts, 0), -1);
  EXPECT_EQ(Q.checkWithAlternatives(AluAlts, 2), 0);
  // With slot 0 taken at cycle 2, the shared bus blocks alternative 1 too.
  Q.assign(AluAlts[0], 2, 2);
  EXPECT_EQ(Q.checkWithAlternatives(AluAlts, 2), -1);
  // One cycle later both the slot and the bus are free again.
  EXPECT_EQ(Q.checkWithAlternatives(AluAlts, 3), 0);
}

TEST(BitvectorQuery, CheckWithAlternativesUnionFastPath) {
  MachineModel Toy = makeToyVliw();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  QueryConfig Config = QueryConfig::linear();
  Config.UnionAlternativeCheck = true;
  BitvectorQueryModule QB(EM.Flat, Config);
  DiscreteQueryModule QD(EM.Flat, QueryConfig::linear());

  const std::vector<OpId> &AluAlts = EM.Groups[0];
  ASSERT_EQ(AluAlts.size(), 2u);

  // Empty table: the union pass answers with a single call.
  EXPECT_EQ(QB.checkWithAlternatives(AluAlts, 0), 0);
  EXPECT_EQ(QB.counters().CheckCalls, 1u);

  // Drive both modules through mixed traffic; answers must agree at every
  // cycle even when the union path falls back.
  RNG R(5);
  InstanceId Next = 0;
  for (int Step = 0; Step < 300; ++Step) {
    int Cycle = static_cast<int>(R.nextBelow(24));
    const std::vector<OpId> &Group =
        EM.Groups[R.nextBelow(EM.Groups.size())];
    int WantB = QB.checkWithAlternatives(Group, Cycle);
    int WantD = QD.checkWithAlternatives(Group, Cycle);
    ASSERT_EQ(WantB, WantD) << "step " << Step;
    if (WantB >= 0 && R.nextChance(1, 2)) {
      InstanceId Id = Next++;
      QB.assign(Group[WantB], Cycle, Id);
      QD.assign(Group[WantD], Cycle, Id);
    }
  }
}

TEST(BitvectorQuery, UnionFastPathBillsOneCallOnlyOnSuccess) {
  // Regression test for the Table 6 accounting skew: the union pass used
  // to bill a check call unconditionally, so a conflicting union-mode
  // query cost 1 + N calls instead of the N fallback calls that were
  // actually answered. A successful union pass is exactly one call; a
  // conflicting one bills only the per-alternative fallback.
  MachineDescription MD("two-port");
  ResourceId R0 = MD.addResource("p0");
  ResourceId R1 = MD.addResource("p1");
  ReservationTable T0, T1;
  T0.addUsage(R0, 0);
  T1.addUsage(R1, 0);
  MD.addOperation("x", {T0, T1});
  ExpandedMachine EM = expandAlternatives(MD);
  const std::vector<OpId> &G = EM.Groups[0];
  ASSERT_EQ(G.size(), 2u);

  QueryConfig Config = QueryConfig::linear();
  Config.UnionAlternativeCheck = true;
  BitvectorQueryModule Q(EM.Flat, Config);

  // Clean table: the union answers alone.
  EXPECT_EQ(Q.checkWithAlternatives(G, 0), 0);
  EXPECT_EQ(Q.counters().CheckCalls, 1u);

  // p0 taken: the union mask conflicts, but alternative 1 is free. The
  // fallback checks alternative 0 (conflict) then 1 (free): two calls,
  // with nothing extra for the failed union pass.
  Q.assign(G[0], 0, 1);
  uint64_t UnitsBefore = Q.counters().CheckUnits;
  EXPECT_EQ(Q.checkWithAlternatives(G, 0), 1);
  EXPECT_EQ(Q.counters().CheckCalls, 3u);
  // The union scan's words are still billed as units: work done is work
  // done, successful or not.
  EXPECT_GT(Q.counters().CheckUnits, UnitsBefore);

  // Both ports taken: full conflict still bills exactly the two fallback
  // calls.
  Q.assign(G[1], 0, 2);
  EXPECT_EQ(Q.checkWithAlternatives(G, 0), -1);
  EXPECT_EQ(Q.counters().CheckCalls, 5u);
}

TEST(DiscreteQuery, SnapshotRestoresWorkCounters) {
  // Snapshots capture the work counters, so restoring a snapshot also
  // rewinds the accounting: work done on an abandoned speculative branch
  // is not billed to the run (callers that want to keep it can
  // accumulate() the pre-restore counters).
  Fig1 F;
  DiscreteQueryModule Q(F.MD, QueryConfig::linear());
  Q.check(F.A, 0);
  Q.assign(F.A, 0, 1);
  WorkCounters AtSnapshot = Q.counters();
  DiscreteQueryModule::Snapshot S = Q.snapshot();

  // A speculative branch that gets abandoned.
  Q.check(F.B, 1);
  std::vector<InstanceId> Evicted;
  Q.assignAndFree(F.B, 1, 2, Evicted);
  EXPECT_GT(Q.counters().CheckCalls, AtSnapshot.CheckCalls);
  EXPECT_GT(Q.counters().AssignFreeCalls, AtSnapshot.AssignFreeCalls);

  Q.restore(S);
  EXPECT_EQ(Q.counters().CheckCalls, AtSnapshot.CheckCalls);
  EXPECT_EQ(Q.counters().CheckUnits, AtSnapshot.CheckUnits);
  EXPECT_EQ(Q.counters().AssignCalls, AtSnapshot.AssignCalls);
  EXPECT_EQ(Q.counters().AssignFreeCalls, AtSnapshot.AssignFreeCalls);
  EXPECT_EQ(Q.counters().totalUnits(), AtSnapshot.totalUnits());

  // Accounting resumes from the snapshot point.
  Q.check(F.A, 1);
  EXPECT_EQ(Q.counters().CheckCalls, AtSnapshot.CheckCalls + 1);
}

TEST(BitvectorQuery, MatchesPaperPackingMath) {
  Fig1 F;
  BitvectorQueryModule Q64(F.MD, QueryConfig::linear());
  EXPECT_EQ(Q64.cyclesPerWordUsed(), 12u); // 64 / 5 resources

  QueryConfig C32 = QueryConfig::linear();
  C32.WordBits = 32;
  BitvectorQueryModule Q32(F.MD, C32);
  EXPECT_EQ(Q32.cyclesPerWordUsed(), 6u);
}

TEST(BitvectorQuery, CheckCountsWordsNotUsages) {
  Fig1 F;
  BitvectorQueryModule Q(F.MD, QueryConfig::linear());
  // B spans 8 cycles; with k=12 every usage fits one word at alignment 0.
  Q.check(F.B, 0);
  EXPECT_EQ(Q.counters().CheckUnits, 1u);
}

// Cross-representation property: the bitvector module must answer exactly
// like the discrete module under an arbitrary op/cycle workload, in linear
// and modulo modes and at 32/64-bit words.
class QueryEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, unsigned>> {};

TEST_P(QueryEquivalence, RandomTraffic) {
  auto [MachineIdx, Mode, WordBits] = GetParam();
  MachineModel Models[] = {makeToyVliw(), makeMipsR3000(), makeAlpha21064()};
  MachineDescription Flat =
      expandAlternatives(Models[MachineIdx].MD).Flat;

  QueryConfig Config = Mode == 0 ? QueryConfig::linear() :
                                   QueryConfig::modulo(Mode);
  Config.WordBits = WordBits;
  DiscreteQueryModule Discrete(Flat, Config);
  BitvectorQueryModule Bitvector(Flat, Config);

  RNG R(MachineIdx * 1000 + Mode * 10 + WordBits);
  std::vector<std::pair<OpId, int>> Scheduled; // (op, cycle) by instance
  InstanceId NextId = 0;

  for (int Step = 0; Step < 800; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int Cycle = static_cast<int>(R.nextBelow(40));
    bool DiscreteOk = Discrete.check(Op, Cycle);
    bool BitvectorOk = Bitvector.check(Op, Cycle);
    ASSERT_EQ(DiscreteOk, BitvectorOk)
        << "op=" << Op << " cycle=" << Cycle << " step=" << Step;
    if (DiscreteOk && R.nextChance(3, 4)) {
      InstanceId Id = NextId++;
      Discrete.assign(Op, Cycle, Id);
      Bitvector.assign(Op, Cycle, Id);
      Scheduled.push_back({Op, Cycle});
    } else if (!Scheduled.empty() && R.nextChance(1, 3)) {
      // Free the most recently scheduled instance from both modules.
      InstanceId Id = NextId - 1;
      auto [FOp, FCycle] = Scheduled.back();
      Scheduled.pop_back();
      --NextId;
      Discrete.free(FOp, FCycle, Id);
      Bitvector.free(FOp, FCycle, Id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, QueryEquivalence,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0, 7, 13), // linear, II=7, II=13
                       ::testing::Values(32u, 64u)));

TEST(BitvectorQuery, AssignAndFreeTransition) {
  Fig1 F;
  BitvectorQueryModule Q(F.MD, QueryConfig::linear());
  EXPECT_FALSE(Q.inUpdateMode());

  std::vector<InstanceId> Evicted;
  Q.assignAndFree(F.A, 0, 1, Evicted);
  EXPECT_TRUE(Evicted.empty());
  EXPECT_FALSE(Q.inUpdateMode()); // optimistic: no conflict yet

  Q.assignAndFree(F.B, 1, 2, Evicted); // conflicts with A@0
  EXPECT_TRUE(Q.inUpdateMode());
  EXPECT_GT(Q.counters().TransitionUnits, 0u);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0], 1);

  // Post-transition state must equal the discrete module's.
  EXPECT_TRUE(Q.check(F.A, 3));
  EXPECT_FALSE(Q.check(F.B, 1));
  Q.free(F.B, 1, 2);
  EXPECT_TRUE(Q.check(F.B, 1));
}

TEST(BitvectorQuery, EvictionAgreesWithDiscrete) {
  // Drive both modules through identical assignAndFree traffic and demand
  // identical eviction sets and final check answers.
  MachineDescription Flat = expandAlternatives(makeToyVliw().MD).Flat;
  DiscreteQueryModule D(Flat, QueryConfig::modulo(6));
  BitvectorQueryModule B(Flat, QueryConfig::modulo(6));

  RNG R(99);
  InstanceId NextId = 0;
  std::vector<bool> Live;
  std::vector<std::pair<OpId, int>> Info;

  for (int Step = 0; Step < 300; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int Cycle = static_cast<int>(R.nextBelow(12));
    if (hasModuloSelfConflict(Flat.operation(Op).table(), 6))
      continue;
    std::vector<InstanceId> EvictedD, EvictedB;
    InstanceId Id = NextId++;
    D.assignAndFree(Op, Cycle, Id, EvictedD);
    B.assignAndFree(Op, Cycle, Id, EvictedB);
    std::sort(EvictedD.begin(), EvictedD.end());
    std::sort(EvictedB.begin(), EvictedB.end());
    ASSERT_EQ(EvictedD, EvictedB) << "step " << Step;
    Live.push_back(true);
    Info.push_back({Op, Cycle});
    for (InstanceId V : EvictedD)
      Live[static_cast<size_t>(V)] = false;
    // Occasionally free a live instance.
    if (R.nextChance(1, 4)) {
      for (size_t I = 0; I < Live.size(); ++I)
        if (Live[I]) {
          D.free(Info[I].first, Info[I].second,
                 static_cast<InstanceId>(I));
          B.free(Info[I].first, Info[I].second,
                 static_cast<InstanceId>(I));
          Live[I] = false;
          break;
        }
    }
    for (OpId Check = 0; Check < Flat.numOperations(); ++Check)
      for (int T = 0; T < 6; ++T)
        ASSERT_EQ(D.check(Check, T), B.check(Check, T))
            << "divergence at step " << Step;
  }
}

TEST(BitvectorQuery, ModuloEvictionCascadeAcrossTwoTransitions) {
  // An eviction cascade in modulo mode, run through the bitvector
  // module's full optimistic -> update lifecycle twice: storm until the
  // first conflicting assign&free forces the transition, keep storming in
  // update mode, reset() (back to optimistic), and storm through a second
  // transition. At every step the discrete module must report the
  // identical eviction set, and the MRTs must agree cell by cell.
  MachineDescription Flat = expandAlternatives(makeToyVliw().MD).Flat;
  const int II = 5;
  DiscreteQueryModule D(Flat, QueryConfig::modulo(II));
  BitvectorQueryModule B(Flat, QueryConfig::modulo(II));

  std::vector<OpId> Placeable;
  for (OpId Op = 0; Op < Flat.numOperations(); ++Op)
    if (!hasModuloSelfConflict(Flat.operation(Op).table(), II))
      Placeable.push_back(Op);
  ASSERT_GE(Placeable.size(), 2u);

  RNG R(1331);
  InstanceId NextId = 0;
  unsigned Transitions = 0;
  for (int Round = 0; Round < 2; ++Round) {
    EXPECT_FALSE(B.inUpdateMode()) << "round " << Round;
    bool Transitioned = false;
    for (int Step = 0; Step < 120; ++Step) {
      OpId Op = Placeable[R.nextBelow(Placeable.size())];
      // Clustered cycles (also negative: modulo wrap) force dense
      // contention so assign&free cascades through multiple victims.
      int Cycle = static_cast<int>(R.nextBelow(2 * II)) - II;
      std::vector<InstanceId> EvictedD, EvictedB;
      InstanceId Id = NextId++;
      D.assignAndFree(Op, Cycle, Id, EvictedD);
      B.assignAndFree(Op, Cycle, Id, EvictedB);
      std::sort(EvictedD.begin(), EvictedD.end());
      std::sort(EvictedB.begin(), EvictedB.end());
      ASSERT_EQ(EvictedD, EvictedB) << "round " << Round << " step " << Step;
      if (!Transitioned && B.inUpdateMode()) {
        Transitioned = true;
        ++Transitions;
        EXPECT_GT(B.counters().TransitionUnits, 0u);
      }
      for (OpId Probe = 0; Probe < Flat.numOperations(); ++Probe)
        for (int T = 0; T < II; ++T)
          ASSERT_EQ(D.check(Probe, T), B.check(Probe, T))
              << "round " << Round << " step " << Step;
    }
    EXPECT_TRUE(Transitioned) << "round " << Round;
    D.reset();
    B.reset();
  }
  EXPECT_EQ(Transitions, 2u);
}

TEST(QueryModule, ReducedDescriptionAnswersIdentically) {
  // The paper's end-to-end guarantee at the query level: original and
  // reduced descriptions answer every query identically.
  MachineDescription Flat = expandAlternatives(makeMipsR3000().MD).Flat;
  MachineDescription Reduced = reduceMachine(Flat).Reduced;

  DiscreteQueryModule QO(Flat, QueryConfig::linear());
  DiscreteQueryModule QR(Reduced, QueryConfig::linear());

  RNG R(4242);
  InstanceId NextId = 0;
  for (int Step = 0; Step < 2000; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int Cycle = static_cast<int>(R.nextBelow(50));
    bool Ok = QO.check(Op, Cycle);
    ASSERT_EQ(Ok, QR.check(Op, Cycle))
        << Flat.operation(Op).Name << "@" << Cycle << " step " << Step;
    if (Ok && R.nextChance(1, 2)) {
      InstanceId Id = NextId++;
      QO.assign(Op, Cycle, Id);
      QR.assign(Op, Cycle, Id);
    }
  }
}

//===----------------------------------------------------------------------===//
// Reuse after reset() and the window scan
//===----------------------------------------------------------------------===//

namespace {

/// The module configurations a scheduler reuses: bitvector with the union
/// path off and on, and discrete.
enum class ModuleKind { Bitvector, BitvectorUnion, Discrete };

const char *kindName(ModuleKind Kind) {
  switch (Kind) {
  case ModuleKind::Bitvector:
    return "bitvector";
  case ModuleKind::BitvectorUnion:
    return "bitvector+union";
  case ModuleKind::Discrete:
    return "discrete";
  }
  return "?";
}

std::unique_ptr<ContentionQueryModule>
makeModule(ModuleKind Kind, const MachineDescription &MD, QueryConfig Config) {
  if (Kind == ModuleKind::Discrete)
    return std::make_unique<DiscreteQueryModule>(MD, Config);
  Config.UnionAlternativeCheck = Kind == ModuleKind::BitvectorUnion;
  return std::make_unique<BitvectorQueryModule>(MD, Config);
}

void expectSameCounters(const WorkCounters &A, const WorkCounters &B,
                        const std::string &What) {
  EXPECT_EQ(A.CheckCalls, B.CheckCalls) << What;
  EXPECT_EQ(A.CheckUnits, B.CheckUnits) << What;
  EXPECT_EQ(A.AssignCalls, B.AssignCalls) << What;
  EXPECT_EQ(A.AssignUnits, B.AssignUnits) << What;
  EXPECT_EQ(A.FreeCalls, B.FreeCalls) << What;
  EXPECT_EQ(A.FreeUnits, B.FreeUnits) << What;
  EXPECT_EQ(A.AssignFreeCalls, B.AssignFreeCalls) << What;
  EXPECT_EQ(A.AssignFreeUnits, B.AssignFreeUnits) << What;
  EXPECT_EQ(A.TransitionUnits, B.TransitionUnits) << What;
}

/// Fuzzes \p Module (built over \p EM.Flat with \p Config) from \p Seed
/// and returns every call with its answers and evicted lists, serialized.
std::string fuzzTranscript(ContentionQueryModule &Module,
                           const ExpandedMachine &EM, QueryConfig Config,
                           uint64_t Seed) {
  QueryTrace Trace;
  Trace.Config = Config;
  TracingQueryModule Tracer(Module, Trace);
  FuzzOptions Options;
  Options.Seed = Seed;
  Options.Steps = 400;
  Options.ResetPerMille = 0; // the reset under test is the caller's
  fuzzQueryModule(Tracer, EM.Flat, EM.Groups, Config, Options);
  std::ostringstream OS;
  Trace.serialize(OS);
  return OS.str();
}

} // namespace

TEST(QueryModuleReuse, ResetModuleMatchesFreshModule) {
  // A scheduler resets and reuses one module per II. After any history —
  // for the bitvector module, one that crossed into update mode — a reset
  // module must answer, evict and count exactly as a fresh one.
  ExpandedMachine EM = expandAlternatives(makeToyVliw().MD);
  for (ModuleKind Kind : {ModuleKind::Bitvector, ModuleKind::BitvectorUnion,
                          ModuleKind::Discrete})
    for (int II : {5, 7}) {
      std::string What = std::string(kindName(Kind)) + " II=" +
                         std::to_string(II);
      QueryConfig Config = QueryConfig::modulo(II);
      std::unique_ptr<ContentionQueryModule> Reused =
          makeModule(Kind, EM.Flat, Config);
      fuzzTranscript(*Reused, EM, Config, /*Seed=*/II);
      if (Kind != ModuleKind::Discrete) {
        EXPECT_TRUE(static_cast<BitvectorQueryModule &>(*Reused).inUpdateMode())
            << What << ": the first trace never reached update mode";
      }
      Reused->reset();
      std::string Second = fuzzTranscript(*Reused, EM, Config, 100 + II);

      std::unique_ptr<ContentionQueryModule> Fresh =
          makeModule(Kind, EM.Flat, Config);
      std::string Want = fuzzTranscript(*Fresh, EM, Config, 100 + II);
      EXPECT_EQ(Second, Want) << What;
      expectSameCounters(Reused->counters(), Fresh->counters(), What);
    }
}

TEST(QueryModuleReuse, FirstFreeSlotMatchesPerSlotLoop) {
  // Each module's own window scan against the slot-by-slot loop over
  // checkWithAlternatives, on twin modules in the same state: the same
  // slot, alternative and counters after every scan, in linear and modulo
  // mode.
  ExpandedMachine EM = expandAlternatives(makeToyVliw().MD);
  for (ModuleKind Kind : {ModuleKind::Bitvector, ModuleKind::BitvectorUnion,
                          ModuleKind::Discrete})
    for (QueryConfig Config : {QueryConfig::linear(), QueryConfig::modulo(6)}) {
      std::string What = std::string(kindName(Kind)) +
                         (Config.Mode == QueryConfig::Linear ? " linear"
                                                             : " modulo");
      std::unique_ptr<ContentionQueryModule> Scan =
          makeModule(Kind, EM.Flat, Config);
      std::unique_ptr<ContentionQueryModule> Loop =
          makeModule(Kind, EM.Flat, Config);
      ASSERT_EQ(fuzzTranscript(*Scan, EM, Config, 9),
                fuzzTranscript(*Loop, EM, Config, 9));

      RNG R(17);
      size_t Found = 0;
      for (int Query = 0; Query < 400; ++Query) {
        const std::vector<OpId> &Alts =
            EM.Groups[R.nextBelow(EM.Groups.size())];
        int From = static_cast<int>(R.nextBelow(48));
        int Count = static_cast<int>(R.nextBelow(12));
        int Alt = -2;
        int Slot = Scan->firstFreeSlot(Alts, From, Count, Alt);
        int WantSlot = From + Count, WantAlt = -1;
        for (int T = From; T < From + Count; ++T)
          if ((WantAlt = Loop->checkWithAlternatives(Alts, T)) >= 0) {
            WantSlot = T;
            break;
          }
        ASSERT_EQ(Slot, WantSlot) << What << " query " << Query;
        ASSERT_EQ(Alt, WantAlt) << What << " query " << Query;
        expectSameCounters(Scan->counters(), Loop->counters(),
                           What + " query " + std::to_string(Query));
        Found += Alt >= 0;
      }
      EXPECT_GT(Found, 0u) << What;
      EXPECT_LT(Found, 400u) << What;
    }
}

TEST(QueryModuleReuse, WrappersSeeEveryScannedSlot) {
  // A wrapper inherits the base window scan, so a tracer records one
  // check-with-alternatives per cycle scanned: up to the free one, or the
  // whole window when none is free.
  ExpandedMachine EM = expandAlternatives(makeToyVliw().MD);
  QueryConfig Config = QueryConfig::modulo(4);
  BitvectorQueryModule Inner(EM.Flat, Config);
  QueryTrace Trace;
  TracingQueryModule Tracer(Inner, Trace);
  const std::vector<OpId> &Alts = EM.Groups[0];

  int Alt = -2;
  EXPECT_EQ(Tracer.firstFreeSlot(Alts, 3, 4, Alt), 3);
  EXPECT_EQ(Alt, 0);
  ASSERT_EQ(Trace.Records.size(), 1u);

  // Fill every slot with every alternative: nothing in the window fits.
  InstanceId Next = 0;
  for (int T = 0; T < 4; ++T)
    for (OpId Op : Alts)
      if (Inner.check(Op, T))
        Inner.assign(Op, T, Next++);
  Trace.Records.clear();
  EXPECT_EQ(Tracer.firstFreeSlot(Alts, 10, 4, Alt), 14);
  EXPECT_EQ(Alt, -1);
  ASSERT_EQ(Trace.Records.size(), 4u);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Trace.Records[I].Call, QueryTraceRecord::CheckAlternatives);
    EXPECT_EQ(Trace.Records[I].Cycle, 10 + static_cast<int>(I));
    EXPECT_EQ(Trace.Records[I].Answer, -1);
  }
  EXPECT_EQ(Tracer.counters().CheckCalls, Inner.counters().CheckCalls);
}
