//===- tests/GeneratingSetTest.cpp - Algorithm 1 unit tests ---------------===//

#include "RandomMachine.h"
#include "ReferenceGeneratingSet.h"
#include "machines/MachineCatalog.h"
#include "machines/MachineModel.h"
#include "reduce/GeneratingSet.h"
#include "support/RNG.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace rmd;

namespace {

/// True if \p Set contains a resource with exactly these usages (after
/// canonical normalization).
bool containsResource(const std::vector<SynthesizedResource> &Set,
                      std::vector<SynthUsage> Usages) {
  SynthesizedResource Wanted(std::move(Usages));
  return std::find(Set.begin(), Set.end(), Wanted) != Set.end();
}

/// All canonical latencies generated by any resource of \p Set.
std::vector<ForbiddenLatency>
allGenerated(const std::vector<SynthesizedResource> &Set) {
  std::vector<ForbiddenLatency> All;
  for (const SynthesizedResource &R : Set)
    for (const ForbiddenLatency &L : R.generatedLatencies())
      All.push_back(L);
  std::sort(All.begin(), All.end());
  All.erase(std::unique(All.begin(), All.end()), All.end());
  return All;
}

} // namespace

TEST(SynthesizedResource, NormalizesToCycleZero) {
  SynthesizedResource R({SynthUsage{0, 3}, SynthUsage{1, 5}});
  ASSERT_EQ(R.size(), 2u);
  EXPECT_EQ(R.usages()[0].Cycle, 0);
  EXPECT_EQ(R.usages()[1].Cycle, 2);
}

TEST(SynthesizedResource, GeneratedLatenciesIncludeSelfZero) {
  SynthesizedResource R({SynthUsage{1, 0}, SynthUsage{0, 1}});
  std::vector<ForbiddenLatency> L = R.generatedLatencies();
  // (0,0,0) self, (1,1,0) self, and usage pair (op1@0, op0@1): latency 1 in
  // F(op1, op0) -> canonical (After=1? ...). generatedLatency((1,0),(0,1))
  // = canonicalize(1, 0, 1) = {After=1, Before=0, Latency=1}.
  EXPECT_EQ(L.size(), 3u);
  EXPECT_TRUE(std::find(L.begin(), L.end(),
                        (ForbiddenLatency{0, 0, 0})) != L.end());
  EXPECT_TRUE(std::find(L.begin(), L.end(),
                        (ForbiddenLatency{1, 1, 0})) != L.end());
  EXPECT_TRUE(std::find(L.begin(), L.end(),
                        (ForbiddenLatency{1, 0, 1})) != L.end());
}

TEST(ElementaryPairs, Figure1OrderAndContents) {
  MachineDescription MD = makeFig1Machine();
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::vector<ElementaryPair> Pairs = enumerateElementaryPairs(FLM);

  // The paper processes exactly 4 pairs: 1 in F(B,A), then 1,2,3 in F(B,B).
  ASSERT_EQ(Pairs.size(), 4u);
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");

  // 1 in F(B,A): pair {(B,0), (A,1)}.
  EXPECT_EQ(Pairs[0].First, (SynthUsage{B, 0}));
  EXPECT_EQ(Pairs[0].Second, (SynthUsage{A, 1}));
  for (int I = 1; I <= 3; ++I) {
    EXPECT_EQ(Pairs[I].First, (SynthUsage{B, 0}));
    EXPECT_EQ(Pairs[I].Second, (SynthUsage{B, I}));
  }
  // Each pair generates its defining latency.
  EXPECT_EQ(Pairs[0].latency(), (canonicalize(B, A, 1)));
}

TEST(GeneratingSet, Figure1MaximalResources) {
  MachineDescription MD = makeFig1Machine();
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");

  std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM);
  // Figure 1c: the two maximal resources are {B@0, A@1} and {B@0..3}.
  EXPECT_TRUE(containsResource(Set, {SynthUsage{B, 0}, SynthUsage{A, 1}}));
  EXPECT_TRUE(containsResource(Set, {SynthUsage{B, 0}, SynthUsage{B, 1},
                                     SynthUsage{B, 2}, SynthUsage{B, 3}}));

  // No resource generates a latency outside the matrix (Theorem 1, part 1).
  for (const SynthesizedResource &R : Set)
    for (const ForbiddenLatency &L : R.generatedLatencies())
      EXPECT_TRUE(FLM.isForbidden(L.After, L.Before, L.Latency));

  // Together they cover every canonical latency.
  std::vector<ForbiddenLatency> Covered = allGenerated(Set);
  for (const ForbiddenLatency &L : FLM.canonicalLatencies())
    EXPECT_TRUE(std::binary_search(Covered.begin(), Covered.end(), L));
}

TEST(GeneratingSet, Figure1PruneLeavesExactlyTwo) {
  MachineDescription MD = makeFig1Machine();
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::vector<SynthesizedResource> Pruned =
      pruneGeneratingSet(buildGeneratingSet(FLM));
  EXPECT_EQ(Pruned.size(), 2u);
}

TEST(GeneratingSet, TraceReportsRules) {
  MachineDescription MD = makeFig1Machine();
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  int PairCount = 0;
  std::vector<GeneratingRule> Rules;
  GeneratingSetTrace Trace;
  Trace.OnPair = [&](const ElementaryPair &) { ++PairCount; };
  Trace.OnRule = [&](GeneratingRule Rule, size_t) { Rules.push_back(Rule); };
  buildGeneratingSet(FLM, &Trace);
  EXPECT_EQ(PairCount, 4);
  // Figure 3: the first pair creates a resource via Rule 3; subsequent
  // B-B pairs split off new resources via Rule 2 or extend via Rule 1.
  ASSERT_FALSE(Rules.empty());
  EXPECT_EQ(Rules.front(), GeneratingRule::Rule3);
  EXPECT_TRUE(std::find(Rules.begin(), Rules.end(), GeneratingRule::Rule1) !=
              Rules.end());
}

TEST(GeneratingSet, Rule4SelfOnlyOperation) {
  // One op on a private resource: its only forbidden latency is the 0
  // self-latency, so the generating set must come from Rule 4.
  MachineDescription MD("solo");
  ResourceId R = MD.addResource("r");
  ReservationTable T;
  T.addUsage(R, 0);
  MD.addOperation("only", T);

  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  EXPECT_TRUE(enumerateElementaryPairs(FLM).empty());
  std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM);
  ASSERT_EQ(Set.size(), 1u);
  EXPECT_EQ(Set[0].usages(), (std::vector<SynthUsage>{SynthUsage{0, 0}}));
}

TEST(GeneratingSet, ResourcelessOperationIgnored) {
  MachineDescription MD("mixed");
  ResourceId R = MD.addResource("r");
  ReservationTable Empty;
  MD.addOperation("nop", Empty);
  ReservationTable T;
  T.addUsage(R, 0);
  MD.addOperation("real", T);

  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM);
  for (const SynthesizedResource &Res : Set)
    for (const SynthUsage &U : Res.usages())
      EXPECT_EQ(MD.operation(U.Op).Name, "real");
}

TEST(GeneratingSet, CoversEveryMachine) {
  // Theorem 1 on all builtin machines: the generating set covers the whole
  // canonical matrix and never over-forbids.
  for (const MachineModel &M :
       {makeCydra5(), makeAlpha21064(), makeMipsR3000(), makeToyVliw(),
        makePlayDoh(), makeM88100()}) {
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM);
    ASSERT_FALSE(Set.empty()) << M.MD.name();

    for (const SynthesizedResource &R : Set)
      for (const ForbiddenLatency &L : R.generatedLatencies())
        ASSERT_TRUE(FLM.isForbidden(L.After, L.Before, L.Latency))
            << M.MD.name() << ": over-forbidden latency";

    std::vector<ForbiddenLatency> Covered = allGenerated(Set);
    for (const ForbiddenLatency &L : FLM.canonicalLatencies())
      ASSERT_TRUE(std::binary_search(Covered.begin(), Covered.end(), L))
          << M.MD.name() << ": uncovered latency";
  }
}

TEST(GeneratingSet, PruneKeepsCoverage) {
  for (const MachineModel &M : {makeCydra5(), makeMipsR3000()}) {
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    std::vector<SynthesizedResource> Full = buildGeneratingSet(FLM);
    std::vector<SynthesizedResource> Pruned = pruneGeneratingSet(Full);
    EXPECT_LE(Pruned.size(), Full.size());

    std::vector<ForbiddenLatency> Covered = allGenerated(Pruned);
    for (const ForbiddenLatency &L : FLM.canonicalLatencies())
      ASSERT_TRUE(std::binary_search(Covered.begin(), Covered.end(), L))
          << M.MD.name() << ": prune lost coverage";
  }
}

//===----------------------------------------------------------------------===//
// Differential oracle and golden counts
//===----------------------------------------------------------------------===//

namespace {

/// The bitset fold and prune must produce exactly the reference's sets:
/// same resources, same order, same usages.
void expectMatchesReference(const MachineDescription &MD,
                            const std::string &Label) {
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::vector<SynthesizedResource> Expected =
      reference::buildGeneratingSet(FLM);
  std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM);
  ASSERT_EQ(Set, Expected) << Label << ": generating set";
  EXPECT_EQ(pruneGeneratingSet(Set), reference::pruneGeneratingSet(Expected))
      << Label << ": pruned set";
}

} // namespace

TEST(GeneratingSetOracle, CatalogMachines) {
  for (const std::string &Name : machineNames())
    expectMatchesReference(
        expandAlternatives(machineByName(Name).value().MD).Flat, Name);
}

TEST(GeneratingSetOracle, RandomMachines) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    expectMatchesReference(randomValidMachine(Seed),
                           "seed " + std::to_string(Seed));
}

TEST(GeneratingSetOracle, ScaledVliw) {
  for (auto [Units, DivBusy] : {std::pair{8u, 4u}, std::pair{8u, 8u},
                                std::pair{16u, 8u}, std::pair{16u, 48u}})
    expectMatchesReference(
        expandAlternatives(makeScaledVliw(Units, DivBusy).MD).Flat,
        "vliw" + std::to_string(Units) + "x" + std::to_string(DivBusy));
}

//===----------------------------------------------------------------------===//
// Prune edge cases on hand-built sets
//===----------------------------------------------------------------------===//

namespace {

/// A resource of operation 0 alone, one usage per cycle in \p Cycles.
SynthesizedResource selfResource(std::initializer_list<int> Cycles) {
  std::vector<SynthUsage> Usages;
  for (int C : Cycles)
    Usages.push_back(SynthUsage{0, C});
  return SynthesizedResource(std::move(Usages));
}

/// Prunes \p Set and checks the result against the reference and against
/// the indices of \p Set expected to survive.
void expectPruneKeeps(const std::vector<SynthesizedResource> &Set,
                      const std::vector<size_t> &Survivors) {
  std::vector<SynthesizedResource> Expected;
  for (size_t I : Survivors)
    Expected.push_back(Set[I]);
  EXPECT_EQ(reference::pruneGeneratingSet(Set), Expected);
  EXPECT_EQ(pruneGeneratingSet(Set), Expected);
}

} // namespace

// The cycle sets {0,1,3} and {0,2,3} are mirror images: both generate the
// self-latencies 0, 1, 2 and 3 of operation 0, from different usages.
TEST(GeneratingSetPrune, IdenticalLatencySetsKeepTheHigherIndex) {
  expectPruneKeeps({selfResource({0, 1, 3}), selfResource({0, 2, 3})}, {1});
  expectPruneKeeps({selfResource({0, 2, 3}), selfResource({0, 1, 3})}, {1});
}

TEST(GeneratingSetPrune, ChainKeepsOnlyTheLargest) {
  SynthesizedResource A = selfResource({0, 1});
  SynthesizedResource B = selfResource({0, 1, 2});
  SynthesizedResource C = selfResource({0, 1, 2, 3});
  expectPruneKeeps({B, C, A}, {1});
  expectPruneKeeps({C, B, A}, {0});
  expectPruneKeeps({A, B, C}, {2});
}

// I's strict covers J and K generate the same set; K has the larger index,
// so it covers J, and I is dropped although its cover J is dropped too.
TEST(GeneratingSetPrune, CoverThatIsItselfCovered) {
  SynthesizedResource I = selfResource({0, 1});
  SynthesizedResource J = selfResource({0, 1, 3});
  SynthesizedResource K = selfResource({0, 2, 3});
  expectPruneKeeps({J, I, K}, {2});
  expectPruneKeeps({I, J, K}, {2});
}

// Translated usage sets normalize to one usage vector; the later copy
// survives, next to a resource it does not cover.
TEST(GeneratingSetPrune, TranslatedUsageSetsGenerateEqualSets) {
  SynthesizedResource Early({SynthUsage{0, 2}, SynthUsage{1, 4}});
  SynthesizedResource Late({SynthUsage{0, 5}, SynthUsage{1, 7}});
  ASSERT_EQ(Early.generatedLatencies(), Late.generatedLatencies());
  SynthesizedResource Other({SynthUsage{1, 0}, SynthUsage{2, 1}});
  expectPruneKeeps({Early, Other, Late}, {1, 2});
}

// Cycle masks span several 64-bit words here: latencies 63, 64, 127, 128
// and 200 sit on either side of word boundaries.
TEST(GeneratingSetPrune, LatenciesAcrossWordBoundaries) {
  SynthesizedResource Wide = selfResource({0, 63, 64, 127, 128, 200});
  // {0, 64, 128}, {0, 200}, {0, 1, 65}, {0, 137} and {0, 72} only
  // generate differences of Wide's cycles.
  expectPruneKeeps({selfResource({0, 64, 128}), selfResource({0, 200}), Wide,
                    selfResource({0, 1, 65}), selfResource({0, 137}),
                    selfResource({0, 72})},
                   {2});
  // 66 is no difference of Wide's cycles.
  expectPruneKeeps({Wide, selfResource({0, 66})}, {0, 1});
}

// Operations 0 and 1 two cycles apart, straddling the boundaries of words
// 0/1 and 1/2; each resource's anchor op sits at cycle 0. The bare pair
// is covered by every other resource; the others differ in their anchor
// latencies.
TEST(GeneratingSetPrune, OperationPairsStraddlingWordBoundaries) {
  SynthesizedResource Low(
      {SynthUsage{2, 0}, SynthUsage{0, 62}, SynthUsage{1, 64}});
  SynthesizedResource Pair({SynthUsage{0, 0}, SynthUsage{1, 2}});
  SynthesizedResource Near(
      {SynthUsage{2, 0}, SynthUsage{0, 10}, SynthUsage{1, 12}});
  SynthesizedResource High({SynthUsage{3, 0}, SynthUsage{0, 127},
                            SynthUsage{1, 129}, SynthUsage{3, 200}});
  expectPruneKeeps({Low, Pair, Near, High}, {0, 2, 3});
}

// Seeded random sets with cycles up to 200, each with subsets and
// translated copies of its own resources mixed in, against the reference.
TEST(GeneratingSetPrune, RandomWideSetsMatchReference) {
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    RNG R(Seed);
    unsigned NumOps = 1 + static_cast<unsigned>(R.nextBelow(4));
    std::vector<SynthesizedResource> Set;
    unsigned NumBase = 2 + static_cast<unsigned>(R.nextBelow(5));
    for (unsigned I = 0; I < NumBase; ++I) {
      std::vector<SynthUsage> Usages;
      unsigned NumUsages = 1 + static_cast<unsigned>(R.nextBelow(6));
      for (unsigned U = 0; U < NumUsages; ++U)
        Usages.push_back(SynthUsage{static_cast<OpId>(R.nextBelow(NumOps)),
                                    static_cast<int>(R.nextBelow(201))});
      Set.emplace_back(std::move(Usages));
    }
    unsigned NumDerived = static_cast<unsigned>(R.nextBelow(5));
    for (unsigned I = 0; I < NumDerived; ++I) {
      const SynthesizedResource &From = Set[R.nextBelow(Set.size())];
      int Shift = static_cast<int>(R.nextBelow(130));
      std::vector<SynthUsage> Usages;
      for (const SynthUsage &U : From.usages())
        if (R.nextBelow(4) != 0)
          Usages.push_back(SynthUsage{U.Op, U.Cycle + Shift});
      if (Usages.empty())
        Usages.push_back(From.usages().front());
      Set.emplace_back(std::move(Usages));
    }
    EXPECT_EQ(pruneGeneratingSet(Set), reference::pruneGeneratingSet(Set))
        << "seed " << Seed;
  }
}

// Exact Algorithm 1 rule tallies and set sizes per catalog machine, at 1,
// 2 and 8 threads. Corpus totals: 1923 pairs, 344714 / 1810 / 71829 / 13
// / 1 for Rule 1 / Rule 2 / Rule 2 discards / Rule 3 / Rule 4, and 1824
// generated resources pruned to 70.
TEST(GeneratingSet, GoldenRuleCountsPerCatalogMachine) {
  struct Golden {
    const char *Name;
    uint64_t Pairs, Rule1, Rule2, Rule2Discard, Rule3, Rule4;
    size_t Generated, Pruned;
  };
  const Golden Expected[] = {
      {"fig1", 4, 3, 3, 0, 1, 0, 4, 2},
      {"cydra5", 666, 280755, 732, 27666, 6, 0, 738, 17},
      {"alpha21064", 303, 33983, 302, 9158, 1, 0, 303, 8},
      {"mips-r3000", 323, 9268, 169, 3450, 1, 0, 170, 10},
      {"toy-vliw", 21, 26, 11, 48, 1, 0, 12, 5},
      {"playdoh", 516, 19393, 488, 31214, 2, 1, 491, 21},
      {"m88100", 90, 1286, 105, 293, 1, 0, 106, 7},
  };
  ASSERT_EQ(std::size(Expected), machineNames().size());
  for (const Golden &G : Expected) {
    MachineDescription Flat =
        expandAlternatives(machineByName(G.Name).value().MD).Flat;
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    for (unsigned Threads : {1u, 2u, 8u}) {
      ThreadPool Pool(Threads);
      ThreadPool *PoolPtr = Threads > 1 ? &Pool : nullptr;
      StatsRegistry::instance().reset();
      std::vector<SynthesizedResource> Set =
          buildGeneratingSet(FLM, nullptr, PoolPtr);
      std::vector<SynthesizedResource> Pruned =
          pruneGeneratingSet(Set, PoolPtr);
      StatsSnapshot Snap = StatsRegistry::instance().snapshot();
      auto count = [&](const char *Name) {
        auto It = Snap.Counters.find(Name);
        return It == Snap.Counters.end() ? uint64_t(0) : It->second;
      };
      std::string Where =
          std::string(G.Name) + " at " + std::to_string(Threads) + " threads";
      EXPECT_EQ(count("reduce.pairs"), G.Pairs) << Where;
      EXPECT_EQ(count("reduce.rule1"), G.Rule1) << Where;
      EXPECT_EQ(count("reduce.rule2"), G.Rule2) << Where;
      EXPECT_EQ(count("reduce.rule2_discard"), G.Rule2Discard) << Where;
      EXPECT_EQ(count("reduce.rule3"), G.Rule3) << Where;
      EXPECT_EQ(count("reduce.rule4"), G.Rule4) << Where;
      EXPECT_EQ(Set.size(), G.Generated) << Where;
      EXPECT_EQ(Pruned.size(), G.Pruned) << Where;
      EXPECT_EQ(count("prune.kept"), G.Pruned) << Where;
      EXPECT_EQ(count("prune.dropped"), G.Generated - G.Pruned) << Where;
    }
  }
}
