//===- tests/ArenaCacheTest.cpp - BitvectorArenaCache keying and locking --===//
//
// The cache must hand out one arena per addressing config (every field
// BitvectorPatternArena::compatibleWith checks is part of the key) and
// build it exactly once even when many threads ask at the same time. The
// server's registry and the IMS module factory both rely on it; this suite
// runs under the tsan preset with the other server-label tests.
//
//===----------------------------------------------------------------------===//

#include "machines/MachineModel.h"
#include "query/BitvectorQuery.h"
#include "query/PatternArena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace rmd;

namespace {

QueryConfig moduloWithWordBits(int II, unsigned WordBits) {
  QueryConfig C = QueryConfig::modulo(II);
  C.WordBits = WordBits;
  return C;
}

} // namespace

TEST(ArenaCache, WordBitsIsPartOfTheKey) {
  MachineDescription MD = makeFig1Machine();
  ASSERT_LE(MD.numResources(), 32u);
  BitvectorArenaCache Cache(MD);

  QueryConfig C64 = moduloWithWordBits(3, 64);
  QueryConfig C32 = moduloWithWordBits(3, 32);
  bool Built64 = false, Built32 = false;
  auto A64 = Cache.get(C64, &Built64);
  auto A32 = Cache.get(C32, &Built32);
  EXPECT_TRUE(Built64);
  EXPECT_TRUE(Built32);
  ASSERT_NE(A64, A32);
  EXPECT_EQ(A64->WordBits, 64u);
  EXPECT_EQ(A32->WordBits, 32u);
  EXPECT_TRUE(A64->compatibleWith(MD, C64));
  EXPECT_TRUE(A32->compatibleWith(MD, C32));
  EXPECT_FALSE(A64->compatibleWith(MD, C32));

  // A module over each arena answers like one that built its own.
  BitvectorQueryModule Shared(MD, C32, A32);
  BitvectorQueryModule Own(MD, C32);
  for (OpId Op = 0; Op < MD.numOperations(); ++Op)
    for (int Cycle = 0; Cycle < 3; ++Cycle)
      EXPECT_EQ(Shared.check(Op, Cycle), Own.check(Op, Cycle));
}

TEST(ArenaCache, EveryCompatibilityFieldSeparatesArenas) {
  MachineDescription MD = makeFig1Machine();
  BitvectorArenaCache Cache(MD);
  QueryConfig Base = QueryConfig::modulo(4);
  QueryConfig OtherII = QueryConfig::modulo(5);
  QueryConfig ForcedK = Base;
  ForcedK.CyclesPerWordOverride = 1;
  QueryConfig Linear = QueryConfig::linear();

  auto A = Cache.get(Base);
  EXPECT_NE(A, Cache.get(OtherII));
  EXPECT_NE(A, Cache.get(ForcedK));
  EXPECT_NE(A, Cache.get(Linear));
  EXPECT_EQ(Cache.get(ForcedK)->CyclesPerWordOverride, 1u);
}

TEST(ArenaCache, SameConfigReturnsSamePointer) {
  MachineDescription MD = makeFig1Machine();
  BitvectorArenaCache Cache(MD);

  bool Built = false;
  auto First = Cache.get(QueryConfig::modulo(6), &Built);
  EXPECT_TRUE(Built);
  auto Second = Cache.get(QueryConfig::modulo(6), &Built);
  EXPECT_FALSE(Built);
  EXPECT_EQ(First, Second);

  // Per-module fields are not part of the key; neither is ModuloII in
  // linear mode.
  QueryConfig Union = QueryConfig::modulo(6);
  Union.UnionAlternativeCheck = true;
  EXPECT_EQ(Cache.get(Union), First);
  QueryConfig L0 = QueryConfig::linear(0);
  QueryConfig L1 = QueryConfig::linear(-4);
  L1.ModuloII = 9;
  EXPECT_EQ(Cache.get(L0), Cache.get(L1));
}

TEST(ArenaCache, ConcurrentFirstRequestsBuildOnce) {
  MachineDescription MD = makeFig1Machine();
  BitvectorArenaCache Cache(MD);
  constexpr int Threads = 8;

  std::atomic<int> Ready{0};
  std::atomic<int> Builds{0};
  std::vector<std::shared_ptr<const BitvectorPatternArena>> Got(Threads);
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      // Start together so the first requests race.
      Ready.fetch_add(1);
      while (Ready.load() < Threads)
        std::this_thread::yield();
      bool Built = false;
      Got[T] = Cache.get(QueryConfig::modulo(7), &Built);
      Builds.fetch_add(Built);
    });
  for (std::thread &Th : Pool)
    Th.join();

  EXPECT_EQ(Builds.load(), 1);
  for (int T = 0; T < Threads; ++T) {
    ASSERT_TRUE(Got[T]);
    EXPECT_EQ(Got[T], Got[0]);
  }
}
