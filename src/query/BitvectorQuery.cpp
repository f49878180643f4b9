//===- query/BitvectorQuery.cpp -------------------------------------------===//

#include "query/BitvectorQuery.h"

#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <climits>

using namespace rmd;

BitvectorQueryModule::BitvectorQueryModule(const MachineDescription &TheMD,
                                           QueryConfig TheConfig)
    : BitvectorQueryModule(TheMD, TheConfig,
                           buildBitvectorPatternArena(TheMD, TheConfig)) {}

BitvectorQueryModule::BitvectorQueryModule(
    const MachineDescription &TheMD, QueryConfig TheConfig,
    std::shared_ptr<const BitvectorPatternArena> SharedArena)
    : MD(TheMD), Config(TheConfig), NumResources(TheMD.numResources()),
      Arena(std::move(SharedArena)) {
  assert(MD.isExpanded() && "query module requires an expanded machine");
  assert(Arena && "null pattern arena");
  assert(Arena->compatibleWith(MD, Config) &&
         "pattern arena built for a different machine or addressing config");
  // Mirror the arena fields the hot loops touch (see the member comment).
  Patterns = Arena->Patterns.data();
  Masks = Arena->MaskPool.data();
  Prefix = Arena->PrefixPool.data();
  Uniform = Arena->UniformPool.data();
  SelfConflict = Arena->SelfConflict.data();
  UniformRows = Arena->UniformRows;
  K = Arena->K;
  NumPhases = Arena->NumPhases;
  KReciprocal = Arena->KReciprocal;
  if (Config.Mode == QueryConfig::Modulo)
    ensureWords((static_cast<size_t>(Config.ModuloII) + K - 1) / K);
}

void BitvectorQueryModule::growWords(size_t WordCount) {
  size_t NewSize = Words.empty() ? WordCount : Words.size();
  while (NewSize < WordCount)
    NewSize *= 2;
  Words.resize(NewSize, 0);
  if (UpdateMode)
    Owner.resize(NewSize * K * NumResources, -1);
}

size_t BitvectorQueryModule::cycleSlot(int AbsCycle) const {
  if (Config.Mode == QueryConfig::Modulo) {
    int Slot = AbsCycle % Config.ModuloII;
    if (Slot < 0)
      Slot += Config.ModuloII;
    return static_cast<size_t>(Slot);
  }
  assert(AbsCycle >= Config.MinCycle && "cycle below the linear window");
  return static_cast<size_t>(AbsCycle - Config.MinCycle);
}

void BitvectorQueryModule::setBit(size_t Slot, ResourceId R) {
  size_t Word = divK(Slot);
  unsigned Lane = static_cast<unsigned>(Slot - Word * K);
  ensureWords(Word + 1);
  Words[Word] |= 1ull << (Lane * NumResources + R);
}

void BitvectorQueryModule::clearBit(size_t Slot, ResourceId R) {
  size_t Word = divK(Slot);
  unsigned Lane = static_cast<unsigned>(Slot - Word * K);
  if (Word >= Words.size())
    return;
  Words[Word] &= ~(1ull << (Lane * NumResources + R));
}

bool BitvectorQueryModule::testBit(size_t Slot, ResourceId R) const {
  size_t Word = divK(Slot);
  if (Word >= Words.size())
    return false;
  unsigned Lane = static_cast<unsigned>(Slot - Word * K);
  return (Words[Word] >> (Lane * NumResources + R)) & 1;
}

void BitvectorQueryModule::updateOwnersOnAssign(OpId Op, int Cycle,
                                                InstanceId Instance) {
  for (const ResourceUsage &U : MD.operation(Op).table().usages()) {
    size_t Slot = cycleSlot(Cycle + U.Cycle);
    Owner[cellIndex(Slot, U.Resource)] = Instance;
  }
  [[maybe_unused]] bool Inserted = Instances.insert(Instance, Op, Cycle);
  assert(Inserted && "instance id already scheduled");
}

void BitvectorQueryModule::updateOwnersOnFree(OpId Op, int Cycle,
                                              InstanceId Instance) {
  for (const ResourceUsage &U : MD.operation(Op).table().usages()) {
    size_t Slot = cycleSlot(Cycle + U.Cycle);
    Owner[cellIndex(Slot, U.Resource)] = -1;
  }
  [[maybe_unused]] bool Erased = Instances.erase(Instance);
  assert(Erased && "freeing an unscheduled instance");
}

void BitvectorQueryModule::flushLog() {
  if (Log.empty())
    return;

  int64_t MinId = Log.front().Id, MaxId = MinId;
  for (const LogEntry &E : Log) {
    MinId = std::min<int64_t>(MinId, E.Id);
    MaxId = std::max<int64_t>(MaxId, E.Id);
  }
  uint64_t Range = static_cast<uint64_t>(MaxId - MinId) + 1;

  if (Range > 4 * Log.size() + 64) {
    // Sparse ids: replay entry by entry through the hash table.
    for (const LogEntry &E : Log) {
      if (!(E.Op & LogFreeBit)) {
        [[maybe_unused]] bool Inserted = Instances.insert(E.Id, E.Op, E.Cycle);
        assert(Inserted && "instance id already scheduled");
      } else {
        [[maybe_unused]] bool Erased = Instances.erase(E.Id);
        assert(Erased && "freeing an unscheduled instance");
      }
    }
    Log.clear();
    return;
  }

  // Dense ids: state bits per id — bit 0 = net-live from this log, bit 1 =
  // net-freed from the table (the id predates this log). Paired assign/free
  // entries cancel here and never touch the hash table.
  if (FlushState.size() < Range) {
    FlushState.assign(Range, 0);
    FlushLast.resize(Range);
  } else {
    std::fill_n(FlushState.begin(), Range, uint8_t(0));
  }
  for (size_t I = 0; I < Log.size(); ++I) {
    size_t S = static_cast<size_t>(Log[I].Id - MinId);
    uint8_t &F = FlushState[S];
    if (Log[I].Op & LogFreeBit) {
      if (F & 1) {
        F &= static_cast<uint8_t>(~1u);
      } else {
        assert(!(F & 2) && "freeing an unscheduled instance");
        F |= 2;
      }
    } else {
      assert(!(F & 1) && "instance id already scheduled");
      F |= 1;
      FlushLast[S] = static_cast<uint32_t>(I);
    }
  }
  for (uint64_t S = 0; S < Range; ++S) {
    uint8_t F = FlushState[S];
    if (!F)
      continue;
    InstanceId Id = static_cast<InstanceId>(MinId + static_cast<int64_t>(S));
    if (F & 2) {
      [[maybe_unused]] bool Erased = Instances.erase(Id);
      assert(Erased && "freeing an unscheduled instance");
    }
    if (F & 1) {
      const LogEntry &E = Log[FlushLast[S]];
      [[maybe_unused]] bool Inserted = Instances.insert(E.Id, E.Op, E.Cycle);
      assert(Inserted && "instance id already scheduled");
    }
  }
  Log.clear();
}

void BitvectorQueryModule::transitionToUpdateMode() {
  flushLog();
  UpdateMode = true;
  Owner.assign(Words.size() * K * NumResources, -1);
  // Scan the entire list of scheduled operations to reconstruct the owner
  // fields (the paper's transition overhead).
  Instances.forEach([&](const InstanceTable::Entry &E) {
    for (const ResourceUsage &U : MD.operation(E.Op).table().usages()) {
      ++Counters.TransitionUnits;
      ++Counters.AssignFreeUnits;
      size_t Slot = cycleSlot(E.Cycle + U.Cycle);
      Owner[cellIndex(Slot, U.Resource)] = E.Id;
    }
  });
}

void BitvectorQueryModule::evict(InstanceId Instance) {
  const InstanceTable::Entry *E = Instances.find(Instance);
  assert(E && "evicting an unknown instance");
  for (const ResourceUsage &U : MD.operation(E->Op).table().usages()) {
    ++Counters.AssignFreeUnits;
    size_t Slot = cycleSlot(E->Cycle + U.Cycle);
    clearBit(Slot, U.Resource);
    Owner[cellIndex(Slot, U.Resource)] = -1;
  }
  Instances.erase(Instance);
}

void BitvectorQueryModule::assignAndFree(OpId Op, int Cycle,
                                         InstanceId Instance,
                                         std::vector<InstanceId> &Evicted) {
  ++Counters.AssignFreeCalls;
  if (Config.Mode == QueryConfig::Modulo && SelfConflict[Op])
    fatalError("assignAndFree on an operation that self-conflicts at this "
               "II; the scheduler must raise the II instead");

  if (!UpdateMode) {
    // Optimistic mode: test word-at-a-time; if clean, reserve by ORing the
    // same words (one combined and+or per word is one unit of work).
    size_t WordBase;
    unsigned Phase;
    locate(Cycle, WordBase, Phase);
    const PatternRef &P = pattern(Op, Phase);
    if (!scanConflict(P, WordBase, Counters.AssignFreeUnits, Masks, Prefix)) {
      size_t Base = WordBase + static_cast<size_t>(P.FirstWord);
      ensureWords(Base + P.DenseLen);
      simd::orInto(Words.data() + Base, Masks + P.MaskBegin, P.DenseLen);
      Log.push_back({Instance, Op, Cycle});
      ++LiveCount;
      return;
    }
    transitionToUpdateMode();
  }

  // Update mode: iterate resource usages, evicting conflicting owners and
  // keeping owner fields current.
  for (const ResourceUsage &U : MD.operation(Op).table().usages()) {
    ++Counters.AssignFreeUnits;
    size_t Slot = cycleSlot(Cycle + U.Cycle);
    // ensureWords via setBit below also grows Owner; grow before testing.
    if (testBit(Slot, U.Resource)) {
      InstanceId Victim = Owner[cellIndex(Slot, U.Resource)];
      if (Victim == Instance || Victim < 0)
        fatalError("inconsistent owner fields in update mode");
      Evicted.push_back(Victim);
      evict(Victim);
    }
    setBit(Slot, U.Resource);
    if (cellIndex(Slot, U.Resource) >= Owner.size())
      Owner.resize(Words.size() * K * NumResources, -1);
    Owner[cellIndex(Slot, U.Resource)] = Instance;
  }
  [[maybe_unused]] bool Inserted = Instances.insert(Instance, Op, Cycle);
  assert(Inserted && "instance id already scheduled");
}

const BitvectorQueryModule::PatternRef *
BitvectorQueryModule::unionPatternsFor(const std::vector<OpId> &Alternatives) {
  auto It = UnionIndex.find(Alternatives);
  if (It != UnionIndex.end())
    return &UnionRefs[It->second];

  // Merge the member spans per phase: OR the dense masks into a
  // word-indexed scratch (the members are dense spans already, so this is
  // pure word arithmetic — the usages are never re-walked), then append
  // the union span to the module-local union pools. Never to the per-op
  // arena: it may be shared with concurrently querying modules.
  uint32_t Base = static_cast<uint32_t>(UnionRefs.size());
  std::vector<uint64_t> Scratch;
  for (unsigned Phase = 0; Phase < NumPhases; ++Phase) {
    int MinWord = INT_MAX, MaxWord = INT_MIN;
    for (OpId Op : Alternatives) {
      const PatternRef &P = pattern(Op, Phase);
      if (!P.DenseLen)
        continue;
      MinWord = std::min(MinWord, P.FirstWord);
      MaxWord = std::max(MaxWord, P.FirstWord + P.DenseLen - 1);
    }
    if (MaxWord >= MinWord) {
      if (Scratch.size() < static_cast<size_t>(MaxWord) + 1)
        Scratch.resize(static_cast<size_t>(MaxWord) + 1, 0);
      for (OpId Op : Alternatives) {
        const PatternRef &P = pattern(Op, Phase);
        for (unsigned I = 0; I < P.DenseLen; ++I)
          Scratch[static_cast<size_t>(P.FirstWord) + I] |=
              Masks[P.MaskBegin + I];
      }
    }
    UnionRefs.push_back(emitBitvectorPattern(Scratch, MinWord, MaxWord,
                                             UnionMasks, UnionPrefix));
  }
  UnionIndex.emplace(Alternatives, Base);
  return &UnionRefs[Base];
}

int BitvectorQueryModule::checkWithAlternatives(
    const std::vector<OpId> &Alternatives, int Cycle) {
  if (!Config.UnionAlternativeCheck || Alternatives.size() < 2)
    return firstFreeAlternative(Alternatives, Cycle);
  if (Config.Mode == QueryConfig::Modulo) {
    // Self-conflicting alternatives would poison the union; keep the
    // simple path when any alternative is infeasible at this II.
    for (OpId Op : Alternatives)
      if (SelfConflict[Op])
        return firstFreeAlternative(Alternatives, Cycle);
  }

  // Union fast path: one branchless masked-AND scan over the OR of all
  // alternatives' words. A clean union means every alternative fits;
  // return the first. The union pass is billed as exactly one check call,
  // and only when it succeeds: on conflict the fallback below accounts
  // each per-alternative attempt itself, so billing the union call too
  // would charge 1+N calls for one answered query and skew Table 6. The
  // words scanned are real work either way and always land in CheckUnits.
  size_t WordBase;
  unsigned Phase;
  locate(Cycle, WordBase, Phase);
  const PatternRef *Union = unionPatternsFor(Alternatives);
  if (!scanConflict(Union[Phase], WordBase, Counters.CheckUnits,
                    UnionMasks.data(), UnionPrefix.data())) {
    ++Counters.CheckCalls;
    return 0;
  }

  // Some alternative conflicts; fall back to individual checks.
  return firstFreeAlternative(Alternatives, Cycle);
}

int BitvectorQueryModule::firstFreeSlot(const std::vector<OpId> &Alternatives,
                                        int From, int Count, int &Alt) {
  int End = From + Count;
  if (Config.UnionAlternativeCheck && Alternatives.size() >= 2) {
    for (int T = From; T < End; ++T)
      if ((Alt = checkWithAlternatives(Alternatives, T)) >= 0)
        return T;
  } else {
    for (int T = From; T < End; ++T)
      if ((Alt = firstFreeAlternative(Alternatives, T)) >= 0)
        return T;
  }
  Alt = -1;
  return End;
}

void BitvectorQueryModule::reset() {
  std::fill(Words.begin(), Words.end(), 0);
  Owner.clear();
  UpdateMode = false;
  Log.clear();
  LiveCount = 0;
  Instances.clear();
  retireCounters();
}
