//===- query/PatternArena.cpp ---------------------------------------------===//

#include "query/PatternArena.h"

#include "query/DiscreteQuery.h" // hasModuloSelfConflict
#include "reduce/Metrics.h"      // cyclesPerWord
#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <climits>

using namespace rmd;

BitvectorPatternRef rmd::emitBitvectorPattern(std::vector<uint64_t> &Scratch,
                                              int MinWord, int MaxWord,
                                              simd::WordVector &MaskPool,
                                              std::vector<uint16_t> &PrefixPool) {
  BitvectorPatternRef Ref;
  if (MaxWord < MinWord)
    return Ref; // no usages: an empty span
  Ref.MaskBegin = static_cast<uint32_t>(MaskPool.size());
  Ref.FirstWord = MinWord;
  Ref.DenseLen = static_cast<uint16_t>(MaxWord - MinWord + 1);
  uint16_t Nonempty = 0;
  for (int W = MinWord; W <= MaxWord; ++W) {
    uint64_t Mask = Scratch[static_cast<size_t>(W)];
    Scratch[static_cast<size_t>(W)] = 0;
    if (Mask)
      ++Nonempty;
    MaskPool.push_back(Mask);
    PrefixPool.push_back(Nonempty);
  }
  Ref.Nonempty = Nonempty;
  if (Ref.DenseLen == 1)
    Ref.InlineMask = MaskPool[Ref.MaskBegin];
  return Ref;
}

namespace {

/// Accumulates one reservation table into \p Scratch (word-indexed masks)
/// for issue alignment \p Phase; extends [MinWord, MaxWord]. The modulo
/// wrap is applied here, at build time.
void bucketUsages(const BitvectorPatternArena &A, const ReservationTable &RT,
                  unsigned Phase, std::vector<uint64_t> &Scratch, int &MinWord,
                  int &MaxWord) {
  for (const ResourceUsage &U : RT.usages()) {
    // A negative usage cycle would produce a negative span word here, and
    // WordBase + FirstWord on a size_t base later wraps to a huge index
    // that the module's ensureWords() tries to allocate. Reject loudly;
    // lintMachine() diagnoses such descriptions up front.
    if (U.Cycle < 0)
      fatalError("reservation table has a negative usage cycle; "
                 "run lintMachine()/validate() on this description");
    int Word;
    unsigned Lane;
    if (A.Mode == QueryConfig::Modulo) {
      // Phase is the issue slot within the MRT; the modulo wrap is folded
      // into the pattern here, at build time, so the query loops scan a
      // straight span with no per-word wrap handling.
      int Slot = (static_cast<int>(Phase) + U.Cycle) % A.ModuloII;
      Word = Slot / static_cast<int>(A.K);
      Lane = static_cast<unsigned>(Slot) % A.K;
    } else {
      // Phase is the issue cycle's position within its word.
      int Shifted = static_cast<int>(Phase) + U.Cycle;
      Word = Shifted / static_cast<int>(A.K);
      Lane = static_cast<unsigned>(Shifted) % A.K;
    }
    if (static_cast<size_t>(Word) >= Scratch.size())
      Scratch.resize(static_cast<size_t>(Word) + 1, 0);
    Scratch[static_cast<size_t>(Word)] |=
        1ull << (Lane * static_cast<unsigned>(A.NumResources) + U.Resource);
    MinWord = std::min(MinWord, Word);
    MaxWord = std::max(MaxWord, Word);
  }
}

} // namespace

std::shared_ptr<const BitvectorPatternArena>
rmd::buildBitvectorPatternArena(const MachineDescription &MD,
                                QueryConfig Config) {
  assert(MD.isExpanded() && "pattern arena requires an expanded machine");
  assert(MD.numResources() <= Config.WordBits &&
         "bitvector representation requires numResources <= WordBits; "
         "reduce the machine description first");

  auto Arena = std::make_shared<BitvectorPatternArena>();
  BitvectorPatternArena &A = *Arena;
  A.Mode = Config.Mode;
  A.ModuloII = Config.ModuloII;
  A.WordBits = Config.WordBits;
  A.CyclesPerWordOverride = Config.CyclesPerWordOverride;
  A.NumResources = MD.numResources();
  A.NumOperations = MD.numOperations();

  A.K = cyclesPerWord(A.NumResources, Config.WordBits);
  if (Config.CyclesPerWordOverride > 0) {
    assert(Config.CyclesPerWordOverride <= A.K &&
           "cycles-per-word override exceeds what the word width holds");
    A.K = Config.CyclesPerWordOverride;
  }

  if (Config.Mode == QueryConfig::Modulo) {
    assert(Config.ModuloII > 0 && "modulo mode requires a positive II");
    A.NumPhases = static_cast<unsigned>(Config.ModuloII);
    A.SelfConflict.assign(MD.numOperations(), 0);
    for (OpId Op = 0; Op < MD.numOperations(); ++Op)
      A.SelfConflict[Op] =
          hasModuloSelfConflict(MD.operation(Op).table(), Config.ModuloII);
  } else {
    A.NumPhases = A.K;
  }
  A.KReciprocal =
      ((uint64_t(1) << BitvectorPatternArena::KReciprocalShift) + A.K - 1) /
      A.K;

  A.Patterns.assign(static_cast<size_t>(MD.numOperations()) * A.NumPhases,
                    BitvectorPatternRef{});
  // One bucketed pass per (op, phase): usages accumulate into a
  // word-indexed scratch array (no find_if over an output list), then the
  // touched span is appended to the arena in word order.
  std::vector<uint64_t> Scratch;
  for (OpId Op = 0; Op < MD.numOperations(); ++Op) {
    const ReservationTable &RT = MD.operation(Op).table();
    for (unsigned Phase = 0; Phase < A.NumPhases; ++Phase) {
      int MinWord = INT_MAX, MaxWord = INT_MIN;
      bucketUsages(A, RT, Phase, Scratch, MinWord, MaxWord);
      A.Patterns[static_cast<size_t>(Op) * A.NumPhases + Phase] =
          emitBitvectorPattern(Scratch, MinWord, MaxWord, A.MaskPool,
                               A.PrefixPool);
    }
  }

  // Uniform-row mirror (see BitvectorQuery.h's member comment): linear mode
  // only — modulo spans use absolute, wrapped word indices that the
  // fixed-width kernels cannot pad safely. Machines whose spans never
  // exceed two words skip the mirror entirely: their length branch is
  // near-perfectly predicted already, and the row kernel's lane-extract
  // overhead measured as a net loss there. Machines with spans wider than a
  // row (fig1's widest) skip it too — a zero-padded row would under-report
  // those spans.
  A.UniformRows = false;
  if (Config.Mode == QueryConfig::Linear) {
    size_t MaxLen = 0;
    for (const BitvectorPatternRef &P : A.Patterns)
      MaxLen = std::max<size_t>(MaxLen, P.DenseLen);
    if (MaxLen >= 3 && MaxLen <= BitvectorPatternArena::UniformWords) {
      A.UniformRows = true;
      A.UniformPool.assign(
          A.Patterns.size() * BitvectorPatternArena::UniformWords, 0);
      for (size_t I = 0; I < A.Patterns.size(); ++I)
        for (size_t J = 0; J < A.Patterns[I].DenseLen; ++J)
          A.UniformPool[I * BitvectorPatternArena::UniformWords + J] =
              A.MaskPool[A.Patterns[I].MaskBegin + J];
    }
  }

  return Arena;
}

std::shared_ptr<const BitvectorPatternArena>
BitvectorArenaCache::get(const QueryConfig &Config, bool *Built) const {
  Key K{static_cast<int>(Config.Mode),
        Config.Mode == QueryConfig::Modulo ? Config.ModuloII : 0,
        Config.WordBits, Config.CyclesPerWordOverride};
  // Building under the lock keeps "once per key" exact; a build is
  // microseconds and concurrent first requests for one key are rare.
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Arenas.find(K);
  bool Inserted = It == Arenas.end();
  if (Inserted)
    It = Arenas.emplace(K, buildBitvectorPatternArena(MD, Config)).first;
  if (Built)
    *Built = Inserted;
  return It->second;
}
