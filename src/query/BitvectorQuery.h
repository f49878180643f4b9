//===- query/BitvectorQuery.h - Packed bitvector reserved table -*- C++ -*-===//
///
/// \file
/// The bitvector representation of Section 5/7: the reserved flags of each
/// schedule cycle form a bitvector of NumResources bits, and k = WordBits /
/// NumResources consecutive cycle-bitvectors are packed into one machine
/// word. A contention check ANDs each nonempty word of the (pre-shifted)
/// reservation table against the reserved table: contentions for k
/// consecutive cycles are detected by one word operation, so one *work
/// unit* is one word handled.
///
/// Data layout: every (op, phase) pattern lives in an immutable,
/// cache-aligned arena (query/PatternArena.h) as a *dense span* — DenseLen
/// consecutive mask words covering schedule words [FirstWord, FirstWord +
/// DenseLen), interior words with no usage holding a zero mask. The hot
/// loops are therefore straight-line masked-AND reductions over two
/// contiguous arrays (reserved-table words and arena masks), vectorized via
/// query/SimdOps.h. Work accounting is unchanged from the word-at-a-time
/// formulation: a parallel prefix-count array recovers "nonempty words
/// scanned up to the first conflict" exactly, and zero-mask filler words
/// are never billed. The arena is built once per (machine, addressing
/// config) and may be shared read-only by any number of modules — the
/// contention server hands every session over the same machine one arena.
/// Union patterns (check-with-alternatives fast path) are cached in
/// module-local pools so a shared arena is never written. Modulo
/// wrap-around is folded into the patterns at build time, so no per-word
/// wrap handling survives in the query loops.
///
/// assign&free uses the paper's optimistic strategy: while no conflict has
/// been seen, no per-resource owner fields are maintained and all functions
/// run word-at-a-time (optimistic mode). The first conflicting placement
/// pays a transition that rebuilds owner fields by scanning the scheduled
/// instances; thereafter (update mode) assign&free iterates over resource
/// usages to keep the fields current, as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_QUERY_BITVECTORQUERY_H
#define RMD_QUERY_BITVECTORQUERY_H

#include "query/InstanceTable.h"
#include "query/PatternArena.h"
#include "query/QueryModule.h"
#include "query/SimdOps.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>

namespace rmd {

/// Bitvector-representation contention query module. Final so direct calls
/// through a concrete object (the bench harnesses, ShadowQueryModule's
/// inner pair) devirtualize.
class BitvectorQueryModule final : public ContentionQueryModule {
public:
  /// \p MD must be expanded with numResources() <= Config.WordBits. The
  /// module keeps a reference to \p MD; it must outlive the module. Builds
  /// a private pattern arena.
  BitvectorQueryModule(const MachineDescription &MD, QueryConfig Config);

  /// As above, but adopting \p SharedArena instead of building one —
  /// \p SharedArena must satisfy compatibleWith(MD, Config). The arena is
  /// only ever read, so one arena may back any number of concurrently
  /// queried modules (one per server session, for instance).
  BitvectorQueryModule(const MachineDescription &MD, QueryConfig Config,
                       std::shared_ptr<const BitvectorPatternArena> SharedArena);

  // check/assign/free are defined inline below the class (with
  // always_inline: GCC otherwise leaves the bodies out of line even at
  // devirtualized call sites). The bench harnesses and the scheduler's
  // inner loop call them on a concrete module millions of times; inlining
  // lets those loops keep the module's pools and config in registers
  // instead of re-loading ~10 members through `this` per query. Virtual
  // dispatch through a base pointer still works: the vtable references the
  // out-of-line copy.
  bool check(OpId Op, int Cycle) override;
  void assign(OpId Op, int Cycle, InstanceId Instance) override;
  void free(OpId Op, int Cycle, InstanceId Instance) override;
  void assignAndFree(OpId Op, int Cycle, InstanceId Instance,
                     std::vector<InstanceId> &Evicted) override;
  void reset() override;

  /// Union-mask fast path for alternatives: if the OR of all alternatives'
  /// reservation words is contention-free, every alternative fits and the
  /// first one is returned after testing only the union's words; otherwise
  /// falls back to per-alternative checks. Semantically identical to the
  /// base implementation.
  ///
  /// Accounting: a successful union pass is exactly one check call whose
  /// units are the union words scanned. On conflict only the fallback's
  /// per-alternative calls are billed (never 1+N calls for one query); the
  /// speculative union words still count as CheckUnits.
  int checkWithAlternatives(const std::vector<OpId> &Alternatives,
                            int Cycle) override;

  /// The base class's window scan with this module's own bodies: the
  /// inlined check() loop, or this checkWithAlternatives() per cycle when
  /// the union path applies.
  int firstFreeSlot(const std::vector<OpId> &Alternatives, int From,
                    int Count, int &Alt) override;

  /// Cycle-bitvectors packed per word (the paper's k).
  unsigned cyclesPerWordUsed() const { return K; }

  /// True once the optimistic-to-update transition has happened.
  bool inUpdateMode() const { return UpdateMode; }

  /// Bytes of reserved-table words currently allocated (memory metric;
  /// excludes owner fields, which exist only after a transition).
  size_t reservedTableBytes() const { return Words.size() * sizeof(uint64_t); }

  /// Bytes of the packed pattern arena (masks, prefix counts, and span
  /// table — the per-op arena, shared or not, plus this module's cached
  /// union patterns).
  size_t patternArenaBytes() const {
    return Arena->bytes() + UnionMasks.size() * sizeof(uint64_t) +
           UnionPrefix.size() * sizeof(uint16_t) +
           UnionRefs.size() * sizeof(PatternRef);
  }

  /// The immutable per-op pattern arena backing this module. Modules built
  /// through the two-argument constructor own a private arena; the server
  /// hands many modules one shared arena through the three-argument form.
  const std::shared_ptr<const BitvectorPatternArena> &arena() const {
    return Arena;
  }

private:
  using PatternRef = BitvectorPatternRef;
  static constexpr size_t UniformWords = BitvectorPatternArena::UniformWords;
  static constexpr size_t UniformNarrow = BitvectorPatternArena::UniformNarrow;

  const PatternRef &pattern(OpId Op, unsigned Phase) const {
    return Patterns[static_cast<size_t>(Op) * NumPhases + Phase];
  }

  void ensureWords(size_t WordCount) {
    if (WordCount > Words.size())
      growWords(WordCount);
  }
  void growWords(size_t WordCount);

  /// Splits a schedule cycle into (word base, phase).
  void locate(int Cycle, size_t &WordBase, unsigned &Phase) const {
    if (Config.Mode == QueryConfig::Modulo) {
      int Slot = Cycle % Config.ModuloII;
      if (Slot < 0)
        Slot += Config.ModuloII;
      WordBase = 0; // modulo patterns use absolute word indices
      Phase = static_cast<unsigned>(Slot);
      return;
    }
    assert(Cycle >= Config.MinCycle && "cycle below the linear window");
    size_t Rel = static_cast<size_t>(Cycle - Config.MinCycle);
    WordBase = divK(Rel);
    Phase = static_cast<unsigned>(Rel - WordBase * K);
  }

  /// Scans \p P's in-range dense words against the reserved table,
  /// billing \p Units exactly as the abort-on-first-conflict word loop
  /// did (out-of-range and zero-mask words conflict with nothing; scanned
  /// nonempty words are billed whether or not they conflict). Returns true
  /// on contention. \p PoolMasks/\p PoolPrefix are the pools \p P indexes
  /// into: the shared arena's for per-op patterns, the module-local union
  /// pools for union patterns.
  bool scanConflict(const PatternRef &P, size_t WordBase, uint64_t &Units,
                    const uint64_t *PoolMasks, const uint16_t *PoolPrefix) {
    // Words past the allocated table are empty and cannot conflict, but the
    // word-at-a-time loop still billed them; splitting the range keeps the
    // scan straight-line and the accounting identical.
    size_t Base = WordBase + static_cast<size_t>(P.FirstWord);
    if (P.DenseLen == 1) {
      // Single-word spans are branchless: the one word is nonempty by
      // construction, so the bill is one unit whether it conflicts or not
      // (PoolPrefix[MaskBegin] == Nonempty == 1), and the mask comes from
      // the ref itself instead of the arena.
      Units += 1;
      return Base < Words.size() && (Words[Base] & P.InlineMask) != 0;
    }
    size_t InRange = 0;
    if (P.DenseLen && Base < Words.size())
      InRange = std::min<size_t>(P.DenseLen, Words.size() - Base);
    if (InRange) {
      // restrict: the reserved table and the immutable arena never alias,
      // and nothing else (counters, refs) is reached through these two
      // pointers — so the compiler may keep counters in registers across
      // the word ops.
      const uint64_t *__restrict W = Words.data() + Base;
      const uint64_t *__restrict M = PoolMasks + P.MaskBegin;
      ptrdiff_t Conflict = simd::firstConflict(W, M, InRange);
      if (Conflict >= 0) {
        // Bill the nonempty words scanned up to and including the conflict
        // (zero-mask filler words never conflict and are never billed).
        Units += PoolPrefix[P.MaskBegin + static_cast<size_t>(Conflict)];
        return true;
      }
    }
    Units += P.Nonempty;
    return false;
  }

  /// Owner-field and instance-table maintenance for assign/free after the
  /// transition (update mode only — cold relative to the optimistic word
  /// loops).
  void updateOwnersOnAssign(OpId Op, int Cycle, InstanceId Instance);
  void updateOwnersOnFree(OpId Op, int Cycle, InstanceId Instance);

  /// Applies the pending instance log to the table (validating each entry)
  /// and clears it. Cold: runs at the update transition and when the log
  /// outgrows the live set.
  void flushLog();

  /// Cell-granular helpers for update mode. A cell is one (cycle slot,
  /// resource) entry; AbsCycle is issue cycle + usage cycle.
  size_t cycleSlot(int AbsCycle) const;
  size_t cellIndex(size_t Slot, ResourceId R) const {
    return Slot * NumResources + R;
  }
  void setBit(size_t Slot, ResourceId R);
  void clearBit(size_t Slot, ResourceId R);
  bool testBit(size_t Slot, ResourceId R) const;

  /// Rebuilds the owner fields from the scheduled-instance list (the
  /// optimistic-to-update transition); cost charged to TransitionUnits and
  /// AssignFreeUnits.
  void transitionToUpdateMode();

  /// Releases every reservation of \p Instance cell-by-cell (eviction).
  void evict(InstanceId Instance);

  const MachineDescription &MD;
  QueryConfig Config;
  size_t NumResources;

  /// The immutable per-op pattern arena (possibly shared with other
  /// modules; strictly read-only either way). The members below it mirror
  /// the arena fields the hot loops touch: raw pointers and POD copies keep
  /// every query one indirection from the data instead of two (module ->
  /// arena -> pool), which is what the pre-arena layout compiled to.
  std::shared_ptr<const BitvectorPatternArena> Arena;
  const PatternRef *Patterns = nullptr; // Op * NumPhases + Phase
  const uint64_t *Masks = nullptr;      // arena MaskPool
  const uint16_t *Prefix = nullptr;     // arena PrefixPool
  const uint64_t *Uniform = nullptr;    // arena UniformPool (row mirror)
  const uint8_t *SelfConflict = nullptr; // modulo mode only
  bool UniformRows = false;
  unsigned K = 1;
  unsigned NumPhases = 1;

  /// Reciprocal for the cycle→word split: ceil(2^38 / K). locate() and the
  /// cell helpers run on every query, and a runtime integer division by K
  /// costs ~20 cycles on its own — a multiply-shift is exact for any
  /// dividend below 2^32 (K <= 64, so the error term n*r/(K*2^38) with
  /// r < K stays under 1/K for all n < 2^38/64), and the hot paths never
  /// exceed 2^24 cycles anyway.
  uint64_t KReciprocal = 0;
  static constexpr unsigned KReciprocalShift =
      BitvectorPatternArena::KReciprocalShift;

  size_t divK(size_t N) const {
    if (N < (size_t(1) << 24))
      return (N * KReciprocal) >> KReciprocalShift;
    return N / K; // cold: cycle windows this deep never hit a bench
  }

  /// The reserved table: a flat span of packed words (linear mode grows it
  /// on demand; modulo mode sizes it to the II up front), cache-aligned so
  /// vector loads never split a line.
  simd::WordVector Words;

  bool UpdateMode = false;
  std::vector<InstanceId> Owner; // cellIndex -> instance (update mode only)

  /// Scheduled-instance bookkeeping. The hot optimistic paths only ever
  /// *record* assigns and frees — nothing reads the live set until the
  /// update transition — so they append to a log (two stores) instead of
  /// paying a hash insert/erase per call. The log replays into the table
  /// on flush, where the paired asserts validate the same invariants the
  /// eager updates did (an id is scheduled at most once and freed only
  /// while live). Frees are tagged in the op field's high bit (OpId is
  /// unsigned and op counts stay far below 2^31).
  struct LogEntry {
    InstanceId Id;
    OpId Op;
    int32_t Cycle;
  };
  static constexpr OpId LogFreeBit = OpId(1) << 31;
  std::vector<LogEntry> Log;
  size_t LiveCount = 0;
  InstanceTable Instances;

  /// Flush scratch (kept allocated between flushes). Schedulers hand out
  /// near-sequential instance ids, so a flush usually covers a dense id
  /// range: a direct-indexed state pass then cancels each assign/free pair
  /// with two array touches instead of a hash insert plus a backward-shift
  /// erase, and only net changes reach the table. FlushLast is valid only
  /// where the corresponding FlushState live bit was set this flush.
  std::vector<uint8_t> FlushState;
  std::vector<uint32_t> FlushLast;

  /// FNV-1a over an alternative group's op list. Groups are short (a
  /// handful of ids), so hashing one is a few multiplies — far cheaper
  /// than the O(log n) lexicographic vector comparisons an ordered map
  /// spends per lookup on the scheduler's hot union path.
  struct OpListHash {
    size_t operator()(const std::vector<OpId> &Ops) const {
      uint64_t H = 0xcbf29ce484222325ull;
      for (OpId Op : Ops) {
        H ^= Op;
        H *= 0x00000100000001b3ull;
      }
      return static_cast<size_t>(H);
    }
  };

  /// Cached union patterns per alternative group: the map yields an index
  /// into UnionRefs, which holds NumPhases consecutive spans. Union masks
  /// live in module-local pools (UnionMasks/UnionPrefix), never in the
  /// per-op arena — the arena may be shared across threads and is
  /// immutable by contract.
  std::unordered_map<std::vector<OpId>, uint32_t, OpListHash> UnionIndex;
  std::vector<PatternRef> UnionRefs;
  simd::WordVector UnionMasks;
  std::vector<uint16_t> UnionPrefix;

  /// The group's per-phase union spans (NumPhases entries), built and
  /// cached in the module-local union pools on first use.
  const PatternRef *unionPatternsFor(const std::vector<OpId> &Alternatives);

  /// The paper's check-with-alt: check() on each alternative in turn.
  int firstFreeAlternative(const std::vector<OpId> &Alternatives, int Cycle) {
    for (size_t I = 0; I < Alternatives.size(); ++I)
      if (check(Alternatives[I], Cycle))
        return static_cast<int>(I);
    return -1;
  }
};

__attribute__((always_inline)) inline bool
BitvectorQueryModule::check(OpId Op, int Cycle) {
  ++Counters.CheckCalls;
  if (Config.Mode == QueryConfig::Modulo && SelfConflict[Op]) {
    // A self-conflicting table can never be placed at this II; detecting
    // that is one unit of work, not zero (Table 6 counts the query).
    ++Counters.CheckUnits;
    return false;
  }
  size_t WordBase;
  unsigned Phase;
  locate(Cycle, WordBase, Phase);
  size_t Idx = static_cast<size_t>(Op) * NumPhases + Phase;
  const PatternRef &P = Patterns[Idx];
  size_t Base = WordBase + static_cast<size_t>(P.FirstWord);
  if (UniformRows && Base + UniformWords <= Words.size()) {
    // Fixed-width row: when rows are on, every span fits one (the builder
    // checked MaxLen), so there is no span-length class to predict — only
    // a cheap half-row/full-row width pick. A row is in play only when it
    // sits fully inside the table, so no clamping either; beyond-the-end
    // probes fall through to the general scan.
    const uint64_t *__restrict W = Words.data() + Base;
    const uint64_t *__restrict M = Uniform + Idx * UniformWords;
    uint64_t Hot = P.DenseLen <= UniformNarrow
                       ? simd::rowHot(W, M, UniformNarrow)
                       : simd::rowHot(W, M, UniformWords);
    if (!Hot) {
      Counters.CheckUnits += P.Nonempty;
      return true;
    }
    // Conflict: recover the first conflicting word for the
    // abort-on-first-conflict bill. Padded words are zero and can't be it.
    size_t I = 0;
    while (!(W[I] & M[I]))
      ++I;
    Counters.CheckUnits += Prefix[P.MaskBegin + I];
    return false;
  }
  return !scanConflict(P, WordBase, Counters.CheckUnits, Masks, Prefix);
}

__attribute__((always_inline)) inline void
BitvectorQueryModule::assign(OpId Op, int Cycle, InstanceId Instance) {
  ++Counters.AssignCalls;
  assert((Config.Mode != QueryConfig::Modulo || !SelfConflict[Op]) &&
         "assigning an operation that self-conflicts at this II");
  size_t WordBase;
  unsigned Phase;
  locate(Cycle, WordBase, Phase);
  size_t Idx = static_cast<size_t>(Op) * NumPhases + Phase;
  const PatternRef &P = Patterns[Idx];
  size_t Base = WordBase + static_cast<size_t>(P.FirstWord);
  if (UniformRows) {
    // Fixed-width row (see check); growing to the padded width keeps the
    // whole row addressable for the later check/free fast paths. The
    // precondition check (caller must have seen check() succeed) rides the
    // reserve kernel itself: rowOrCheck accumulates the pre-update overlaps
    // while storing, so the assert costs no second scan.
    ensureWords(Base + UniformWords);
    uint64_t *__restrict W = Words.data() + Base;
    const uint64_t *__restrict M = Uniform + Idx * UniformWords;
    [[maybe_unused]] uint64_t Clash =
        P.DenseLen <= UniformNarrow
            ? simd::rowOrCheck(W, M, UniformNarrow)
            : simd::rowOrCheck(W, M, UniformWords);
    assert(!Clash && "assign over reserved resources; use assignAndFree");
  } else if (P.DenseLen == 1) {
    // Single-word fast path: the mask rides in the ref (see PatternRef).
    ensureWords(Base + 1);
    uint64_t *__restrict W = Words.data() + Base;
    [[maybe_unused]] uint64_t Clash = *W & P.InlineMask;
    *W |= P.InlineMask;
    assert(!Clash && "assign over reserved resources; use assignAndFree");
  } else {
    ensureWords(Base + P.DenseLen);
    // As above, but over the packed variable-length span. restrict: see
    // scanConflict.
    uint64_t *__restrict W = Words.data() + Base;
    const uint64_t *__restrict M = Masks + P.MaskBegin;
    [[maybe_unused]] uint64_t Clash = simd::orIntoCheck(W, M, P.DenseLen);
    assert(!Clash && "assign over reserved resources; use assignAndFree");
  }
  Counters.AssignUnits += P.Nonempty;
  if (!UpdateMode) {
    Log.push_back({Instance, Op, Cycle});
    ++LiveCount;
  } else {
    // Owner fields are maintained only after a transition (update mode);
    // keeping them current is bookkeeping, not counted work.
    updateOwnersOnAssign(Op, Cycle, Instance);
  }
}

__attribute__((always_inline)) inline void
BitvectorQueryModule::free(OpId Op, int Cycle, InstanceId Instance) {
  ++Counters.FreeCalls;
  size_t WordBase;
  unsigned Phase;
  locate(Cycle, WordBase, Phase);
  size_t Idx = static_cast<size_t>(Op) * NumPhases + Phase;
  const PatternRef &P = Patterns[Idx];
  size_t Base = WordBase + static_cast<size_t>(P.FirstWord);
  if (UniformRows && Base + UniformWords <= Words.size()) {
    // Fixed-width row (see check); the matching assign grew the table to
    // the padded width, so a live reservation's row is always in bounds.
    uint64_t *__restrict W = Words.data() + Base;
    const uint64_t *__restrict M = Uniform + Idx * UniformWords;
    if (P.DenseLen <= UniformNarrow)
      simd::rowAndNot(W, M, UniformNarrow);
    else
      simd::rowAndNot(W, M, UniformWords);
  } else if (P.DenseLen == 1) {
    if (Base < Words.size())
      Words[Base] &= ~P.InlineMask;
  } else {
    size_t InRange = 0;
    if (P.DenseLen && Base < Words.size())
      InRange = std::min<size_t>(P.DenseLen, Words.size() - Base);
    if (InRange) {
      uint64_t *__restrict W = Words.data() + Base;
      const uint64_t *__restrict M = Masks + P.MaskBegin;
      simd::andNotInto(W, M, InRange);
    }
  }
  Counters.FreeUnits += P.Nonempty;
  if (!UpdateMode) {
    assert(LiveCount != 0 && "freeing with no live instances");
    Log.push_back({Instance, Op | LogFreeBit, Cycle});
    --LiveCount;
    // Frees leave dead pairs in the log; fold them into the table once they
    // dominate, so log memory stays bounded by the live set (plus a floor
    // high enough that short scheduling sessions never flush mid-flight —
    // a flush inside a hot loop costs more than the 1 MiB floor it saves).
    if (Log.size() >= 65536 && Log.size() > 4 * LiveCount)
      flushLog();
  } else {
    updateOwnersOnFree(Op, Cycle, Instance);
  }
}

} // namespace rmd

#endif // RMD_QUERY_BITVECTORQUERY_H
