//===- reduce/GeneratingSet.cpp -------------------------------------------===//

#include "reduce/GeneratingSet.h"

#include "support/Stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

using namespace rmd;

std::vector<ElementaryPair>
rmd::enumerateElementaryPairs(const ForbiddenLatencyMatrix &FLM) {
  std::vector<ElementaryPair> Pairs;
  size_t NumOps = FLM.numOperations();
  // The paper's order (Figure 3): scan F(X, Y) row by row. A latency
  // f >= 0 in F(X, Y) yields the pair {(X, 0), (Y, f)}: X using a resource
  // at relative cycle 0 and Y at relative cycle f collide exactly when X
  // issues f cycles after Y. Mirrored (negative) latencies are skipped:
  // they are redundant with the positive entry of the transposed cell. A
  // zero latency between distinct operations appears in both F(X, Y) and
  // F(Y, X); keep only the X < Y instance. Zero self-latencies are handled
  // by Rule 4.
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y)
      for (int F : FLM.get(X, Y)) {
        if (F < 0)
          continue;
        if (F == 0 && (X == Y || X > Y))
          continue;
        Pairs.push_back(
            ElementaryPair{SynthUsage{X, 0}, SynthUsage{Y, F}});
      }
  return Pairs;
}

namespace {

/// Words of a bitset over \p NumIds compact ids.
size_t wordsFor(size_t NumIds) { return (NumIds + 63) / 64; }

void setBit(uint64_t *Words, uint32_t Id) {
  Words[Id / 64] |= uint64_t(1) << (Id % 64);
}

/// True if every bit of \p A is set in \p B (both \p W words).
bool isSubset(const uint64_t *A, const uint64_t *B, size_t W) {
  for (size_t I = 0; I < W; ++I)
    if ((A[I] & ~B[I]) != 0)
      return false;
  return true;
}

/// Dense ids for a set of usages with nonnegative cycles, in the order
/// they are first interned. The lookup table spans op x cycle, but the
/// bitsets built on these ids only span the usages actually interned.
class UsageIds {
public:
  UsageIds(size_t NumOps, int MaxCycle)
      : Stride(static_cast<size_t>(MaxCycle) + 1), Table(NumOps * Stride, -1) {
  }

  uint32_t intern(const SynthUsage &U) {
    int32_t &Slot = Table[slot(U)];
    if (Slot < 0) {
      Slot = static_cast<int32_t>(Usages.size());
      Usages.push_back(U);
    }
    return static_cast<uint32_t>(Slot);
  }

  /// The id of an interned usage.
  uint32_t id(const SynthUsage &U) const {
    assert(Table[slot(U)] >= 0 && "usage was never interned");
    return static_cast<uint32_t>(Table[slot(U)]);
  }

  const SynthUsage &usage(uint32_t Id) const { return Usages[Id]; }
  size_t size() const { return Usages.size(); }

private:
  size_t slot(const SynthUsage &U) const {
    assert(U.Cycle >= 0 && static_cast<size_t>(U.Cycle) < Stride &&
           "usage cycle outside the interned range");
    return U.Op * Stride + static_cast<size_t>(U.Cycle);
  }

  size_t Stride;
  std::vector<int32_t> Table;
  std::vector<SynthUsage> Usages;
};

/// The mutable fold state: each resource's usage bitset over the compact
/// usage ids (W words per resource, row-major) and an inverted index from
/// usage id to the resources containing it. The bitsets are the whole
/// resource: the usage vectors are built once, by materialize(). Resources
/// only ever grow (Rule 1 adds usages, nothing removes them), so posting
/// lists never go stale.
struct FoldState {
  size_t W;
  size_t NumResources = 0;
  std::vector<uint64_t> Bits;
  std::vector<std::vector<uint32_t>> Postings;

  explicit FoldState(size_t NumIds) : W(wordsFor(NumIds)), Postings(NumIds) {}

  const uint64_t *bits(size_t I) const { return &Bits[I * W]; }

  /// True if the usage bitset \p Usages is a subset of some current
  /// resource. Discarding subsets is safe: Theorem 1's reconstruction
  /// argument only needs *some* resource containing the accumulated
  /// usages, and a superset keeps accumulating whatever the subset would
  /// have. Exact duplicates are subsets too, so this one test also
  /// deduplicates. A superset must contain every usage, so only the
  /// resources on the candidate's shortest posting list are tested.
  bool subsumed(const uint64_t *Usages) const {
    const std::vector<uint32_t> *Shortest = nullptr;
    for (size_t Word = 0; Word < W; ++Word)
      for (uint64_t M = Usages[Word]; M != 0; M &= M - 1) {
        const std::vector<uint32_t> &P =
            Postings[Word * 64 + std::countr_zero(M)];
        if (P.empty())
          return false; // nothing contains this usage at all
        if (!Shortest || P.size() < Shortest->size())
          Shortest = &P;
      }
    assert(Shortest && "a candidate resource is never empty");
    for (uint32_t I : *Shortest)
      if (isSubset(Usages, bits(I), W))
        return true;
    return false;
  }

  /// Adds the resource whose usage bitset is \p Usages unless it is
  /// subsumed; returns the new index or -1.
  int addResource(const uint64_t *Usages) {
    if (subsumed(Usages))
      return -1;
    uint32_t Index = static_cast<uint32_t>(NumResources++);
    for (size_t Word = 0; Word < W; ++Word)
      for (uint64_t M = Usages[Word]; M != 0; M &= M - 1)
        Postings[Word * 64 + std::countr_zero(M)].push_back(Index);
    Bits.insert(Bits.end(), Usages, Usages + W);
    return static_cast<int>(Index);
  }

  /// Rule 1: merges usage \p Id into resource \p I, keeping the postings
  /// current.
  void mergeUsage(uint32_t I, uint32_t Id) {
    uint64_t &Word = Bits[I * W + Id / 64];
    uint64_t Mask = uint64_t(1) << (Id % 64);
    if (Word & Mask)
      return;
    Word |= Mask;
    Postings[Id].push_back(I);
  }

  /// The resources as usage vectors. Every resource holds a usage at cycle
  /// 0 (a pair's first usage or a Rule 4 singleton) and pair usages have
  /// nonnegative cycles, so the constructor's sort is the only
  /// normalization it applies: no resource is re-translated.
  std::vector<SynthesizedResource> materialize(const UsageIds &Ids) const {
    std::vector<SynthesizedResource> Set;
    Set.reserve(NumResources);
    std::vector<SynthUsage> Members;
    for (size_t I = 0; I < NumResources; ++I) {
      Members.clear();
      const uint64_t *R = bits(I);
      for (size_t Word = 0; Word < W; ++Word)
        for (uint64_t M = R[Word]; M != 0; M &= M - 1)
          Members.push_back(Ids.usage(
              static_cast<uint32_t>(Word * 64 + std::countr_zero(M))));
      Set.emplace_back(Members);
    }
    return Set;
  }
};

} // namespace

std::vector<SynthesizedResource>
rmd::buildGeneratingSet(const ForbiddenLatencyMatrix &FLM,
                        const GeneratingSetTrace *Trace,
                        ThreadPool * /*Pool*/) {
  // Rule applications are tallied per pair and published once per pair.
  static StatCounter PairStat("reduce.pairs");
  static StatCounter Rule1Stat("reduce.rule1");
  static StatCounter Rule2Stat("reduce.rule2");
  static StatCounter Rule2DiscardStat("reduce.rule2_discard");
  static StatCounter Rule3Stat("reduce.rule3");
  static StatCounter Rule4Stat("reduce.rule4");

  const size_t NumOps = FLM.numOperations();
  std::vector<ElementaryPair> Pairs = enumerateElementaryPairs(FLM);

  // Every usage a resource can ever hold is a pair usage or a Rule 4
  // singleton: the rules only add pair usages or copy existing ones. Give
  // each a compact id, pair usages in first-appearance order.
  std::vector<uint8_t> PairedOps(NumOps, 0);
  UsageIds Ids(NumOps, FLM.maxAbsoluteLatency());
  for (const ElementaryPair &P : Pairs) {
    Ids.intern(P.First);
    Ids.intern(P.Second);
    PairedOps[P.First.Op] = 1;
    PairedOps[P.Second.Op] = 1;
  }
  std::vector<OpId> Rule4Ops;
  for (OpId Op = 0; Op < NumOps; ++Op)
    if (!PairedOps[Op] && FLM.isForbidden(Op, Op, 0)) {
      Ids.intern(SynthUsage{Op, 0});
      Rule4Ops.push_back(Op);
    }

  FoldState State(Ids.size());
  const size_t W = State.W;

  // Row J of Compat: the usages that are compatible with usage J (sharing
  // a resource with it forbids only a latency of the matrix). A pair's
  // "compatible with both usages" set is the AND of two rows.
  std::vector<uint64_t> Compat(Ids.size() * W, 0);
  for (uint32_t J = 0; J < Ids.size(); ++J)
    for (uint32_t I = 0; I < Ids.size(); ++I)
      if (usagesCompatible(FLM, Ids.usage(I), Ids.usage(J)))
        setBit(&Compat[J * W], I);

  std::vector<uint64_t> Both(W), Candidate(W);

  for (const ElementaryPair &P : Pairs) {
    PairStat.add();
    if (Trace && Trace->OnPair)
      Trace->OnPair(P);
    uint32_t FirstId = Ids.id(P.First), SecondId = Ids.id(P.Second);
    for (size_t Word = 0; Word < W; ++Word)
      Both[Word] = Compat[FirstId * W + Word] & Compat[SecondId * W + Word];

    // Judge every resource that existed when this pair's processing
    // started, in index order. Rule 1 changes only the resource being
    // judged and Rule 2 appends past End, so each verdict reads the
    // resource exactly as it was before the pair.
    size_t End = State.NumResources;
    bool PairTogether = false;
    uint64_t Rule1s = 0, Rule2s = 0, Discards = 0;
    for (size_t I = 0; I < End; ++I) {
      const uint64_t *R = State.bits(I);
      uint64_t Outside = 0, Inside = 0;
      for (size_t Word = 0; Word < W; ++Word) {
        Outside |= R[Word] & ~Both[Word];
        Inside |= R[Word] & Both[Word];
      }
      if (Outside == 0) {
        // Rule 1: fully compatible; merge the pair into the resource.
        State.mergeUsage(static_cast<uint32_t>(I), FirstId);
        State.mergeUsage(static_cast<uint32_t>(I), SecondId);
        PairTogether = true;
        ++Rule1s;
        if (Trace && Trace->OnRule)
          Trace->OnRule(GeneratingRule::Rule1, I);
      } else if (Inside == 0) {
        // Rule 2 would spawn just the bare pair; discard.
        ++Discards;
        if (Trace && Trace->OnRule)
          Trace->OnRule(GeneratingRule::Rule2Discard, I);
      } else {
        // Rule 2: partially compatible; spawn pair + compatible subset.
        for (size_t Word = 0; Word < W; ++Word)
          Candidate[Word] = R[Word] & Both[Word];
        setBit(Candidate.data(), FirstId);
        setBit(Candidate.data(), SecondId);
        int NewIndex = State.addResource(Candidate.data());
        PairTogether = true; // together in the new or a subsuming resource
        if (NewIndex >= 0) {
          ++Rule2s;
          if (Trace && Trace->OnRule)
            Trace->OnRule(GeneratingRule::Rule2,
                          static_cast<size_t>(NewIndex));
        }
      }
    }
    Rule1Stat.add(Rule1s);
    Rule2Stat.add(Rule2s);
    Rule2DiscardStat.add(Discards);

    if (PairTogether)
      continue;

    // Rule 3: the pair's usages co-reside nowhere; add the pair itself.
    std::fill(Candidate.begin(), Candidate.end(), 0);
    setBit(Candidate.data(), FirstId);
    setBit(Candidate.data(), SecondId);
    int NewIndex = State.addResource(Candidate.data());
    if (NewIndex >= 0) {
      Rule3Stat.add();
      if (Trace && Trace->OnRule)
        Trace->OnRule(GeneratingRule::Rule3, static_cast<size_t>(NewIndex));
    }
  }

  // Rule 4: operations whose only forbidden latency is the 0 self-latency
  // appear in no elementary pair; they still need one single-usage resource.
  for (OpId Op : Rule4Ops) {
    std::fill(Candidate.begin(), Candidate.end(), 0);
    setBit(Candidate.data(), Ids.id(SynthUsage{Op, 0}));
    int NewIndex = State.addResource(Candidate.data());
    if (NewIndex >= 0) {
      Rule4Stat.add();
      if (Trace && Trace->OnRule)
        Trace->OnRule(GeneratingRule::Rule4, static_cast<size_t>(NewIndex));
    }
  }

  return State.materialize(Ids);
}

namespace {

/// Dense ids for canonical latencies (After, Before, Latency), in the
/// order they are first interned. CellOf holds, per operation pair, the
/// cell F(After, Before): nothing yet, one latency and its id inline (most
/// cells of a wide machine hold one), or a run of id slots, one per
/// latency in a range [Lo, Lo + Len) covering those seen, stored after a
/// slot holding Len. A latency outside a cell's range moves its run to the
/// end of the slots, at least doubled. So memory is two words per
/// operation pair plus, per cell holding several latencies, a run no
/// longer than twice their range; never a span of latencies per pair.
class LatencyIds {
public:
  explicit LatencyIds(size_t NumOps)
      : NumOps(NumOps), CellOf(NumOps * NumOps, Cell{0, Empty}) {}

  uint32_t intern(OpId After, OpId Before, int Latency) {
    Cell &C = CellOf[After * NumOps + Before];
    if (C.Ref & Inline) {
      if (Latency == C.Lo)
        return C.Ref & ~Inline;
    } else if (C.Ref != Empty) {
      // Below Lo the index wraps, so one compare checks both ends.
      uint32_t Index = static_cast<uint32_t>(Latency - C.Lo);
      if (Index < Slots[C.Ref - 1]) {
        uint32_t &Id = Slots[C.Ref + Index];
        if (Id == None)
          Id = NumIds++;
        return Id;
      }
    }
    return add(C, Latency);
  }

  size_t size() const { return NumIds; }

private:
  /// An id slot no latency has claimed.
  static constexpr uint32_t None = ~uint32_t(0);
  /// A cell with no latency. Runs start past the length slot, so at 1 or
  /// more.
  static constexpr uint32_t Empty = 0;
  static constexpr uint32_t Inline = uint32_t(1) << 31;

  struct Cell {
    /// The inline latency, or the latency of the run's first slot.
    int Lo;
    /// Empty, Inline | the inline latency's id, or the run's first slot.
    uint32_t Ref;
  };

  /// Gives \p Latency, which \p C does not hold, a new id.
  uint32_t add(Cell &C, int Latency) {
    assert(NumIds < Inline && "too many latency ids");
    uint32_t Id = NumIds++;
    if (C.Ref == Empty) {
      C = Cell{Latency, Inline | Id};
      return Id;
    }
    // Move or widen into a run covering the cell's latencies and Latency.
    int OldLo = C.Lo, OldLen = 1;
    if (!(C.Ref & Inline))
      OldLen = static_cast<int>(Slots[C.Ref - 1]);
    int Lo = std::min(OldLo, Latency);
    int Len = std::max(std::max(OldLo + OldLen, Latency + 1) - Lo, 2 * OldLen);
    size_t Run = Slots.size() + 1;
    Slots.resize(Run + static_cast<size_t>(Len), None);
    Slots[Run - 1] = static_cast<uint32_t>(Len);
    if (C.Ref & Inline)
      Slots[Run + static_cast<size_t>(OldLo - Lo)] = C.Ref & ~Inline;
    else
      std::copy_n(Slots.begin() + C.Ref, OldLen,
                  Slots.begin() + Run + (OldLo - Lo));
    Slots[Run + static_cast<size_t>(Latency - Lo)] = Id;
    C = Cell{Lo, static_cast<uint32_t>(Run)};
    return Id;
  }

  size_t NumOps;
  std::vector<Cell> CellOf;
  std::vector<uint32_t> Slots;
  uint32_t NumIds = 0;
};

/// The canonical latencies one resource generates, cell by cell. Usages
/// (X, c) and (Y, c + f) with f >= 0 generate (X, Y, f), except that a
/// zero latency between distinct operations belongs to cell (min, max). So
/// with Cycles[X] the mask of cycles at which X holds a usage, the
/// latencies of cell (X, Y) are the set bits of
///   OR over c in Cycles[X] of (Cycles[Y] >> c),
/// less bit 0 when X > Y. That is (ops) x (usages) shifted masks per
/// resource, where listing the usage pairs takes usages^2 / 2 steps, and
/// each latency comes out once.
class ResourceLatencies {
public:
  ResourceLatencies(size_t NumOps, int MaxCycle)
      : Words(wordsFor(static_cast<size_t>(MaxCycle) + 1)),
        LocalOf(NumOps, Unused) {}

  /// Calls Visit(After, Before, Latency) once for each canonical latency
  /// \p R generates.
  template <typename VisitFn>
  void forEach(const SynthesizedResource &R, VisitFn &&Visit) {
    // Operations in the order of their first usage (by cycle, then op),
    // with their first and last cycles.
    Ops.clear();
    First.clear();
    Last.clear();
    for (const SynthUsage &U : R.usages()) {
      uint32_t &Local = LocalOf[U.Op];
      if (Local == Unused) {
        Local = static_cast<uint32_t>(Ops.size());
        Ops.push_back(U.Op);
        First.push_back(U.Cycle);
        Last.push_back(U.Cycle);
      }
      Last[Local] = U.Cycle;
    }
    // Word-major masks: word W of operation Y's cycles is Cycles[W * N +
    // Y], so each step below is one pass over contiguous words. The N
    // words after the last mask word are zero, so a shift reads the word
    // above without a bounds test.
    const size_t N = Ops.size();
    Cycles.assign((Words + 1) * N, 0);
    for (const SynthUsage &U : R.usages())
      Cycles[static_cast<size_t>(U.Cycle) / 64 * N + LocalOf[U.Op]] |=
          uint64_t(1) << (U.Cycle % 64);

    Row.resize(Words * N);
    // Reach: the last cycle of the operations before X that use more than
    // one cycle. A cell (X, Y) with Y before X can hold a latency only if
    // Y uses a cycle at or after X's first: an operation with a single
    // cycle c <= First[X] gives only latencies <= 0, and latency 0 only
    // when c == First[X], where Y precedes X by operation id and the zero
    // belongs to F(Y, X). So with Reach < First[X] the cells before X are
    // all empty and are skipped.
    int Reach = -1;
    for (size_t X = 0; X < N; ++X) {
      // Row = cell (X, Y) for every Y at once, word-major too. It depends
      // only on X's cycles, so an operation with the same cycles as the
      // previous one reuses it: half the operations on cydra5 and over 90%
      // on the larger ScaledVliw configs, whose prune is ~20% slower
      // without the reuse (docs/architecture.md, "Prune."). A
      // shift by c is c / 64 whole words and a bit shift Bits < 64; the
      // word above comes in as (Hi << 1) << (63 - Bits), which is 0 when
      // Bits is 0, so no word is shifted by 64 or more.
      bool SameCycles = X > 0;
      for (size_t Word = 0; Word < Words && SameCycles; ++Word)
        SameCycles = Cycles[Word * N + X] == Cycles[Word * N + X - 1];
      if (!SameCycles) {
        std::fill(Row.begin(), Row.end(), 0);
        for (size_t Skip = 0; Skip < Words; ++Skip)
          for (uint64_t M = Cycles[Skip * N + X]; M != 0; M &= M - 1) {
            int Bits = std::countr_zero(M);
            for (size_t K = 0; K + Skip < Words; ++K) {
              const uint64_t *Lo = &Cycles[(K + Skip) * N], *Hi = Lo + N;
              uint64_t *Dst = &Row[K * N];
              for (size_t Y = 0; Y < N; ++Y)
                Dst[Y] |= (Lo[Y] >> Bits) | ((Hi[Y] << 1) << (63 - Bits));
            }
          }
      }
      for (size_t Y = Reach < First[X] ? X : 0; Y < N; ++Y) {
        uint64_t Keep = Ops[X] > Ops[Y] ? ~uint64_t(1) : ~uint64_t(0);
        for (size_t Word = 0; Word < Words; ++Word, Keep = ~uint64_t(0))
          for (uint64_t M = Row[Word * N + Y] & Keep; M != 0; M &= M - 1)
            Visit(Ops[X], Ops[Y],
                  static_cast<int>(Word * 64) + std::countr_zero(M));
      }
      if (First[X] != Last[X])
        Reach = std::max(Reach, Last[X]);
    }
    for (OpId Op : Ops)
      LocalOf[Op] = Unused;
  }

private:
  static constexpr uint32_t Unused = ~uint32_t(0);

  const size_t Words;            ///< words of a cycle mask
  std::vector<uint32_t> LocalOf; ///< operation -> index in Ops, or Unused
  std::vector<OpId> Ops;         ///< operations of the current resource
  std::vector<int> First, Last;  ///< their first and last cycles
  std::vector<uint64_t> Cycles;  ///< their cycle masks, word-major
  std::vector<uint64_t> Row;     ///< cells (X, Y) of one X, word-major
};

} // namespace

std::vector<SynthesizedResource>
rmd::pruneGeneratingSet(std::vector<SynthesizedResource> Set,
                        ThreadPool * /*Pool*/) {
  size_t NumOps = 0;
  int MaxCycle = 0;
  for (const SynthesizedResource &R : Set)
    for (const SynthUsage &U : R.usages()) {
      NumOps = std::max<size_t>(NumOps, U.Op + 1);
      MaxCycle = std::max(MaxCycle, U.Cycle);
    }
  ResourceLatencies Latencies(NumOps, MaxCycle);
  LatencyIds Ids(NumOps);

  // Each resource's generated latency set (its one self-latency per usage
  // plus one latency per usage pair) as a bitset over the ids. A set is
  // as wide as the ids assigned up to and including its resource, so later
  // sets may be wider; a word past a set's end is zero. Each latency is
  // visited once per resource, so each bit is set once and counted.
  std::vector<std::vector<uint64_t>> Generated(Set.size());
  std::vector<size_t> Count(Set.size());
  std::vector<uint64_t> Scratch;
  for (size_t I = 0; I < Set.size(); ++I) {
    size_t Size = 0;
    Latencies.forEach(Set[I], [&](OpId After, OpId Before, int Latency) {
      uint32_t Id = Ids.intern(After, Before, Latency);
      if (Id / 64 >= Scratch.size())
        Scratch.resize(Id / 64 + 1, 0);
      setBit(Scratch.data(), Id);
      ++Size;
    });
    Count[I] = Size;
    Generated[I].assign(Scratch.begin(), Scratch.end());
    std::fill(Scratch.begin(), Scratch.end(), 0);
  }
  // True if set A is a subset of set B (A & ~B is empty, B zero-extended).
  auto covers = [&](size_t B, size_t A) {
    const std::vector<uint64_t> &SA = Generated[A], &SB = Generated[B];
    size_t Common = std::min(SA.size(), SB.size());
    return isSubset(SA.data(), SB.data(), Common) &&
           std::all_of(SA.begin() + Common, SA.end(),
                       [](uint64_t Word) { return Word == 0; });
  };

  // Judge resources largest generated set first, ties by descending
  // index, and drop each one covered by a resource already kept. This
  // removes exactly what the order-free rule removes (I goes iff some J
  // generates a strict superset, or the identical set at a larger index):
  // every such J comes before I, and a J that was itself dropped is
  // covered by an earlier survivor K, so K covers I too. Conversely a
  // survivor covering I either is strictly larger or, being equal in
  // size, is the identical set at a larger index.
  std::vector<size_t> Order(Set.size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Count[A] != Count[B] ? Count[A] > Count[B] : A > B;
  });

  std::vector<uint8_t> Removed(Set.size(), 0);
  std::vector<size_t> Kept;
  for (size_t I : Order) {
    if (std::any_of(Kept.begin(), Kept.end(),
                    [&](size_t K) { return covers(K, I); }))
      Removed[I] = 1;
    else
      Kept.push_back(I);
  }

  static StatCounter KeptStat("prune.kept");
  static StatCounter DroppedStat("prune.dropped");
  std::vector<SynthesizedResource> Pruned;
  for (size_t I = 0; I < Set.size(); ++I)
    if (!Removed[I])
      Pruned.push_back(std::move(Set[I]));
  KeptStat.add(Pruned.size());
  DroppedStat.add(Set.size() - Pruned.size());
  return Pruned;
}
