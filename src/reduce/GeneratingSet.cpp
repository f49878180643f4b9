//===- reduce/GeneratingSet.cpp -------------------------------------------===//

#include "reduce/GeneratingSet.h"

#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <unordered_map>

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

/// Per-resource verdict of one elementary pair, computed read-only
/// against the pre-fold resource state.
enum class PairVerdict : uint8_t { Fully, Partial, Disjoint };

} // namespace

std::vector<SynthesizedResource>
rmd::buildGeneratingSet(const ForbiddenLatencyMatrix &FLM,
                        const GeneratingSetTrace *Trace, ThreadPool *Pool) {
  // Rule applications are tallied only in the sequential apply phase and
  // published once per pair, so the totals are identical at every thread
  // count (the scan phase is read-only and the apply order is fixed).
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
  std::vector<PairVerdict> Verdicts;

  for (const ElementaryPair &P : Pairs) {
    PairStat.add();
    if (Trace && Trace->OnPair)
      Trace->OnPair(P);
    uint32_t FirstId = Ids.id(P.First), SecondId = Ids.id(P.Second);
    for (size_t Word = 0; Word < W; ++Word)
      Both[Word] = Compat[FirstId * W + Word] & Compat[SecondId * W + Word];

    // Scan phase (parallel): the verdict of every resource that existed
    // when this pair's processing started. Verdicts depend only on the
    // compatibility rows and each resource's current usages — Rules 1/2
    // below never change another resource's verdict — so this phase reads
    // exactly what the sequential fold would read.
    size_t End = State.NumResources;
    Verdicts.resize(End);
    auto Scan = [&](size_t Begin, size_t BlockEnd) {
      for (size_t I = Begin; I < BlockEnd; ++I) {
        const uint64_t *R = State.bits(I);
        uint64_t Outside = 0, Inside = 0;
        for (size_t Word = 0; Word < W; ++Word) {
          Outside |= R[Word] & ~Both[Word];
          Inside |= R[Word] & Both[Word];
        }
        Verdicts[I] = Outside == 0  ? PairVerdict::Fully
                      : Inside != 0 ? PairVerdict::Partial
                                    : PairVerdict::Disjoint;
      }
    };
    // A verdict is a few word operations, so the pool handshake only pays
    // for itself on large sets; smaller ones run inline.
    if (Pool)
      Pool->parallelFor(0, End, Scan, /*MinPerBlock=*/2048);
    else
      Scan(0, End);

    // Apply phase (sequential, resource-index order — the same order the
    // sequential fold uses, so the folded set is bit-identical).
    bool PairTogether = false;
    uint64_t Rule1s = 0, Rule2s = 0, Discards = 0;
    for (size_t I = 0; I < End; ++I) {
      switch (Verdicts[I]) {
      case PairVerdict::Fully:
        // Rule 1: fully compatible; merge the pair into the resource.
        State.mergeUsage(static_cast<uint32_t>(I), FirstId);
        State.mergeUsage(static_cast<uint32_t>(I), SecondId);
        PairTogether = true;
        ++Rule1s;
        if (Trace && Trace->OnRule)
          Trace->OnRule(GeneratingRule::Rule1, I);
        break;
      case PairVerdict::Disjoint:
        // Rule 2 would spawn just the bare pair; discard.
        ++Discards;
        if (Trace && Trace->OnRule)
          Trace->OnRule(GeneratingRule::Rule2Discard, I);
        break;
      case PairVerdict::Partial: {
        // Rule 2: partially compatible; spawn pair + compatible subset.
        const uint64_t *R = State.bits(I);
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
        break;
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

std::vector<SynthesizedResource>
rmd::pruneGeneratingSet(std::vector<SynthesizedResource> Set,
                        ThreadPool * /*Pool*/) {
  // Compact ids: one per distinct usage of the set, then one per distinct
  // canonical latency some resource generates. LatencyOf caches the
  // latency id of each usage-id pair (a co-located pair always generates
  // the same canonical latency), so each pair is hashed at most once.
  size_t NumOps = 0;
  int MaxCycle = 0;
  for (const SynthesizedResource &R : Set)
    for (const SynthUsage &U : R.usages()) {
      NumOps = std::max<size_t>(NumOps, U.Op + 1);
      MaxCycle = std::max(MaxCycle, U.Cycle);
    }
  UsageIds Ids(NumOps, MaxCycle);
  std::vector<std::vector<uint32_t>> Members(Set.size());
  for (size_t I = 0; I < Set.size(); ++I)
    for (const SynthUsage &U : Set[I].usages())
      Members[I].push_back(Ids.intern(U));
  const size_t NumUsages = Ids.size();
  std::vector<int32_t> LatencyOf(NumUsages * NumUsages, -1);
  std::unordered_map<uint64_t, uint32_t> LatencyIds;
  auto newLatencyId = [&](uint32_t A, uint32_t B) {
    ForbiddenLatency L = generatedLatency(Ids.usage(A), Ids.usage(B));
    uint64_t Key = (uint64_t(L.After) << 42) | (uint64_t(L.Before) << 21) |
                   static_cast<uint64_t>(L.Latency);
    int32_t Id = static_cast<int32_t>(
        LatencyIds.emplace(Key, LatencyIds.size()).first->second);
    LatencyOf[A * NumUsages + B] = LatencyOf[B * NumUsages + A] = Id;
    return Id;
  };

  // Each resource's generated latency set (its one self-latency per usage
  // plus one latency per usage pair) as a bitset over the latency ids.
  // Scratch is sized for every id the resource could add.
  std::vector<std::vector<uint64_t>> Generated(Set.size());
  std::vector<uint64_t> Scratch;
  for (size_t I = 0; I < Set.size(); ++I) {
    const std::vector<uint32_t> &U = Members[I];
    Scratch.assign(
        wordsFor(LatencyIds.size() + U.size() * (U.size() + 1) / 2), 0);
    for (size_t A = 0; A < U.size(); ++A) {
      const int32_t *Row = &LatencyOf[U[A] * NumUsages];
      for (size_t B = A; B < U.size(); ++B) {
        int32_t Id = Row[U[B]];
        if (Id < 0)
          Id = newLatencyId(U[A], U[B]);
        setBit(Scratch.data(), static_cast<uint32_t>(Id));
      }
    }
    Generated[I].assign(Scratch.begin(),
                        Scratch.begin() + wordsFor(LatencyIds.size()));
  }
  const size_t W = wordsFor(LatencyIds.size());
  std::vector<uint64_t> Bits(Set.size() * W, 0);
  std::vector<size_t> Count(Set.size());
  for (size_t I = 0; I < Set.size(); ++I) {
    std::copy(Generated[I].begin(), Generated[I].end(), &Bits[I * W]);
    for (uint64_t Word : Generated[I])
      Count[I] += std::popcount(Word);
  }
  auto bits = [&](size_t I) { return &Bits[I * W]; };

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
    if (std::any_of(Kept.begin(), Kept.end(), [&](size_t K) {
          return isSubset(bits(I), bits(K), W);
        }))
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
