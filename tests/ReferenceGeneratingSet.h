//===- tests/ReferenceGeneratingSet.h - Oracle fold and prune ---*- C++ -*-===//
//
// A plain, sequential formulation of Algorithm 1 and of the prune, kept as
// a differential oracle for the compact-id bitset implementation in
// reduce/GeneratingSet.cpp:
//   - the fold checks compatibility usage by usage against a dense
//     (op, op, latency) cube and re-sorts a resource on every merge;
//   - subsumption is std::includes over the sorted usage vectors of the
//     resources found through a usage -> resources posting index;
//   - the prune compares sorted generatedLatencies() vectors with
//     std::includes and ==.
// Same rules and pair order, so the outputs must match exactly.
//
//===----------------------------------------------------------------------===//

#ifndef RMD_TESTS_REFERENCEGENERATINGSET_H
#define RMD_TESTS_REFERENCEGENERATINGSET_H

#include "reduce/GeneratingSet.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

namespace rmd::reference {

/// O(1) forbidden-latency membership over a dense (op, op, latency) cube.
class DenseForbidden {
public:
  explicit DenseForbidden(const ForbiddenLatencyMatrix &FLM)
      : NumOps(FLM.numOperations()), MaxLat(FLM.maxAbsoluteLatency()),
        Width(2 * static_cast<size_t>(MaxLat) + 1),
        Table(NumOps * NumOps * Width, 0) {
    for (OpId X = 0; X < NumOps; ++X)
      for (OpId Y = 0; Y < NumOps; ++Y)
        for (int F : FLM.get(X, Y))
          Table[(X * NumOps + Y) * Width + static_cast<size_t>(F + MaxLat)] =
              1;
  }

  bool compatible(const SynthUsage &A, const SynthUsage &B) const {
    int F = B.Cycle - A.Cycle;
    if (F < -MaxLat || F > MaxLat)
      return false;
    return Table[(A.Op * NumOps + B.Op) * Width +
                 static_cast<size_t>(F + MaxLat)] != 0;
  }

private:
  size_t NumOps;
  int MaxLat;
  size_t Width;
  std::vector<uint8_t> Table;
};

/// Algorithm 1, one usage at a time.
inline std::vector<SynthesizedResource>
buildGeneratingSet(const ForbiddenLatencyMatrix &FLM) {
  DenseForbidden Dense(FLM);
  std::vector<SynthesizedResource> Set;
  std::unordered_map<uint64_t, std::vector<size_t>> Postings;
  auto key = [](const SynthUsage &U) {
    return (static_cast<uint64_t>(U.Op) << 32) |
           static_cast<uint32_t>(U.Cycle);
  };
  auto subsumed = [&](const std::vector<SynthUsage> &Usages) {
    const std::vector<size_t> *Shortest = nullptr;
    for (const SynthUsage &U : Usages) {
      auto It = Postings.find(key(U));
      if (It == Postings.end())
        return false;
      if (!Shortest || It->second.size() < Shortest->size())
        Shortest = &It->second;
    }
    for (size_t I : *Shortest)
      if (std::includes(Set[I].usages().begin(), Set[I].usages().end(),
                        Usages.begin(), Usages.end()))
        return true;
    return false;
  };
  auto addResource = [&](std::vector<SynthUsage> Usages) {
    SynthesizedResource R(std::move(Usages));
    if (subsumed(R.usages()))
      return;
    for (const SynthUsage &U : R.usages())
      Postings[key(U)].push_back(Set.size());
    Set.push_back(std::move(R));
  };
  auto merge = [&](size_t I, const SynthUsage &U) {
    if (Set[I].contains(U))
      return;
    std::vector<SynthUsage> Usages = Set[I].usages();
    Usages.push_back(U);
    Set[I] = SynthesizedResource(std::move(Usages));
    Postings[key(U)].push_back(I);
  };

  std::vector<uint8_t> PairedOps(FLM.numOperations(), 0);
  for (const ElementaryPair &P : enumerateElementaryPairs(FLM)) {
    PairedOps[P.First.Op] = PairedOps[P.Second.Op] = 1;
    bool PairTogether = false;
    size_t End = Set.size();
    for (size_t I = 0; I < End; ++I) {
      bool Fully = true;
      std::vector<SynthUsage> Compatible;
      for (const SynthUsage &U : Set[I].usages()) {
        if (Dense.compatible(U, P.First) && Dense.compatible(U, P.Second))
          Compatible.push_back(U);
        else
          Fully = false;
      }
      if (Fully) {
        merge(I, P.First);
        merge(I, P.Second);
        PairTogether = true;
        continue;
      }
      if (Compatible.empty())
        continue;
      Compatible.push_back(P.First);
      Compatible.push_back(P.Second);
      addResource(std::move(Compatible));
      PairTogether = true;
    }
    if (!PairTogether)
      addResource({P.First, P.Second});
  }
  for (OpId Op = 0; Op < FLM.numOperations(); ++Op)
    if (!PairedOps[Op] && FLM.isForbidden(Op, Op, 0))
      addResource({SynthUsage{Op, 0}});
  return Set;
}

/// The prune: remove I iff some J generates a strict superset, or the
/// identical set at a larger index.
inline std::vector<SynthesizedResource>
pruneGeneratingSet(const std::vector<SynthesizedResource> &Set) {
  std::vector<std::vector<ForbiddenLatency>> Generated;
  for (const SynthesizedResource &R : Set)
    Generated.push_back(R.generatedLatencies());
  std::vector<SynthesizedResource> Pruned;
  for (size_t I = 0; I < Set.size(); ++I) {
    bool Removed = false;
    for (size_t J = 0; J < Set.size() && !Removed; ++J) {
      if (J == I || Generated[J].size() < Generated[I].size())
        continue;
      if (Generated[J].size() == Generated[I].size())
        Removed = J > I && Generated[J] == Generated[I];
      else
        Removed = std::includes(Generated[J].begin(), Generated[J].end(),
                                Generated[I].begin(), Generated[I].end());
    }
    if (!Removed)
      Pruned.push_back(Set[I]);
  }
  return Pruned;
}

} // namespace rmd::reference

#endif // RMD_TESTS_REFERENCEGENERATINGSET_H
