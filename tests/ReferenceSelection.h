//===- tests/ReferenceSelection.h - Oracle greedy cover ---------*- C++ -*-===//
//
// The greedy cover as first written, kept as a differential oracle for
// reduce/Selection.cpp:
//   - each usage pair is filed under its canonical latency by a binary
//     search over canonicalLatencies();
//   - a candidate pair's newly covered latencies are collected into a
//     fresh vector, sorted and deduplicated.
// Same target order, candidate order and tie-breaking (new words, then
// count, then latency sum, then list order), so SelectedUsages must match
// exactly.
//
//===----------------------------------------------------------------------===//

#ifndef RMD_TESTS_REFERENCESELECTION_H
#define RMD_TESTS_REFERENCESELECTION_H

#include "reduce/Selection.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

namespace rmd::reference {

namespace detail {

/// A usage pair within one pruned resource. I == J encodes a single usage
/// (it alone covers the 0 self-latency of its operation).
struct UsagePair {
  uint32_t Resource;
  uint32_t I;
  uint32_t J;
};

/// Greedy cover state shared by the helper routines.
class CoverState {
public:
  CoverState(const ForbiddenLatencyMatrix &FLM,
             const std::vector<SynthesizedResource> &Pruned,
             const SelectionObjective &Objective)
      : Pruned(Pruned), Objective(Objective),
        Canonical(FLM.canonicalLatencies()), Covered(Canonical.size(), false),
        NumUncovered(Canonical.size()) {
    Selected.resize(Pruned.size());
    for (size_t R = 0; R < Pruned.size(); ++R)
      Selected[R].assign(Pruned[R].size(), false);

    // Index every usage pair of every pruned resource under the canonical
    // latency it generates.
    PairLists.resize(Canonical.size());
    for (size_t R = 0; R < Pruned.size(); ++R) {
      const auto &Usages = Pruned[R].usages();
      for (uint32_t I = 0; I < Usages.size(); ++I) {
        addPair(canonicalize(Usages[I].Op, Usages[I].Op, 0),
                UsagePair{static_cast<uint32_t>(R), I, I});
        for (uint32_t J = I + 1; J < Usages.size(); ++J)
          addPair(generatedLatency(Usages[I], Usages[J]),
                  UsagePair{static_cast<uint32_t>(R), I, J});
      }
    }
  }

  void run() {
    while (NumUncovered > 0) {
      size_t Target = pickTargetLatency();
      const UsagePair Best = pickBestPair(Target);
      applyPair(Best);
      if (Objective.ObjectiveKind == SelectionObjective::WordUses)
        closeFreeUsages();
    }
  }

  SelectionResult takeResult() {
    SelectionResult Result;
    Result.SelectedUsages.resize(Pruned.size());
    for (size_t R = 0; R < Pruned.size(); ++R)
      for (size_t U = 0; U < Pruned[R].size(); ++U)
        if (Selected[R][U])
          Result.SelectedUsages[R].push_back(Pruned[R].usages()[U]);
    return Result;
  }

private:
  size_t canonicalIndex(const ForbiddenLatency &L) const {
    auto It = std::lower_bound(Canonical.begin(), Canonical.end(), L);
    assert(It != Canonical.end() && *It == L &&
           "resource generates a latency not in the matrix");
    return static_cast<size_t>(It - Canonical.begin());
  }

  void addPair(const ForbiddenLatency &L, UsagePair P) {
    PairLists[canonicalIndex(L)].push_back(P);
  }

  unsigned wordOf(int Cycle) const {
    return static_cast<unsigned>(Cycle) / Objective.CyclesPerWord;
  }

  /// Latencies the pair would newly generate together with the usages
  /// already selected in its resource; deduplicated canonical indices.
  std::vector<size_t> newlyCovered(const UsagePair &P) const {
    const auto &Usages = Pruned[P.Resource].usages();
    std::vector<size_t> Indices;
    auto Consider = [&](const ForbiddenLatency &L) {
      size_t Index = canonicalIndex(L);
      if (!Covered[Index])
        Indices.push_back(Index);
    };
    auto ConsiderUsage = [&](uint32_t U) {
      Consider(canonicalize(Usages[U].Op, Usages[U].Op, 0));
      for (size_t S = 0; S < Usages.size(); ++S) {
        if (S == U || !Selected[P.Resource][S])
          continue;
        Consider(generatedLatency(Usages[U], Usages[S]));
      }
    };
    ConsiderUsage(P.I);
    if (P.J != P.I) {
      ConsiderUsage(P.J);
      Consider(generatedLatency(Usages[P.I], Usages[P.J]));
    }
    std::sort(Indices.begin(), Indices.end());
    Indices.erase(std::unique(Indices.begin(), Indices.end()), Indices.end());
    return Indices;
  }

  /// Number of words of per-operation reservation tables that selecting the
  /// pair would newly make nonempty (WordUses objective).
  unsigned newWords(const UsagePair &P) const {
    const auto &Usages = Pruned[P.Resource].usages();
    unsigned Count = 0;
    std::pair<OpId, unsigned> FirstKey{0, 0};
    bool HaveFirst = false;
    for (uint32_t U : {P.I, P.J}) {
      if (Selected[P.Resource][U])
        continue;
      std::pair<OpId, unsigned> Key{Usages[U].Op, wordOf(Usages[U].Cycle)};
      if (WordCount.count(Key))
        continue;
      if (HaveFirst && Key == FirstKey)
        continue;
      ++Count;
      FirstKey = Key;
      HaveFirst = true;
      if (P.I == P.J)
        break;
    }
    return Count;
  }

  size_t pickTargetLatency() const {
    size_t Best = Canonical.size();
    for (size_t T = 0; T < Canonical.size(); ++T) {
      if (Covered[T])
        continue;
      if (Best == Canonical.size() ||
          PairLists[T].size() < PairLists[Best].size())
        Best = T;
    }
    assert(Best < Canonical.size() && "no uncovered latency");
    return Best;
  }

  UsagePair pickBestPair(size_t Target) const {
    const auto &List = PairLists[Target];
    assert(!List.empty() && "uncovered latency with no generating pair; the "
                            "pruned set no longer covers the matrix");
    const UsagePair *Best = nullptr;
    unsigned BestWords = 0;
    size_t BestCovered = 0;
    long long BestSum = 0;
    for (const UsagePair &P : List) {
      unsigned Words = Objective.ObjectiveKind == SelectionObjective::WordUses
                           ? newWords(P)
                           : 0;
      std::vector<size_t> NewIndices = newlyCovered(P);
      long long Sum = 0;
      for (size_t Index : NewIndices)
        Sum += Canonical[Index].Latency;

      bool Better = false;
      if (!Best) {
        Better = true;
      } else if (Words != BestWords) {
        Better = Words < BestWords;
      } else if (NewIndices.size() != BestCovered) {
        Better = NewIndices.size() > BestCovered;
      } else if (Sum != BestSum) {
        Better = Sum > BestSum;
      }
      if (Better) {
        Best = &P;
        BestWords = Words;
        BestCovered = NewIndices.size();
        BestSum = Sum;
      }
    }
    return *Best;
  }

  void selectUsage(uint32_t Resource, uint32_t U) {
    if (Selected[Resource][U])
      return;
    const auto &Usages = Pruned[Resource].usages();
    // Mark latencies generated with previously selected usages (and the 0
    // self-latency) as covered.
    markCovered(canonicalize(Usages[U].Op, Usages[U].Op, 0));
    for (size_t S = 0; S < Usages.size(); ++S)
      if (S != U && Selected[Resource][S])
        markCovered(generatedLatency(Usages[U], Usages[S]));
    Selected[Resource][U] = true;
    ++WordCount[{Usages[U].Op, wordOf(Usages[U].Cycle)}];
  }

  void markCovered(const ForbiddenLatency &L) {
    size_t Index = canonicalIndex(L);
    if (!Covered[Index]) {
      Covered[Index] = true;
      --NumUncovered;
    }
  }

  void applyPair(const UsagePair &P) {
    // Selecting J after I records the pair's own latency: selectUsage scans
    // previously selected usages of the resource, which now include I.
    selectUsage(P.Resource, P.I);
    selectUsage(P.Resource, P.J);
  }

  /// WordUses closure: any unselected usage of a resource that already has
  /// selections, whose operation-table word is already nonempty, is free
  /// (it adds no tested word); select it to speed early-out detection.
  void closeFreeUsages() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t R = 0; R < Pruned.size(); ++R) {
        bool AnySelected =
            std::find(Selected[R].begin(), Selected[R].end(), true) !=
            Selected[R].end();
        if (!AnySelected)
          continue;
        const auto &Usages = Pruned[R].usages();
        for (uint32_t U = 0; U < Usages.size(); ++U) {
          if (Selected[R][U])
            continue;
          auto Key =
              std::make_pair(Usages[U].Op, wordOf(Usages[U].Cycle));
          auto It = WordCount.find(Key);
          if (It == WordCount.end() || It->second == 0)
            continue;
          selectUsage(static_cast<uint32_t>(R), U);
          Changed = true;
        }
      }
    }
  }

  const std::vector<SynthesizedResource> &Pruned;
  SelectionObjective Objective;
  std::vector<ForbiddenLatency> Canonical;
  std::vector<std::vector<UsagePair>> PairLists;
  std::vector<bool> Covered;
  size_t NumUncovered;
  std::vector<std::vector<bool>> Selected;
  std::map<std::pair<OpId, unsigned>, unsigned> WordCount;
};

} // namespace detail

inline SelectionResult
selectCover(const ForbiddenLatencyMatrix &FLM,
            const std::vector<SynthesizedResource> &Pruned,
            const SelectionObjective &Objective) {
  detail::CoverState State(FLM, Pruned, Objective);
  State.run();
  return State.takeResult();
}

} // namespace rmd::reference

#endif // RMD_TESTS_REFERENCESELECTION_H
