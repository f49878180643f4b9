//===- reduce/ExactCover.cpp ----------------------------------------------===//

#include "reduce/ExactCover.h"

#include <algorithm>

using namespace rmd;

namespace {

/// A flattened usage: (pruned resource index, usage index within it).
struct UsageRef {
  uint32_t Resource;
  uint32_t Index;
};

/// Branch-and-bound search state: selects usages so that every canonical
/// latency is generated by some selected pair (or single selected usage
/// for 0 self-latencies), minimizing the number of selected usages.
class ExactSearch {
public:
  ExactSearch(const ForbiddenLatencyMatrix &FLM,
              const std::vector<SynthesizedResource> &Pruned,
              uint64_t NodeBudget)
      : Pruned(Pruned), Canonical(FLM), NodeBudget(NodeBudget) {
    Selected.resize(Pruned.size());
    for (size_t R = 0; R < Pruned.size(); ++R)
      Selected[R].assign(Pruned[R].size(), false);

    // Options per canonical latency: the usage pairs generating it.
    Options.resize(Canonical.size());
    for (uint32_t R = 0; R < Pruned.size(); ++R) {
      const auto &Usages = Pruned[R].usages();
      for (uint32_t I = 0; I < Usages.size(); ++I) {
        record(canonicalize(Usages[I].Op, Usages[I].Op, 0),
               UsageRef{R, I}, UsageRef{R, I});
        for (uint32_t J = I + 1; J < Usages.size(); ++J)
          record(generatedLatency(Usages[I], Usages[J]), UsageRef{R, I},
                 UsageRef{R, J});
      }
    }

    // Branch on constrained latencies first: fewest generating pairs.
    Order.resize(Canonical.size());
    for (size_t T = 0; T < Order.size(); ++T)
      Order[T] = T;
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Options[A].size() < Options[B].size();
    });
  }

  bool run() {
    BestCost = ~0ull;
    Nodes = 0;
    search(0, 0);
    return BestCost != ~0ull && Nodes <= NodeBudget;
  }

  uint64_t nodesExpanded() const { return Nodes; }

  SelectionResult takeBest() {
    SelectionResult Result;
    Result.SelectedUsages.resize(Pruned.size());
    for (size_t R = 0; R < Pruned.size(); ++R)
      for (size_t U = 0; U < Pruned[R].size(); ++U)
        if (BestSelected[R][U])
          Result.SelectedUsages[R].push_back(Pruned[R].usages()[U]);
    return Result;
  }

private:
  void record(const ForbiddenLatency &L, UsageRef A, UsageRef B) {
    Options[Canonical.indexOf(L)].push_back({A, B});
  }

  /// True if the latency at \p Index is generated by the current
  /// selection.
  bool covered(size_t Index) const {
    for (const auto &[A, B] : Options[Index])
      if (Selected[A.Resource][A.Index] && Selected[B.Resource][B.Index])
        return true;
    return false;
  }

  void search(size_t Position, uint64_t Cost) {
    if (Cost >= BestCost || Nodes > NodeBudget)
      return;
    ++Nodes;

    // Next uncovered latency in branching order.
    while (Position < Order.size() && covered(Order[Position]))
      ++Position;
    if (Position == Order.size()) {
      BestCost = Cost;
      BestSelected = Selected;
      return;
    }

    for (const auto &[A, B] : Options[Order[Position]]) {
      bool NewA = !Selected[A.Resource][A.Index];
      bool NewB = !Selected[B.Resource][B.Index] &&
                  !(A.Resource == B.Resource && A.Index == B.Index);
      uint64_t Added = (NewA ? 1 : 0) + (NewB ? 1 : 0);
      Selected[A.Resource][A.Index] = true;
      Selected[B.Resource][B.Index] = true;
      search(Position + 1, Cost + Added);
      if (NewA)
        Selected[A.Resource][A.Index] = false;
      if (NewB)
        Selected[B.Resource][B.Index] = false;
    }
  }

  const std::vector<SynthesizedResource> &Pruned;
  CanonicalLatencyIndex Canonical;
  std::vector<std::vector<std::pair<UsageRef, UsageRef>>> Options;
  std::vector<size_t> Order;
  std::vector<std::vector<bool>> Selected;
  std::vector<std::vector<bool>> BestSelected;
  uint64_t BestCost = ~0ull;
  uint64_t Nodes = 0;
  uint64_t NodeBudget;
};

} // namespace

std::optional<ExactCoverResult>
rmd::selectCoverOptimal(const ForbiddenLatencyMatrix &FLM,
                        const std::vector<SynthesizedResource> &Pruned,
                        uint64_t NodeBudget) {
  ExactSearch Search(FLM, Pruned, NodeBudget);
  if (!Search.run())
    return std::nullopt;
  ExactCoverResult Result;
  Result.Selection = Search.takeBest();
  Result.NodesExpanded = Search.nodesExpanded();
  return Result;
}
