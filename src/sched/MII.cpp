//===- sched/MII.cpp ------------------------------------------------------===//

#include "sched/MII.h"

#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

using namespace rmd;

int rmd::computeResMII(const MachineDescription &MD, const DepGraph &G) {
  // Fractional per-resource load: an operation with A alternatives
  // contributes 1/A of each alternative's usages.
  std::vector<double> Load(MD.numResources(), 0.0);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    const Operation &Op = MD.operation(G.opOf(N));
    double Share = 1.0 / static_cast<double>(Op.Alternatives.size());
    for (const ReservationTable &RT : Op.Alternatives)
      for (const ResourceUsage &U : RT.usages())
        Load[U.Resource] += Share;
  }
  double MaxLoad = 0;
  for (double L : Load)
    MaxLoad = std::max(MaxLoad, L);
  return std::max(1, static_cast<int>(std::ceil(MaxLoad - 1e-9)));
}

namespace {

/// A dependence cycle as its edge indices, in path order.
using CycleEdges = std::vector<uint32_t>;

/// Scratch for the Bellman-Ford runs on one graph.
struct Relaxation {
  std::vector<long long> Dist;
  /// The edge that last raised Dist[v], or -1.
  std::vector<int32_t> Parent;
  /// Per node, the first parentCycleNode() walk that passed it.
  std::vector<NodeId> WalkOf;
};

/// The cycle of parent edges through \p X.
CycleEdges parentCycle(const std::vector<DepEdge> &Edges,
                       const std::vector<int32_t> &Parent, NodeId X) {
  CycleEdges Cycle;
  NodeId V = X;
  do {
    uint32_t EIdx = static_cast<uint32_t>(Parent[V]);
    Cycle.push_back(EIdx);
    V = Edges[EIdx].From;
  } while (V != X);
  std::reverse(Cycle.begin(), Cycle.end());
  return Cycle;
}

/// A node on a cycle of parent edges, or N when they form a forest. Each
/// walk up the parent edges stops at a root, at a node an earlier walk
/// passed, or back on its own path: a cycle.
NodeId parentCycleNode(const std::vector<DepEdge> &Edges, Relaxation &R) {
  NodeId N = static_cast<NodeId>(R.Parent.size());
  R.WalkOf.assign(N, N);
  for (NodeId S = 0; S < N; ++S) {
    NodeId V = S;
    while (R.WalkOf[V] == N && R.Parent[V] >= 0) {
      R.WalkOf[V] = S;
      V = Edges[static_cast<uint32_t>(R.Parent[V])].From;
    }
    if (R.WalkOf[V] == S)
      return V;
  }
  return N;
}

/// Bellman-Ford longest-path relaxation under (Delay - II * Distance) from
/// all nodes at once (distance 0 start), with parent edges. Returns an
/// empty list when no cycle has positive weight, i.e. II is feasible for
/// the recurrences; otherwise one positive cycle. A cycle of parent edges
/// is always positive: with \p FirstParentCycle the run stops at the first
/// pass that closes one. Otherwise it runs all N+1 passes and returns the
/// cycle behind the last relaxation, the one the InfeasibleRecurrence
/// message names.
CycleEdges findPositiveCycle(const DepGraph &G, int II, Relaxation &R,
                             bool FirstParentCycle) {
  size_t N = G.numNodes();
  const std::vector<DepEdge> &Edges = G.edges();
  R.Dist.assign(N, 0);
  R.Parent.assign(N, -1);
  NodeId Touched = N;
  for (size_t Pass = 0; Pass <= N; ++Pass) {
    bool Changed = false;
    for (uint32_t EIdx = 0; EIdx < Edges.size(); ++EIdx) {
      const DepEdge &E = Edges[EIdx];
      long long W = E.Delay - static_cast<long long>(II) * E.Distance;
      if (R.Dist[E.From] + W > R.Dist[E.To]) {
        R.Dist[E.To] = R.Dist[E.From] + W;
        R.Parent[E.To] = static_cast<int32_t>(EIdx);
        Touched = E.To;
        Changed = true;
      }
    }
    if (!Changed)
      return {};
    if (FirstParentCycle) {
      NodeId X = parentCycleNode(Edges, R);
      if (X != N)
        return parentCycle(Edges, R.Parent, X);
    }
  }

  // A node that still relaxes on pass N+1 has a parent chain that must
  // contain a positive cycle: walk N parent steps to land inside it.
  NodeId X = Touched;
  for (size_t I = 0; I < N; ++I)
    X = Edges[static_cast<uint32_t>(R.Parent[X])].From;
  return parentCycle(Edges, R.Parent, X);
}

/// Renders node \p N for a diagnostic: its name when the graph has one,
/// "#<id>" otherwise.
std::string nodeLabel(const DepGraph &G, NodeId N) {
  const std::string &Name = G.nodeName(N);
  return Name.empty() ? "#" + std::to_string(N) : Name;
}

/// The InfeasibleRecurrence status naming \p Cycle, rendered as
/// "a -> b -> a (total delay D, distance 0)".
Status infeasibleRecurrence(const DepGraph &G, const CycleEdges &Cycle) {
  long long DelaySum = 0, DistanceSum = 0;
  std::string Path = nodeLabel(G, G.edges()[Cycle.front()].From);
  for (uint32_t EIdx : Cycle) {
    const DepEdge &E = G.edges()[EIdx];
    DelaySum += E.Delay;
    DistanceSum += E.Distance;
    Path += " -> " + nodeLabel(G, E.To);
  }
  return Status(ErrorCode::InfeasibleRecurrence,
                "zero-distance positive-delay cycle: " + Path +
                    " (total delay " + std::to_string(DelaySum) +
                    ", distance " + std::to_string(DistanceSum) +
                    "); no initiation interval is feasible");
}

} // namespace

Expected<int> rmd::computeRecMIIChecked(const DepGraph &G) {
  bool HasCarried = false;
  int MaxDelaySum = 1;
  for (const DepEdge &E : G.edges()) {
    HasCarried |= E.Distance > 0;
    MaxDelaySum += std::max(0, E.Delay);
  }
  // A graph with a positive-delay cycle at distance 0 has no feasible II
  // at all (it is not a valid loop body). Without carried dependences
  // every cycle is zero-distance, so II = 1 exposes one; otherwise at
  // II = MaxDelaySum every distance-carrying cycle is already far
  // negative, so a surviving positive cycle is zero-distance.
  Relaxation R;
  CycleEdges ZeroDistance = findPositiveCycle(
      G, HasCarried ? MaxDelaySum : 1, R, /*FirstParentCycle=*/false);
  if (!ZeroDistance.empty())
    return infeasibleRecurrence(G, ZeroDistance);
  if (!HasCarried)
    return 1;

  // RecMII is the maximum over cycles of ceil(delay / distance). While some
  // cycle C is positive at II, ceil(delay(C) / distance(C)) is a lower
  // bound on RecMII above II: jump there and look again. Each step raises
  // II without passing RecMII, so the loop stops exactly at it.
  int II = 1;
  for (CycleEdges Cycle = findPositiveCycle(G, II, R, true); !Cycle.empty();
       Cycle = findPositiveCycle(G, II, R, true)) {
    long long Delay = 0, Distance = 0;
    for (uint32_t EIdx : Cycle) {
      Delay += G.edges()[EIdx].Delay;
      Distance += G.edges()[EIdx].Distance;
    }
    assert(Distance > 0 && Delay > II * Distance &&
           "parent cycle is not a positive carried cycle");
    II = static_cast<int>(
        std::max<long long>(II + 1, (Delay + Distance - 1) / Distance));
  }
  return II;
}

int rmd::computeRecMII(const DepGraph &G) {
  Expected<int> RecMII = computeRecMIIChecked(G);
  if (!RecMII)
    fatalError(RecMII.status().render().c_str());
  return RecMII.value();
}

int rmd::computeMII(const MachineDescription &MD, const DepGraph &G) {
  return std::max(computeResMII(MD, G), computeRecMII(G));
}
