//===- tests/ReferenceRecMII.h - Oracle RecMII by binary search -*- C++ -*-===//
//
// The recurrence bound as a binary search over II, kept as a differential
// oracle for the cycle-ratio iteration in sched/MII.cpp:
//   - feasibility of one II is a Bellman-Ford longest-path run without
//     parent edges;
//   - a second run at the same II extracts the cycle named in the
//     InfeasibleRecurrence message.
// Same probes for the zero-distance check, so the values and the messages
// must match exactly.
//
//===----------------------------------------------------------------------===//

#ifndef RMD_TESTS_REFERENCERECMII_H
#define RMD_TESTS_REFERENCERECMII_H

#include "sched/DepGraph.h"
#include "support/Status.h"

#include <algorithm>
#include <string>
#include <vector>

namespace rmd::reference {

/// True if some dependence cycle of \p G has positive total weight under
/// (Delay - II * Distance).
inline bool hasPositiveCycle(const DepGraph &G, int II) {
  size_t N = G.numNodes();
  std::vector<long long> Dist(N, 0);
  for (size_t Pass = 0; Pass <= N; ++Pass) {
    bool Changed = false;
    for (const DepEdge &E : G.edges()) {
      long long W = E.Delay - static_cast<long long>(II) * E.Distance;
      if (Dist[E.From] + W > Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

inline std::string nodeLabel(const DepGraph &G, NodeId N) {
  const std::string &Name = G.nodeName(N);
  return Name.empty() ? "#" + std::to_string(N) : Name;
}

/// One positive cycle at \p II, assuming hasPositiveCycle(G, II), rendered
/// as "a -> b -> a (total delay D, distance 0)".
inline std::string describePositiveCycle(const DepGraph &G, int II) {
  size_t N = G.numNodes();
  std::vector<long long> Dist(N, 0);
  std::vector<int32_t> Parent(N, -1);
  NodeId Touched = N;
  for (size_t Pass = 0; Pass <= N; ++Pass)
    for (uint32_t EIdx = 0; EIdx < G.numEdges(); ++EIdx) {
      const DepEdge &E = G.edges()[EIdx];
      long long W = E.Delay - static_cast<long long>(II) * E.Distance;
      if (Dist[E.From] + W > Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        Parent[E.To] = static_cast<int32_t>(EIdx);
        Touched = E.To;
      }
    }
  NodeId X = Touched;
  for (size_t I = 0; I < N; ++I)
    X = G.edges()[static_cast<uint32_t>(Parent[X])].From;
  std::vector<uint32_t> CycleEdges;
  NodeId V = X;
  do {
    uint32_t EIdx = static_cast<uint32_t>(Parent[V]);
    CycleEdges.push_back(EIdx);
    V = G.edges()[EIdx].From;
  } while (V != X);
  std::reverse(CycleEdges.begin(), CycleEdges.end());

  long long DelaySum = 0, DistanceSum = 0;
  std::string Path = nodeLabel(G, X);
  for (uint32_t EIdx : CycleEdges) {
    const DepEdge &E = G.edges()[EIdx];
    DelaySum += E.Delay;
    DistanceSum += E.Distance;
    Path += " -> " + nodeLabel(G, E.To);
  }
  return Path + " (total delay " + std::to_string(DelaySum) + ", distance " +
         std::to_string(DistanceSum) + ")";
}

inline Status infeasible(const DepGraph &G, int II) {
  return Status(ErrorCode::InfeasibleRecurrence,
                "zero-distance positive-delay cycle: " +
                    describePositiveCycle(G, II) +
                    "; no initiation interval is feasible");
}

/// The smallest II at which no cycle is positive, by binary search over
/// [1, 1 + sum of positive delays]; feasibility is monotone in II.
inline Expected<int> computeRecMIIChecked(const DepGraph &G) {
  bool HasCarried = false;
  int MaxDelaySum = 1;
  for (const DepEdge &E : G.edges()) {
    HasCarried |= E.Distance > 0;
    MaxDelaySum += std::max(0, E.Delay);
  }
  if (!HasCarried)
    return hasPositiveCycle(G, 1) ? Expected<int>(infeasible(G, 1))
                                  : Expected<int>(1);
  int Lo = 1, Hi = MaxDelaySum;
  if (hasPositiveCycle(G, Hi))
    return infeasible(G, Hi);
  while (Lo < Hi) {
    int Mid = Lo + (Hi - Lo) / 2;
    if (hasPositiveCycle(G, Mid))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

} // namespace rmd::reference

#endif // RMD_TESTS_REFERENCERECMII_H
