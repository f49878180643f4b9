//===- reduce/SynthesizedResource.h - Usages & synthetic rows --*- C++ -*-===//
///
/// \file
/// Synthesized resources (Section 4 of Eichenberger & Davidson). A
/// synthesized resource is a set of *usages* (operation, cycle); placing two
/// usages (X, cx) and (Y, cy) on the same resource forbids latency (cy - cx)
/// in F(X, Y). A *maximal* resource forbids only latencies of the target
/// machine and cannot accept any further usage without forbidding a new one.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_REDUCE_SYNTHESIZEDRESOURCE_H
#define RMD_REDUCE_SYNTHESIZEDRESOURCE_H

#include "flm/ForbiddenLatencyMatrix.h"

#include <string>
#include <vector>

namespace rmd {

/// A usage of a synthesized resource: operation \p Op reserves it at cycle
/// \p Cycle relative to Op's issue time.
struct SynthUsage {
  OpId Op = 0;
  int Cycle = 0;

  friend bool operator==(const SynthUsage &A, const SynthUsage &B) {
    return A.Op == B.Op && A.Cycle == B.Cycle;
  }
  friend bool operator<(const SynthUsage &A, const SynthUsage &B) {
    if (A.Cycle != B.Cycle)
      return A.Cycle < B.Cycle;
    return A.Op < B.Op;
  }
};

/// A synthesized resource: a sorted, duplicate-free set of usages with the
/// earliest usage in cycle 0 (the canonical translation; shifting all usages
/// of a resource in time does not change the latencies it forbids). The
/// usages order by cycle first, so the anchor is always the front.
///
/// This is the output representation. The generating-set fold and prune
/// (GeneratingSet.h) judge resources on compact-id bitsets and build these
/// vectors only for their results.
class SynthesizedResource {
public:
  SynthesizedResource() = default;
  explicit SynthesizedResource(std::vector<SynthUsage> TheUsages);

  const std::vector<SynthUsage> &usages() const { return Usages; }
  bool empty() const { return Usages.empty(); }
  size_t size() const { return Usages.size(); }

  bool contains(const SynthUsage &U) const;

  /// All canonical forbidden latencies this resource generates: one
  /// (X, X, 0) per usage, plus one triple per unordered usage pair. Sorted
  /// and duplicate-free. O(u^2 log u); the prune builds the same sets as
  /// latency-id bitsets from per-operation cycle masks instead, and the
  /// selection reads them from a per-resource matrix of canonical
  /// indices, so this serves rendering, explanations and tests.
  std::vector<ForbiddenLatency> generatedLatencies() const;

  /// A stable total order / equality key (the usage vector itself).
  friend bool operator==(const SynthesizedResource &A,
                         const SynthesizedResource &B) {
    return A.Usages == B.Usages;
  }
  friend bool operator<(const SynthesizedResource &A,
                        const SynthesizedResource &B) {
    return A.Usages < B.Usages;
  }

  /// Renders as "{ opName@cycle, ... }" using \p MD for operation names.
  std::string str(const MachineDescription &MD) const;

private:
  void normalize();

  std::vector<SynthUsage> Usages;
};

/// The canonical forbidden latency generated by usages \p A and \p B sharing
/// one resource: (B.Cycle - A.Cycle) in F(A.Op, B.Op).
inline ForbiddenLatency generatedLatency(const SynthUsage &A,
                                         const SynthUsage &B) {
  return canonicalize(A.Op, B.Op, B.Cycle - A.Cycle);
}

/// True if co-locating usages \p A and \p B on one resource forbids only a
/// latency already forbidden in \p FLM.
inline bool usagesCompatible(const ForbiddenLatencyMatrix &FLM,
                             const SynthUsage &A, const SynthUsage &B) {
  return FLM.isForbidden(A.Op, B.Op, B.Cycle - A.Cycle);
}

} // namespace rmd

#endif // RMD_REDUCE_SYNTHESIZEDRESOURCE_H
