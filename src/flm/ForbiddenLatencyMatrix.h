//===- flm/ForbiddenLatencyMatrix.h - Equation (1) of the paper -*- C++ -*-===//
///
/// \file
/// The forbidden latency matrix of a machine description (Section 3, Step 1
/// of Eichenberger & Davidson). For operations X and Y,
///
///   F(X,Y) = { j | X cannot be scheduled j cycles after Y }
///          = { y - x | resource i, x in X_i, y in Y_i }        (Eq. 1)
///
/// where X_i is the usage set of X on resource i. Two invariants hold by
/// construction and are exposed for testing:
///   - 0 in F(X,X) whenever X uses any resource;
///   - f in F(X,Y) iff -f in F(Y,X) (matrix antisymmetry).
///
/// The matrix is the *semantic identity* of a machine for scheduling
/// purposes: two descriptions with equal matrices admit exactly the same
/// contention-free schedules (the paper's reduction target).
///
//===----------------------------------------------------------------------===//

#ifndef RMD_FLM_FORBIDDENLATENCYMATRIX_H
#define RMD_FLM_FORBIDDENLATENCYMATRIX_H

#include "flm/LatencySet.h"
#include "mdesc/MachineDescription.h"

#include <iosfwd>
#include <vector>

namespace rmd {

class ThreadPool;

/// A canonical (nonnegative) forbidden latency: operation \p After cannot be
/// scheduled \p Latency cycles after operation \p Before. Canonical form:
/// Latency > 0, or Latency == 0 with After <= Before.
struct ForbiddenLatency {
  OpId After = 0;
  OpId Before = 0;
  int Latency = 0;

  friend bool operator==(const ForbiddenLatency &A,
                         const ForbiddenLatency &B) {
    return A.After == B.After && A.Before == B.Before &&
           A.Latency == B.Latency;
  }
  friend bool operator<(const ForbiddenLatency &A, const ForbiddenLatency &B) {
    if (A.After != B.After)
      return A.After < B.After;
    if (A.Before != B.Before)
      return A.Before < B.Before;
    return A.Latency < B.Latency;
  }
};

/// The full matrix of forbidden latency sets for an expanded machine
/// description (every operation has a single reservation table).
class ForbiddenLatencyMatrix {
public:
  /// Computes the matrix of \p MD per Equation (1). \p MD must be expanded.
  /// With \p Pool, operation rows are computed in parallel blocks; each
  /// cell F(X, Y) is owned by the thread holding row X, so the result is
  /// bit-identical at every thread count (enforced by the thread-sweep
  /// tests).
  static ForbiddenLatencyMatrix compute(const MachineDescription &MD,
                                        ThreadPool *Pool = nullptr);

  size_t numOperations() const { return NumOps; }

  /// F(X,Y): the latencies j such that X cannot issue j cycles after Y.
  const LatencySet &get(OpId X, OpId Y) const {
    assert(X < NumOps && Y < NumOps && "operation id out of range");
    return Sets[X * NumOps + Y];
  }

  /// True if X cannot be scheduled \p Latency cycles after Y.
  bool isForbidden(OpId X, OpId Y, int Latency) const {
    return get(X, Y).contains(Latency);
  }

  /// Inserts \p Latency into F(X,Y) and -\p Latency into F(Y,X).
  void insert(OpId X, OpId Y, int Latency);

  /// Total number of set members over the whole matrix (each latency in
  /// each F(X,Y) counts once; a constraint thus counts twice unless it is
  /// its own mirror). This matches the counting style of the paper's
  /// "10223 forbidden latencies" headline for the Cydra 5.
  size_t totalEntries() const;

  /// Number of canonical constraints (see ForbiddenLatency).
  size_t canonicalCount() const;

  /// Lists every canonical constraint in sorted (After, Before, Latency)
  /// order.
  std::vector<ForbiddenLatency> canonicalLatencies() const;

  /// Largest |latency| present anywhere in the matrix (0 if empty).
  int maxAbsoluteLatency() const;

  /// Checks the antisymmetry invariant; for use in tests.
  bool isAntisymmetric() const;

  friend bool operator==(const ForbiddenLatencyMatrix &A,
                         const ForbiddenLatencyMatrix &B) {
    return A.NumOps == B.NumOps && A.Sets == B.Sets;
  }

  /// Renders the matrix (Figure 1b style) using operation names of \p MD.
  void print(std::ostream &OS, const MachineDescription &MD) const;

  /// Constructs an empty matrix over \p NumOperations operations.
  explicit ForbiddenLatencyMatrix(size_t NumOperations);

private:
  LatencySet &getMutable(OpId X, OpId Y) { return Sets[X * NumOps + Y]; }

  size_t NumOps = 0;
  std::vector<LatencySet> Sets;
};

/// The smallest canonical latency of cell F(X, Y): the members of F(X, Y)
/// at or above it are the cell's canonical latencies (see
/// ForbiddenLatency). A zero latency between distinct operations is
/// canonical only in the X < Y cell.
inline int lowestCanonical(OpId X, OpId Y) { return X <= Y ? 0 : 1; }

/// Returns the canonical form of the constraint "X cannot issue f cycles
/// after Y" (see ForbiddenLatency).
inline ForbiddenLatency canonicalize(OpId X, OpId Y, int F) {
  if (F >= lowestCanonical(X, Y))
    return ForbiddenLatency{X, Y, F};
  return ForbiddenLatency{Y, X, -F};
}

/// O(1) map from a canonical forbidden latency to its index in
/// canonicalLatencies(). That list is sorted (After, Before, Latency), so
/// the index of (X, Y, F) is the number of canonical members of the cells
/// before F(X, Y) plus the rank of F among the canonical members of
/// F(X, Y). The first is one table entry per cell, the second a popcount
/// over the cell's few words. Memory is O(ops^2 + canonical count).
///
/// Reads the cells of the matrix it was built from, which must outlive it
/// and not change.
class CanonicalLatencyIndex {
public:
  explicit CanonicalLatencyIndex(const ForbiddenLatencyMatrix &FLM);

  /// canonicalLatencies() of the matrix.
  const std::vector<ForbiddenLatency> &latencies() const { return Latencies; }
  size_t size() const { return Latencies.size(); }

  /// The index of \p L in latencies(); \p L must be a canonical latency
  /// of the matrix (asserted).
  uint32_t indexOf(const ForbiddenLatency &L) const;

private:
  const ForbiddenLatencyMatrix &FLM;
  /// CellStart[X * NumOps + Y]: index of the first canonical member of
  /// F(X, Y).
  std::vector<uint32_t> CellStart;
  std::vector<ForbiddenLatency> Latencies;
};

} // namespace rmd

#endif // RMD_FLM_FORBIDDENLATENCYMATRIX_H
