//===- flm/ForbiddenLatencyMatrix.cpp -------------------------------------===//

#include "flm/ForbiddenLatencyMatrix.h"

#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <ostream>

using namespace rmd;

ForbiddenLatencyMatrix::ForbiddenLatencyMatrix(size_t NumOperations)
    : NumOps(NumOperations), Sets(NumOperations * NumOperations) {}

ForbiddenLatencyMatrix
ForbiddenLatencyMatrix::compute(const MachineDescription &MD,
                                ThreadPool *Pool) {
  assert(MD.isExpanded() &&
         "forbidden latencies require an expanded (single-alternative) "
         "machine; call expandAlternatives() first");
  size_t NumOps = MD.numOperations();
  ForbiddenLatencyMatrix FLM(NumOps);

  // Counted once per build (not per parallel block) so the totals are
  // identical at every thread count.
  static StatCounter Builds("flm.builds");
  static StatCounter Rows("flm.rows");
  Builds.add();
  Rows.add(NumOps);

  // Per-resource usage lists: Resource -> [(op, cycle)].
  std::vector<std::vector<std::pair<OpId, int>>> ByResource(
      MD.numResources());
  for (OpId Op = 0; Op < NumOps; ++Op)
    for (const ResourceUsage &U : MD.operation(Op).table().usages())
      ByResource[U.Resource].push_back({Op, U.Cycle});

  // Equation (1): for usages (X, x) and (Y, y) of one resource, X cannot
  // be scheduled (y - x) cycles after Y. Iterated row-major — for each X,
  // over X's own usages — so a block of rows touches only its own cells
  // and row blocks parallelize without synchronization. The per-cell sets
  // are order-insensitive, so the result is identical to the sequential
  // per-resource scan.
  auto ComputeRows = [&](size_t RowBegin, size_t RowEnd) {
    for (OpId X = static_cast<OpId>(RowBegin); X < RowEnd; ++X)
      for (const ResourceUsage &U : MD.operation(X).table().usages())
        for (const auto &[Y, Cy] : ByResource[U.Resource])
          FLM.getMutable(X, Y).insert(Cy - U.Cycle);
  };
  if (Pool)
    Pool->parallelFor(0, NumOps, ComputeRows, /*MinPerBlock=*/8);
  else
    ComputeRows(0, NumOps);
  return FLM;
}

void ForbiddenLatencyMatrix::insert(OpId X, OpId Y, int Latency) {
  getMutable(X, Y).insert(Latency);
  getMutable(Y, X).insert(-Latency);
}

size_t ForbiddenLatencyMatrix::totalEntries() const {
  size_t Total = 0;
  for (const LatencySet &S : Sets)
    Total += S.size();
  return Total;
}

size_t ForbiddenLatencyMatrix::canonicalCount() const {
  size_t Count = 0;
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y) {
      const LatencySet &S = get(X, Y);
      Count += S.size() - S.countBelow(lowestCanonical(X, Y));
    }
  return Count;
}

/// Appends the canonical latencies of cell F(X, Y) to \p Out in ascending
/// order; walking the cells row-major thus lists them sorted.
static void appendCanonical(const ForbiddenLatencyMatrix &FLM, OpId X, OpId Y,
                            std::vector<ForbiddenLatency> &Out) {
  int Lowest = lowestCanonical(X, Y);
  for (int F : FLM.get(X, Y))
    if (F >= Lowest)
      Out.push_back(ForbiddenLatency{X, Y, F});
}

std::vector<ForbiddenLatency>
ForbiddenLatencyMatrix::canonicalLatencies() const {
  std::vector<ForbiddenLatency> Result;
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y)
      appendCanonical(*this, X, Y, Result);
  return Result;
}

CanonicalLatencyIndex::CanonicalLatencyIndex(const ForbiddenLatencyMatrix &FLM)
    : FLM(FLM) {
  size_t NumOps = FLM.numOperations();
  CellStart.reserve(NumOps * NumOps);
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y) {
      CellStart.push_back(static_cast<uint32_t>(Latencies.size()));
      appendCanonical(FLM, X, Y, Latencies);
    }
}

uint32_t CanonicalLatencyIndex::indexOf(const ForbiddenLatency &L) const {
  const LatencySet &S = FLM.get(L.After, L.Before);
  int Lowest = lowestCanonical(L.After, L.Before);
  assert(L.Latency >= Lowest && S.contains(L.Latency) &&
         "not a canonical latency of the matrix");
  uint32_t Index = CellStart[L.After * FLM.numOperations() + L.Before] +
                   static_cast<uint32_t>(S.countBelow(L.Latency) -
                                         S.countBelow(Lowest));
  assert(Latencies[Index] == L && "index disagrees with the list");
  return Index;
}

int ForbiddenLatencyMatrix::maxAbsoluteLatency() const {
  int MaxAbs = 0;
  for (const LatencySet &S : Sets)
    for (int F : S)
      MaxAbs = std::max(MaxAbs, F < 0 ? -F : F);
  return MaxAbs;
}

bool ForbiddenLatencyMatrix::isAntisymmetric() const {
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y)
      if (!(get(X, Y).negated() == get(Y, X)))
        return false;
  return true;
}

void ForbiddenLatencyMatrix::print(std::ostream &OS,
                                   const MachineDescription &MD) const {
  assert(MD.numOperations() == NumOps && "machine does not match matrix");
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y) {
      const LatencySet &S = get(X, Y);
      if (S.empty())
        continue;
      OS << "F(" << MD.operation(X).Name << ", " << MD.operation(Y).Name
         << ") = {";
      bool First = true;
      for (int F : S) {
        if (!First)
          OS << ", ";
        OS << F;
        First = false;
      }
      OS << "}\n";
    }
}
