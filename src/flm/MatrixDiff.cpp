//===- flm/MatrixDiff.cpp -------------------------------------------------===//

#include "flm/MatrixDiff.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

using namespace rmd;

MatrixDiff rmd::diffMatrices(const MachineDescription &A,
                             const MachineDescription &B) {
  MatrixDiff Diff;

  // Match operations by name.
  std::map<std::string, OpId> InB;
  for (OpId Op = 0; Op < B.numOperations(); ++Op)
    InB[B.operation(Op).Name] = Op;

  std::vector<std::pair<OpId, OpId>> Common; // (idA, idB)
  std::set<std::string> CommonNames;
  for (OpId Op = 0; Op < A.numOperations(); ++Op) {
    auto It = InB.find(A.operation(Op).Name);
    if (It == InB.end()) {
      Diff.OnlyInA.push_back(A.operation(Op).Name);
      continue;
    }
    Common.push_back({Op, It->second});
    CommonNames.insert(A.operation(Op).Name);
  }
  for (OpId Op = 0; Op < B.numOperations(); ++Op)
    if (!CommonNames.count(B.operation(Op).Name))
      Diff.OnlyInB.push_back(B.operation(Op).Name);

  ForbiddenLatencyMatrix FA = ForbiddenLatencyMatrix::compute(A);
  ForbiddenLatencyMatrix FB = ForbiddenLatencyMatrix::compute(B);

  // Compare canonical (nonnegative) constraints over common operations.
  for (const auto &[XA, XB] : Common)
    for (const auto &[YA, YB] : Common) {
      const std::string &XName = A.operation(XA).Name;
      const std::string &YName = A.operation(YA).Name;
      // Canonical triples only, oriented by the operation ids in A (a
      // stable, arbitrary orientation).
      int Lowest = lowestCanonical(XA, YA);
      auto Keep = [&](int F) { return F >= Lowest; };
      for (int F : FA.get(XA, YA))
        if (Keep(F) && !FB.isForbidden(XB, YB, F))
          Diff.Removed.push_back(LatencyChange{XName, YName, F});
      for (int F : FB.get(XB, YB))
        if (Keep(F) && !FA.isForbidden(XA, YA, F))
          Diff.Added.push_back(LatencyChange{XName, YName, F});
    }
  return Diff;
}

static void printChanges(std::ostream &OS, const char *Sign,
                         const std::vector<LatencyChange> &Changes) {
  for (const LatencyChange &C : Changes)
    OS << Sign << ' ' << C.After << " forbidden " << C.Latency
       << " cycles after " << C.Before << "\n";
}

void rmd::printMatrixDiff(std::ostream &OS, const MatrixDiff &Diff) {
  if (Diff.identical()) {
    OS << "descriptions are scheduling-equivalent\n";
    return;
  }
  for (const std::string &Name : Diff.OnlyInA)
    OS << "- operation " << Name << " (only in first)\n";
  for (const std::string &Name : Diff.OnlyInB)
    OS << "+ operation " << Name << " (only in second)\n";
  printChanges(OS, "-", Diff.Removed);
  printChanges(OS, "+", Diff.Added);
  OS << "summary: " << Diff.Added.size() << " constraint(s) added, "
     << Diff.Removed.size() << " removed\n";
}
