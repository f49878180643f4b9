//===- reduce/SynthesizedResource.cpp -------------------------------------===//

#include "reduce/SynthesizedResource.h"

#include <algorithm>

using namespace rmd;

SynthesizedResource::SynthesizedResource(std::vector<SynthUsage> TheUsages)
    : Usages(std::move(TheUsages)) {
  normalize();
}

void SynthesizedResource::normalize() {
  std::sort(Usages.begin(), Usages.end());
  Usages.erase(std::unique(Usages.begin(), Usages.end()), Usages.end());
  if (Usages.empty())
    return;
  int MinCycle = Usages.front().Cycle;
  if (MinCycle != 0)
    for (SynthUsage &U : Usages)
      U.Cycle -= MinCycle;
}

bool SynthesizedResource::contains(const SynthUsage &U) const {
  return std::binary_search(Usages.begin(), Usages.end(), U);
}

std::vector<ForbiddenLatency> SynthesizedResource::generatedLatencies() const {
  std::vector<ForbiddenLatency> Result;
  Result.reserve(Usages.size() * (Usages.size() + 1) / 2);
  for (size_t I = 0; I < Usages.size(); ++I) {
    // A single usage already forbids the 0 self-latency of its operation.
    Result.push_back(canonicalize(Usages[I].Op, Usages[I].Op, 0));
    for (size_t J = I + 1; J < Usages.size(); ++J)
      Result.push_back(generatedLatency(Usages[I], Usages[J]));
  }
  std::sort(Result.begin(), Result.end());
  Result.erase(std::unique(Result.begin(), Result.end()), Result.end());
  return Result;
}

std::string SynthesizedResource::str(const MachineDescription &MD) const {
  std::string Out = "{";
  for (size_t I = 0; I < Usages.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += MD.operation(Usages[I].Op).Name;
    Out += "@";
    Out += std::to_string(Usages[I].Cycle);
  }
  Out += "}";
  return Out;
}
