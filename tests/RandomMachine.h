//===- tests/RandomMachine.h - Seeded random valid machines -----*- C++ -*-===//
//
// Shared by the suites that sweep seeded machine shapes (the MDL fuzzer and
// the generating-set differential oracle).
//
//===----------------------------------------------------------------------===//

#ifndef RMD_TESTS_RANDOMMACHINE_H
#define RMD_TESTS_RANDOMMACHINE_H

#include "mdesc/MachineDescription.h"
#include "support/RNG.h"

#include <string>

namespace rmd {

/// A random valid single-alternative machine: 2-6 resources, 1-5
/// operations, each with 1-4 distinct usages at cycles 0-7. ReservationTable
/// dedups, so every generated description passes validate() by
/// construction.
inline MachineDescription randomValidMachine(uint64_t Seed) {
  RNG R(Seed);
  MachineDescription MD("fuzz" + std::to_string(Seed));
  unsigned NumResources = 2 + static_cast<unsigned>(R.nextBelow(5));
  for (unsigned I = 0; I < NumResources; ++I)
    MD.addResource("r" + std::to_string(I));
  unsigned NumOps = 1 + static_cast<unsigned>(R.nextBelow(5));
  for (unsigned I = 0; I < NumOps; ++I) {
    ReservationTable Table;
    unsigned NumUsages = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned U = 0; U < NumUsages; ++U)
      Table.addUsage(static_cast<ResourceId>(R.nextBelow(NumResources)),
                     static_cast<int>(R.nextBelow(8)));
    MD.addOperation("op" + std::to_string(I), std::move(Table));
  }
  return MD;
}

} // namespace rmd

#endif // RMD_TESTS_RANDOMMACHINE_H
