//===- query/DiscreteQuery.cpp --------------------------------------------===//

#include "query/DiscreteQuery.h"

#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <ostream>

using namespace rmd;

DiscreteQueryModule::DiscreteQueryModule(const MachineDescription &TheMD,
                                         QueryConfig TheConfig)
    : MD(TheMD), Config(TheConfig), NumResources(TheMD.numResources()) {
  assert(MD.isExpanded() && "query module requires an expanded machine");
  if (Config.Mode == QueryConfig::Modulo) {
    assert(Config.ModuloII > 0 && "modulo mode requires a positive II");
    ensureCycles(static_cast<size_t>(Config.ModuloII));
    SelfConflict.assign(MD.numOperations(), 0);
    for (OpId Op = 0; Op < MD.numOperations(); ++Op)
      SelfConflict[Op] = hasModuloSelfConflict(
          MD.operation(Op).table(), Config.ModuloII);
  }
}

bool rmd::hasModuloSelfConflict(const ReservationTable &RT, int II) {
  const auto &Usages = RT.usages();
  for (size_t I = 0; I < Usages.size(); ++I)
    for (size_t J = I + 1; J < Usages.size(); ++J)
      if (Usages[I].Resource == Usages[J].Resource &&
          (Usages[J].Cycle - Usages[I].Cycle) % II == 0)
        return true;
  return false;
}

void DiscreteQueryModule::ensureCycles(size_t CycleCount) {
  if (CycleCount <= NumSlots)
    return;
  // Grow geometrically to amortize linear-mode extension.
  size_t NewSlots = NumSlots == 0 ? CycleCount : NumSlots;
  while (NewSlots < CycleCount)
    NewSlots *= 2;
  Reserved.resize(NewSlots * NumResources, 0);
  Owner.resize(NewSlots * NumResources, -1);
  NumSlots = NewSlots;
}

size_t DiscreteQueryModule::slotIndex(int Cycle, int UsageCycle) {
  int Abs = Cycle + UsageCycle;
  if (Config.Mode == QueryConfig::Modulo) {
    int Slot = Abs % Config.ModuloII;
    if (Slot < 0)
      Slot += Config.ModuloII;
    return static_cast<size_t>(Slot);
  }
  assert(Abs >= Config.MinCycle && "cycle below the linear window");
  size_t Slot = static_cast<size_t>(Abs - Config.MinCycle);
  ensureCycles(Slot + 1);
  return Slot;
}

bool DiscreteQueryModule::check(OpId Op, int Cycle) {
  ++Counters.CheckCalls;
  if (Config.Mode == QueryConfig::Modulo && SelfConflict[Op]) {
    // The operation collides with its own copies from other iterations at
    // this II; no placement can ever succeed.
    ++Counters.CheckUnits;
    return false;
  }
  const ReservationTable &RT = MD.operation(Op).table();
  for (const ResourceUsage &U : RT.usages()) {
    ++Counters.CheckUnits;
    size_t Index = slotIndex(Cycle, U.Cycle) * NumResources + U.Resource;
    if (Reserved[Index])
      return false; // abort on first contention
  }
  return true;
}

void DiscreteQueryModule::assign(OpId Op, int Cycle, InstanceId Instance) {
  ++Counters.AssignCalls;
  assert((Config.Mode != QueryConfig::Modulo || !SelfConflict[Op]) &&
         "assigning an operation that self-conflicts at this II");
  const ReservationTable &RT = MD.operation(Op).table();
  for (const ResourceUsage &U : RT.usages()) {
    ++Counters.AssignUnits;
    size_t Index = slotIndex(Cycle, U.Cycle) * NumResources + U.Resource;
    assert(!Reserved[Index] && "assign over a reserved entry; use "
                               "assignAndFree for forced placement");
    Reserved[Index] = 1;
    Owner[Index] = Instance;
  }
  [[maybe_unused]] bool Inserted =
      Instances.emplace(Instance, InstanceInfo{Op, Cycle}).second;
  assert(Inserted && "instance id already scheduled");
}

void DiscreteQueryModule::free(OpId Op, int Cycle, InstanceId Instance) {
  ++Counters.FreeCalls;
  const ReservationTable &RT = MD.operation(Op).table();
  for (const ResourceUsage &U : RT.usages()) {
    ++Counters.FreeUnits;
    size_t Index = slotIndex(Cycle, U.Cycle) * NumResources + U.Resource;
    assert(Reserved[Index] && Owner[Index] == Instance &&
           "freeing an entry not owned by this instance");
    Reserved[Index] = 0;
    Owner[Index] = -1;
  }
  [[maybe_unused]] size_t Erased = Instances.erase(Instance);
  assert(Erased == 1 && "freeing an unscheduled instance");
}

void DiscreteQueryModule::evict(InstanceId Instance) {
  auto It = Instances.find(Instance);
  assert(It != Instances.end() && "evicting an unknown instance");
  const ReservationTable &RT = MD.operation(It->second.Op).table();
  for (const ResourceUsage &U : RT.usages()) {
    ++Counters.AssignFreeUnits;
    size_t Index =
        slotIndex(It->second.Cycle, U.Cycle) * NumResources + U.Resource;
    Reserved[Index] = 0;
    Owner[Index] = -1;
  }
  Instances.erase(It);
}

void DiscreteQueryModule::assignAndFree(OpId Op, int Cycle,
                                        InstanceId Instance,
                                        std::vector<InstanceId> &Evicted) {
  ++Counters.AssignFreeCalls;
  if (Config.Mode == QueryConfig::Modulo && SelfConflict[Op])
    fatalError("assignAndFree on an operation that self-conflicts at this "
               "II; the scheduler must raise the II instead");
  const ReservationTable &RT = MD.operation(Op).table();
  for (const ResourceUsage &U : RT.usages()) {
    ++Counters.AssignFreeUnits;
    size_t Index = slotIndex(Cycle, U.Cycle) * NumResources + U.Resource;
    if (Reserved[Index]) {
      InstanceId Victim = Owner[Index];
      if (Victim == Instance)
        fatalError("operation conflicts with itself within one placement");
      Evicted.push_back(Victim);
      evict(Victim); // clears this entry as well
    }
    Reserved[Index] = 1;
    Owner[Index] = Instance;
  }
  [[maybe_unused]] bool Inserted =
      Instances.emplace(Instance, InstanceInfo{Op, Cycle}).second;
  assert(Inserted && "instance id already scheduled");
}

int DiscreteQueryModule::firstFreeSlot(const std::vector<OpId> &Alternatives,
                                       int From, int Count, int &Alt) {
  int End = From + Count;
  for (int T = From; T < End; ++T)
    for (size_t I = 0; I < Alternatives.size(); ++I)
      if (check(Alternatives[I], T)) {
        Alt = static_cast<int>(I);
        return T;
      }
  Alt = -1;
  return End;
}

void DiscreteQueryModule::reset() {
  std::fill(Reserved.begin(), Reserved.end(), 0);
  std::fill(Owner.begin(), Owner.end(), -1);
  Instances.clear();
  retireCounters();
}

size_t DiscreteQueryModule::reservedTableBytes() const {
  return Reserved.size() * sizeof(uint8_t) + Owner.size() * sizeof(InstanceId);
}

DiscreteQueryModule::Snapshot DiscreteQueryModule::snapshot() const {
  Snapshot S;
  S.Reserved = Reserved;
  S.Owner = Owner;
  S.NumSlots = NumSlots;
  for (const auto &[Instance, Info] : Instances)
    S.Instances.emplace(Instance, std::make_pair(Info.Op, Info.Cycle));
  S.Counters = Counters;
  return S;
}

void DiscreteQueryModule::restore(const Snapshot &S) {
  Reserved = S.Reserved;
  Owner = S.Owner;
  NumSlots = S.NumSlots;
  Instances.clear();
  for (const auto &[Instance, Info] : S.Instances)
    Instances.emplace(Instance, InstanceInfo{Info.first, Info.second});
  // Rewind accounting with the state: a restored module reports exactly
  // the work of the branch that was kept (see Snapshot's doc comment).
  Counters = S.Counters;
}

void DiscreteQueryModule::renderOccupancy(std::ostream &OS, int FirstCycle,
                                          int LastCycle) const {
  assert(FirstCycle <= LastCycle && "empty occupancy window");
  size_t NameWidth = 0;
  for (ResourceId R = 0; R < NumResources; ++R)
    NameWidth = std::max(NameWidth, MD.resourceName(R).size());

  OS << std::string(NameWidth, ' ') << " |";
  for (int C = FirstCycle; C <= LastCycle; ++C)
    OS << ' ' << std::setw(3) << C;
  OS << '\n';

  for (ResourceId R = 0; R < NumResources; ++R) {
    const std::string &Name = MD.resourceName(R);
    OS << Name << std::string(NameWidth - Name.size(), ' ') << " |";
    for (int C = FirstCycle; C <= LastCycle; ++C) {
      int Slot;
      if (Config.Mode == QueryConfig::Modulo) {
        Slot = C % Config.ModuloII;
        if (Slot < 0)
          Slot += Config.ModuloII;
      } else {
        Slot = C - Config.MinCycle;
      }
      size_t Index = static_cast<size_t>(Slot) * NumResources + R;
      if (Slot < 0 || static_cast<size_t>(Slot) >= NumSlots ||
          !Reserved[Index])
        OS << "   .";
      else
        OS << ' ' << std::setw(3) << Owner[Index];
    }
    OS << '\n';
  }
}
