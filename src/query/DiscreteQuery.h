//===- query/DiscreteQuery.h - Discrete reserved table ---------*- C++ -*-===//
///
/// \file
/// The discrete representation of Section 5/7: the reserved table has one
/// entry per (resource, cycle), holding a reserved flag and the identity of
/// the operation instance that consumes the resource (as in Rau's Iterative
/// Modulo Scheduler). Every basic function iterates over the resource
/// usages of the queried operation's reservation table; one usage handled
/// is one work unit.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_QUERY_DISCRETEQUERY_H
#define RMD_QUERY_DISCRETEQUERY_H

#include "query/QueryModule.h"

#include <iosfwd>
#include <unordered_map>

namespace rmd {

/// True if \p RT collides with itself under a modulo reservation table of
/// initiation interval \p II: two usages of one resource land in the same
/// slot. Such an operation cannot be modulo-scheduled at that II.
bool hasModuloSelfConflict(const ReservationTable &RT, int II);

/// Discrete-representation contention query module. Final so the window
/// scan below calls check() directly.
class DiscreteQueryModule final : public ContentionQueryModule {
public:
  /// \p MD must be expanded. The module keeps a reference to \p MD; it must
  /// outlive the module.
  DiscreteQueryModule(const MachineDescription &MD, QueryConfig Config);

  bool check(OpId Op, int Cycle) override;
  void assign(OpId Op, int Cycle, InstanceId Instance) override;
  void free(OpId Op, int Cycle, InstanceId Instance) override;
  void assignAndFree(OpId Op, int Cycle, InstanceId Instance,
                     std::vector<InstanceId> &Evicted) override;
  void reset() override;

  /// The base class's window scan over this module's check().
  int firstFreeSlot(const std::vector<OpId> &Alternatives, int From,
                    int Count, int &Alt) override;

  /// Bytes of reserved-table storage currently allocated (memory metric).
  size_t reservedTableBytes() const;

  /// Renders the occupancy of cycles [\p FirstCycle, \p LastCycle]: one
  /// row per resource, owner instance ids in the cells ('.' = free). The
  /// scheduler-debugging view of the reserved table.
  void renderOccupancy(std::ostream &OS, int FirstCycle,
                       int LastCycle) const;

  /// An opaque copy of the module's entire schedule state. Schedulers that
  /// explore alternatives (e.g. trying several II offsets before
  /// committing) snapshot, mutate, and restore. Work counters are part of
  /// the snapshot: restore() rewinds them to the snapshot point, so a
  /// discarded search branch leaves no trace in Table 6 accounting — the
  /// caller that wants to bill abandoned work can accumulate() the
  /// pre-restore counters explicitly.
  struct Snapshot {
    std::vector<uint8_t> Reserved;
    std::vector<InstanceId> Owner;
    size_t NumSlots = 0;
    std::unordered_map<InstanceId, std::pair<OpId, int>> Instances;
    WorkCounters Counters;
  };

  Snapshot snapshot() const;
  void restore(const Snapshot &S);

private:
  /// Maps a schedule cycle and usage offset to a reserved-table slot index,
  /// growing the table in Linear mode as needed.
  size_t slotIndex(int Cycle, int UsageCycle);

  /// Releases every reservation of \p Instance (eviction path); counts one
  /// unit per usage into AssignFreeUnits.
  void evict(InstanceId Instance);

  void ensureCycles(size_t CycleCount);

  const MachineDescription &MD;
  QueryConfig Config;
  size_t NumResources;

  /// Reserved flags and owners, row-major by cycle slot:
  /// index = slot * NumResources + resource.
  std::vector<uint8_t> Reserved;
  std::vector<InstanceId> Owner;
  size_t NumSlots = 0;

  struct InstanceInfo {
    OpId Op;
    int Cycle;
  };
  std::unordered_map<InstanceId, InstanceInfo> Instances;

  /// Modulo mode: SelfConflict[op] is true when two usages of op map to the
  /// same (resource, slot) under this II; such an op can never be placed.
  std::vector<uint8_t> SelfConflict;
};

} // namespace rmd

#endif // RMD_QUERY_DISCRETEQUERY_H
