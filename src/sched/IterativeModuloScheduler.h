//===- sched/IterativeModuloScheduler.h - Rau's IMS ------------*- C++ -*-===//
///
/// \file
/// The Iterative Modulo Scheduler (Rau, MICRO-27 '94), the paper's driver
/// for the contention query module experiments (Section 8). Key properties
/// reproduced here:
///
///   - operations are scheduled in height-priority order, *not* in cycle
///     order (an unrestricted scheduling model);
///   - a limited number of scheduling decisions may be reversed: a forced
///     placement evicts resource-conflicting operations via assign&free,
///     and operations whose dependences become violated are unscheduled;
///   - the budget is BudgetRatio * N scheduling decisions per II attempt;
///     on exhaustion the scheduler retries with II + 1.
///
/// The scheduler is parameterized over the query module (representation and
/// machine description), so the same scheduling trace can be replayed
/// against original/reduced and discrete/bitvector modules, which is
/// exactly how Tables 5 and 6 are produced.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SCHED_ITERATIVEMODULOSCHEDULER_H
#define RMD_SCHED_ITERATIVEMODULOSCHEDULER_H

#include "query/QueryModule.h"
#include "sched/DepGraph.h"
#include "support/Deadline.h"
#include "support/Degradation.h"
#include "support/Status.h"

#include <functional>
#include <memory>
#include <unordered_map>

namespace rmd {

struct QueryTraceLog;

using ModuleFactory =
    std::function<std::unique_ptr<ContentionQueryModule>(QueryConfig)>;

/// The modulo-mode modules one environment has built, one per II. The
/// first attempt at an II builds its module; every later attempt at that
/// II, in any run through the same environment, resets and reuses it. A
/// reset module answers and counts exactly as a fresh one, and its work
/// reaches the `query.*` stats when the pool (so the environment) goes.
/// Copying a pool yields an empty one: modules never pass between
/// environments, whose factories may differ.
class ModulePool {
public:
  ModulePool() = default;
  ModulePool(const ModulePool &) {}
  ModulePool &operator=(const ModulePool &) {
    ByII.clear();
    return *this;
  }
  ModulePool(ModulePool &&) = default;
  ModulePool &operator=(ModulePool &&) = default;

  /// The module for \p II: reset, or built by \p Make on first use.
  ContentionQueryModule &acquire(const ModuleFactory &Make, int II);

private:
  std::unordered_map<int, std::unique_ptr<ContentionQueryModule>> ByII;
};

/// Everything the scheduler needs to talk to a contention query module:
/// the expanded (single-alternative) description the module is built over,
/// the alternative grouping, and the module factory. The flat description
/// may be the original machine or any equivalent reduction; schedules are
/// identical either way (and tests assert so).
///
/// moduloSchedule() keeps the modules it builds in the environment's pool,
/// so an environment must not be shared by concurrent runs (give each
/// thread its own; a copy starts with an empty pool), and its fields must
/// not change once a run has used it.
struct QueryEnvironment {
  const MachineDescription *FlatMD = nullptr;
  const std::vector<std::vector<OpId>> *Groups = nullptr;
  ModuleFactory MakeModule;
  /// Declared last, so the modules go before the factory they came from.
  mutable ModulePool Pool;
};

/// Priority function selecting the next operation to place. Rau found
/// height-based priority (critical path first) best; the alternatives
/// exist for the scheduler_priority_ablation benchmark.
enum class SchedulePriority {
  /// Longest path to the end of the iteration (Rau's HeightR). Default.
  Height,
  /// Longest path from the start of the iteration (top-down).
  Depth,
  /// Node order as given (a naive baseline).
  SourceOrder,
};

/// Tuning knobs of the IMS.
struct ModuloScheduleOptions {
  /// Scheduling-decision budget per attempt, as a multiple of N (the
  /// paper uses 6N, and 2N for the sensitivity experiment).
  int BudgetRatio = 6;

  /// Hard II ceiling; 0 selects MII + 128.
  int MaxII = 0;

  /// Operation-selection priority.
  SchedulePriority Priority = SchedulePriority::Height;

  /// When non-null, every query-module call of every II attempt is
  /// recorded: one trace segment per attempt, configured modulo(II) and
  /// labelled with the flat machine's name, replayable standalone against
  /// any module built over an equivalent description
  /// (verify/QueryTrace.h).
  QueryTraceLog *TraceLog = nullptr;

  /// Wall-clock budget: polled between scheduling decisions and II
  /// attempts; on expiry the scheduler returns best-so-far with a
  /// TimedOut outcome instead of grinding II escalation.
  Deadline TheDeadline = Deadline::never();

  /// Cooperative cancellation (e.g. a serving thread abandoning a
  /// request); polled at the same points as the deadline.
  const CancellationToken *Cancel = nullptr;
};

/// Statistics of one scheduling run (Table 5 / Table 6 inputs).
struct ModuloScheduleStats {
  int ResMII = 0;
  int RecMII = 0;
  int MII = 0;
  int II = 0;

  /// Scheduling decisions (operation placements) per II attempt, in
  /// attempt order; failed attempts included.
  std::vector<uint64_t> DecisionsPerAttempt;

  /// Operations unscheduled because a forced placement took their
  /// resources (via assign&free).
  uint64_t EvictedByResource = 0;

  /// Operations unscheduled because a placement violated their dependence
  /// constraints.
  uint64_t EvictedByDependence = 0;

  /// Number of check queries issued per scheduling decision (the paper's
  /// distribution: 4.74 average, 49.5% single-query, ...).
  std::vector<uint32_t> ChecksPerDecision;

  /// True if any assign&free call evicted at least one operation.
  bool UsedAssignFreeEviction = false;

  /// Number of assign&free calls that evicted at least one operation (the
  /// paper reports this as a fraction of calls: 13.0%).
  uint64_t AssignFreeCallsWithEviction = 0;

  uint64_t totalDecisions() const {
    uint64_t Total = 0;
    for (uint64_t D : DecisionsPerAttempt)
      Total += D;
    return Total;
  }

  /// Degradation events of this run (timeouts, infeasible-recurrence
  /// rejections); also tallied in globalDegradation().
  DegradationCounters Degradation;
};

/// Why a scheduling run ended.
enum class ScheduleOutcome {
  /// A complete schedule was found (Success == true).
  Scheduled,
  /// No II up to the ceiling admitted a schedule within budget.
  CeilingReached,
  /// The dependence graph has a zero-distance positive-delay cycle; see
  /// Error for the named cycle.
  InfeasibleRecurrence,
  /// The deadline expired; Time/Alternative hold the best-so-far partial
  /// placement of the interrupted attempt.
  TimedOut,
  /// The cancellation token was triggered; partial placement as TimedOut.
  Cancelled,
};

/// The outcome of moduloSchedule().
struct ModuloScheduleResult {
  bool Success = false;
  ScheduleOutcome Outcome = ScheduleOutcome::CeilingReached;
  /// Non-ok when Outcome is a structured failure (InfeasibleRecurrence,
  /// TimedOut, Cancelled).
  Status Error;
  int II = 0;
  /// Issue cycle per node (valid on success; on TimedOut/Cancelled the
  /// partial placement of the interrupted attempt, where entries with
  /// Alternative[n] < 0 were unplaced).
  std::vector<int> Time;
  /// Chosen alternative per node (valid on success; -1 = unplaced in a
  /// partial result).
  std::vector<int> Alternative;
  ModuloScheduleStats Stats;
  /// Query-module work accumulated over every attempt.
  WorkCounters Counters;
};

/// Modulo-schedules \p G against \p Env. \p MD is the *original* machine
/// (with alternatives), used for the ResMII bound. Returns Success == false
/// only if no II up to the ceiling admits a schedule within budget, the
/// recurrences are infeasible, or the deadline/cancellation interrupted the
/// run (see Outcome); never aborts on input-triggered conditions.
ModuloScheduleResult moduloSchedule(const DepGraph &G,
                                    const MachineDescription &MD,
                                    const QueryEnvironment &Env,
                                    const ModuloScheduleOptions &Options = {});

} // namespace rmd

#endif // RMD_SCHED_ITERATIVEMODULOSCHEDULER_H
