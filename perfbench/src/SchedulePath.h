//===- perfbench/src/SchedulePath.h - IMS over the loop corpus --*- C++ -*-===//
///
/// \file
/// The schedule path: Rau's Iterative Modulo Scheduler over the seeded
/// Cydra 5 loop corpus at a 6N decision budget, against one query-module
/// configuration per pass (bitvector or discrete, over the reduced or the
/// original description). A traced pass installs TimedQueryModule through
/// QueryEnvironment::MakeModule, timing the module factory and every query
/// call from outside the query layer.
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_SCHEDULEPATH_H
#define RMDBENCH_SCHEDULEPATH_H

#include "Measure.h"

#include "machines/MachineModel.h"
#include "query/QueryModule.h"
#include "sched/DepGraph.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace rmdbench {

/// Per-function call times in ticks(), accumulated by TimedQueryModule.
struct QueryTally {
  enum Fn { Check, CheckAlt, Assign, Free, AssignFree, NumFns };
  static const char *name(int F);

  uint64_t Ticks[NumFns] = {};
  uint64_t Calls[NumFns] = {};
  /// Timed checks issued from inside a timed check-with-alternatives; their
  /// timer cost lands inside the enclosing call's time.
  uint64_t NestedChecks = 0;
  /// Raw time and count of the calls the scheduler made itself (all but
  /// the nested checks).
  uint64_t TopLevelTicks = 0;
  uint64_t TopLevelCalls = 0;

  void record(Fn F, uint64_t CallTicks, bool Nested);

  double topLevelNs() const { return TopLevelTicks * nsPerTick(); }

  /// Query time with the timer cost taken out: every call's own reading
  /// loses one inside cost, an enclosing call one outside cost per nested
  /// timed check. Top-level calls only (nested checks are inside check-alt).
  double calibratedTopLevelNs(const TimerCost &Cost) const;
  /// Calibrated ns per call of \p F; 0 when \p F was never called.
  double calibratedNsPerCall(int F, const TimerCost &Cost) const;
};

/// A pass-through ContentionQueryModule that times each call into the
/// wrapped module. Counters mirror the inner module's, so the scheduler's
/// accounting is unchanged; the inner module publishes its own work.
class TimedQueryModule final : public rmd::ContentionQueryModule {
public:
  TimedQueryModule(std::unique_ptr<rmd::ContentionQueryModule> Inner,
                   QueryTally &Tally);

  bool check(rmd::OpId Op, int Cycle) override;
  void assign(rmd::OpId Op, int Cycle, rmd::InstanceId Instance) override;
  void free(rmd::OpId Op, int Cycle, rmd::InstanceId Instance) override;
  void assignAndFree(rmd::OpId Op, int Cycle, rmd::InstanceId Instance,
                     std::vector<rmd::InstanceId> &Evicted) override;
  void reset() override;
  /// The base class's first-fit loop over this module's timed check(),
  /// which is what the wrapped modules run too (the benchmark never turns
  /// on the bitvector union fast path).
  int checkWithAlternatives(const std::vector<rmd::OpId> &Alternatives,
                            int Cycle) override;

private:
  void sync() { Counters = Inner->counters(); }

  std::unique_ptr<rmd::ContentionQueryModule> Inner;
  QueryTally &Tally;
  bool InAlternatives = false;
};

/// The timer cost of TimedQueryModule itself, measured around a module
/// whose calls do nothing (the empty span of a query call).
TimerCost calibrateQueryTimer();

enum class Rep { Bitvector, Discrete };
const char *repName(Rep R);

/// What one loop's schedule must agree on across representations.
struct LoopSchedule {
  bool Success = false;
  int II = 0;
  std::vector<int> Time;
  std::vector<int> Alternative;
  bool operator==(const LoopSchedule &) const = default;
};

/// Exact counts of one pass.
struct ScheduleCounts {
  rmd::WorkCounters Work;
  uint64_t Attempts = 0;
  uint64_t Decisions = 0;
  uint64_t Evictions = 0;
  uint64_t Checks = 0; ///< check calls over all decisions
  uint64_t ModuleBuilds = 0;
  uint64_t IISum = 0;
};

struct SchedulePass {
  Rep Representation = Rep::Bitvector;
  bool Reduced = true;
  double Ms = 0;
  std::vector<LoopSchedule> Loops;
  ScheduleCounts Counts;
  uint64_t Failed = 0;
  /// Traced passes only.
  double BuildMs = 0;
  int32_t PassSpan = -1;
  QueryTally Tally;
};

class SchedulePath {
public:
  /// \p Model is the Cydra 5 model the corpus is bound to; \p Corpus the
  /// loops; \p Reduced the reduction of the model's expanded description.
  SchedulePath(const rmd::MachineModel &Model,
               const std::vector<rmd::DepGraph> &Corpus,
               const rmd::MachineDescription &Flat,
               const std::vector<std::vector<rmd::OpId>> &Groups,
               const rmd::MachineDescription &Reduced);

  /// One pass over the corpus; traced when \p Log is non-null (spans for
  /// the pass and each module build; query calls go to the pass's tally).
  SchedulePass run(Rep R, bool UseReduced, SpanLog *Log);

  /// Theorem 1 gate, outside the clock: every loop's II, issue cycles and
  /// alternatives equal the discrete/original pass's, and the exact counts
  /// equal the first pass of the same configuration.
  bool check(const SchedulePass &P, std::string &Why);

  /// The discrete/original reference pass; run() it once before check().
  void setReference(SchedulePass P) { Reference = std::move(P); }

private:
  const rmd::MachineModel &Model;
  const std::vector<rmd::DepGraph> &Corpus;
  const rmd::MachineDescription &Flat;
  const std::vector<std::vector<rmd::OpId>> &Groups;
  const rmd::MachineDescription &Reduced;
  SchedulePass Reference;
  std::map<int, ScheduleCounts> FirstCounts; // by configuration
};

} // namespace rmdbench

#endif // RMDBENCH_SCHEDULEPATH_H
