//===- perfbench/src/SchedulePath.cpp -------------------------------------===//

#include "SchedulePath.h"

#include "sched/IterativeModuloScheduler.h"
#include "workload/Experiment.h"

#include <cstring>

using namespace rmd;
using namespace rmdbench;

const char *QueryTally::name(int F) {
  static const char *Names[NumFns] = {"check", "check_alt", "assign", "free",
                                      "assign_free"};
  return Names[F];
}

void QueryTally::record(Fn F, uint64_t CallTicks, bool Nested) {
  Ticks[F] += CallTicks;
  ++Calls[F];
  if (Nested) {
    ++NestedChecks;
    return;
  }
  TopLevelTicks += CallTicks;
  ++TopLevelCalls;
}

double QueryTally::calibratedTopLevelNs(const TimerCost &Cost) const {
  return topLevelNs() - TopLevelCalls * Cost.InsideNs -
         NestedChecks * Cost.OutsideNs;
}

double QueryTally::calibratedNsPerCall(int F, const TimerCost &Cost) const {
  if (!Calls[F])
    return 0;
  double Ns = Ticks[F] * nsPerTick() - Calls[F] * Cost.InsideNs;
  if (F == CheckAlt)
    Ns -= NestedChecks * Cost.OutsideNs;
  return Ns / Calls[F];
}

namespace {

/// A module whose calls do nothing: what TimedQueryModule costs by itself.
class NullQueryModule final : public ContentionQueryModule {
public:
  NullQueryModule() { PublishWorkToStats = false; }
  bool check(OpId, int) override { return false; }
  void assign(OpId, int, InstanceId) override {}
  void free(OpId, int, InstanceId) override {}
  void assignAndFree(OpId, int, InstanceId, std::vector<InstanceId> &) override {
  }
  void reset() override {}
};

} // namespace

TimerCost rmdbench::calibrateQueryTimer() {
  constexpr int N = 200000;
  // Best of a few rounds, so a preemption does not inflate the estimate.
  TimerCost Best{1e9, 1e9};
  for (int Round = 0; Round < 5; ++Round) {
    QueryTally Tally;
    TimedQueryModule Timed(std::make_unique<NullQueryModule>(), Tally);
    NullQueryModule Bare;
    ContentionQueryModule *Direct = &Bare, *Wrapped = &Timed;
    uint64_t T0 = ticks();
    for (int I = 0; I < N; ++I)
      Direct->check(static_cast<OpId>(I & 7), I);
    uint64_t T1 = ticks();
    for (int I = 0; I < N; ++I)
      Wrapped->check(static_cast<OpId>(I & 7), I);
    uint64_t T2 = ticks();
    double Inside = Tally.Ticks[QueryTally::Check] * nsPerTick() / N;
    double Outside = ((T2 - T1) - (T1 - T0)) * nsPerTick() / N;
    Best.InsideNs = std::min(Best.InsideNs, Inside);
    Best.OutsideNs = std::min(Best.OutsideNs, Outside);
  }
  return Best;
}

TimedQueryModule::TimedQueryModule(std::unique_ptr<ContentionQueryModule> In,
                                   QueryTally &Tally)
    : Inner(std::move(In)), Tally(Tally) {
  PublishWorkToStats = false;
  sync();
}

bool TimedQueryModule::check(OpId Op, int Cycle) {
  uint64_t T0 = ticks();
  bool Free = Inner->check(Op, Cycle);
  Tally.record(QueryTally::Check, ticks() - T0, InAlternatives);
  sync();
  return Free;
}

void TimedQueryModule::assign(OpId Op, int Cycle, InstanceId Instance) {
  uint64_t T0 = ticks();
  Inner->assign(Op, Cycle, Instance);
  Tally.record(QueryTally::Assign, ticks() - T0, false);
  sync();
}

void TimedQueryModule::free(OpId Op, int Cycle, InstanceId Instance) {
  uint64_t T0 = ticks();
  Inner->free(Op, Cycle, Instance);
  Tally.record(QueryTally::Free, ticks() - T0, false);
  sync();
}

void TimedQueryModule::assignAndFree(OpId Op, int Cycle, InstanceId Instance,
                                     std::vector<InstanceId> &Evicted) {
  uint64_t T0 = ticks();
  Inner->assignAndFree(Op, Cycle, Instance, Evicted);
  Tally.record(QueryTally::AssignFree, ticks() - T0, false);
  sync();
}

void TimedQueryModule::reset() {
  Inner->reset();
  sync();
}

int TimedQueryModule::checkWithAlternatives(
    const std::vector<OpId> &Alternatives, int Cycle) {
  uint64_t T0 = ticks();
  InAlternatives = true;
  int Found = ContentionQueryModule::checkWithAlternatives(Alternatives, Cycle);
  InAlternatives = false;
  Tally.record(QueryTally::CheckAlt, ticks() - T0, false);
  return Found;
}

const char *rmdbench::repName(Rep R) {
  return R == Rep::Bitvector ? "bitvector" : "discrete";
}

SchedulePath::SchedulePath(const MachineModel &Model,
                           const std::vector<DepGraph> &Corpus,
                           const MachineDescription &Flat,
                           const std::vector<std::vector<OpId>> &Groups,
                           const MachineDescription &Reduced)
    : Model(Model), Corpus(Corpus), Flat(Flat), Groups(Groups),
      Reduced(Reduced) {}

SchedulePass SchedulePath::run(Rep R, bool UseReduced, SpanLog *Log) {
  SchedulePass P;
  P.Representation = R;
  P.Reduced = UseReduced;
  P.Loops.resize(Corpus.size());

  RepresentationSpec Spec;
  Spec.Kind = R == Rep::Bitvector ? RepresentationSpec::Bitvector
                                  : RepresentationSpec::Discrete;
  Spec.FlatMD = UseReduced ? &Reduced : &Flat;
  QueryEnvironment Env;
  Env.FlatMD = Spec.FlatMD;
  Env.Groups = &Groups;
  auto Factory = makeModuleFactory(Spec);
  uint64_t BuildNs = 0;
  if (Log) {
    const char *BuildSpan = R == Rep::Bitvector ? "query.build.bitvector"
                                                : "query.build.discrete";
    Env.MakeModule = [&, BuildSpan](QueryConfig Config)
        -> std::unique_ptr<ContentionQueryModule> {
      uint64_t T0 = nowNs();
      std::unique_ptr<ContentionQueryModule> Module;
      {
        ScopedSpan S(Log, BuildSpan);
        Module = Factory(Config);
      }
      BuildNs += nowNs() - T0;
      ++P.Counts.ModuleBuilds;
      return std::make_unique<TimedQueryModule>(std::move(Module), P.Tally);
    };
  } else {
    Env.MakeModule = [&](QueryConfig Config) {
      ++P.Counts.ModuleBuilds;
      return Factory(Config);
    };
  }

  ModuloScheduleOptions Options;
  Options.BudgetRatio = 6;
  const char *PassSpan = R == Rep::Bitvector ? "sched.pass.bitvector"
                                             : "sched.pass.discrete";
  uint64_t Start = nowNs();
  {
    ScopedSpan S(Log, UseReduced ? PassSpan : "sched.pass.original");
    P.PassSpan = S.id();
    for (size_t I = 0; I < Corpus.size(); ++I) {
      ModuloScheduleResult SR = moduloSchedule(Corpus[I], Model.MD, Env,
                                               Options);
      LoopSchedule &L = P.Loops[I];
      L.Success = SR.Success;
      L.II = SR.II;
      L.Time = std::move(SR.Time);
      L.Alternative = std::move(SR.Alternative);
      P.Counts.Work.accumulate(SR.Counters);
      P.Counts.Attempts += SR.Stats.DecisionsPerAttempt.size();
      P.Counts.Decisions += SR.Stats.totalDecisions();
      P.Counts.Evictions +=
          SR.Stats.EvictedByResource + SR.Stats.EvictedByDependence;
      P.Counts.IISum += SR.II;
      for (uint32_t C : SR.Stats.ChecksPerDecision)
        P.Counts.Checks += C;
      P.Failed += !SR.Success;
    }
  }
  P.Ms = msSince(Start);
  P.BuildMs = BuildNs / 1e6;
  return P;
}

static bool sameCounts(const ScheduleCounts &A, const ScheduleCounts &B) {
  return std::memcmp(&A.Work, &B.Work, sizeof(WorkCounters)) == 0 &&
         A.Attempts == B.Attempts && A.Decisions == B.Decisions &&
         A.Evictions == B.Evictions && A.Checks == B.Checks &&
         A.ModuleBuilds == B.ModuleBuilds &&
         A.IISum == B.IISum;
}

bool SchedulePath::check(const SchedulePass &P, std::string &Why) {
  std::string Label = std::string(repName(P.Representation)) +
                      (P.Reduced ? "/reduced" : "/original");
  for (size_t I = 0; I < Corpus.size(); ++I)
    if (!(P.Loops[I] == Reference.Loops[I])) {
      Why = "schedule: loop " + std::to_string(I) + " (" +
            Corpus[I].name() + ") differs between " + Label +
            " and discrete/original";
      return false;
    }
  int Key = static_cast<int>(P.Representation) * 2 + P.Reduced;
  auto [It, First] = FirstCounts.try_emplace(Key, P.Counts);
  if (First || sameCounts(It->second, P.Counts))
    return true;
  Why = "schedule: exact counts of " + Label + " differ between passes";
  return false;
}
