//===- sched/IterativeModuloScheduler.cpp ---------------------------------===//

#include "sched/IterativeModuloScheduler.h"

#include "query/DiscreteQuery.h" // hasModuloSelfConflict
#include "sched/MII.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "verify/QueryTrace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>

using namespace rmd;

namespace {

/// Per-attempt scheduling state (kept across attempts to reuse storage).
struct AttemptState {
  std::vector<bool> Scheduled;
  std::vector<bool> EverScheduled;
  std::vector<int> Time;
  std::vector<int> Alternative;
  std::vector<int> PrevTime;
  std::vector<uint32_t> ForcedCount;

  /// Node ids by priority, highest first (ties: ascending id), and each
  /// node's position in that order.
  std::vector<NodeId> ByRank;
  std::vector<uint32_t> Rank;
  /// Bitset over ranks: set while the node of that rank is unscheduled.
  std::vector<uint64_t> Pending;

  /// Per flat OpId: whether the op's table is free of modulo
  /// self-conflicts at this attempt's II (Unknown until first asked).
  enum : uint8_t { Unknown, Feasible, Infeasible };
  std::vector<uint8_t> OpFeasible;

  void markPending(NodeId V) {
    Pending[Rank[V] / 64] |= 1ull << (Rank[V] % 64);
  }
  void clearPending(NodeId V) {
    Pending[Rank[V] / 64] &= ~(1ull << (Rank[V] % 64));
  }
  /// The highest-priority unscheduled node; requires one to exist.
  NodeId nextPending() const {
    size_t W = 0;
    while (Pending[W] == 0)
      ++W;
    return ByRank[W * 64 + std::countr_zero(Pending[W])];
  }
};

/// Height-based priority at a given II: HeightR(v) = max over edges v->s of
/// HeightR(s) + Delay - II*Distance, computed by relaxation (converges for
/// II >= RecMII, where no positive cycle exists). Heights flow from
/// successors to predecessors, and edges mostly follow node order, so the
/// relaxation walks the edges last to first: the fixpoint is the same, and
/// it takes fewer passes to reach.
std::vector<long long> computeHeights(const DepGraph &G, int II) {
  std::vector<long long> Height(G.numNodes(), 0);
  const std::vector<DepEdge> &Edges = G.edges();
  for (size_t Pass = 0; Pass <= G.numNodes() + 1; ++Pass) {
    bool Changed = false;
    for (auto It = Edges.rbegin(); It != Edges.rend(); ++It) {
      const DepEdge &E = *It;
      long long Candidate =
          Height[E.To] + E.Delay - static_cast<long long>(II) * E.Distance;
      if (Candidate > Height[E.From]) {
        Height[E.From] = Candidate;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Height;
}

/// The selected priority values; larger schedules earlier.
std::vector<long long> computePriorities(const DepGraph &G, int II,
                                         SchedulePriority Kind) {
  switch (Kind) {
  case SchedulePriority::Height:
    return computeHeights(G, II);
  case SchedulePriority::Depth: {
    // Longest path from the iteration start (forward relaxation).
    std::vector<long long> Depth(G.numNodes(), 0);
    for (size_t Pass = 0; Pass <= G.numNodes() + 1; ++Pass) {
      bool Changed = false;
      for (const DepEdge &E : G.edges()) {
        long long Candidate =
            Depth[E.From] + E.Delay - static_cast<long long>(II) * E.Distance;
        if (Candidate > Depth[E.To]) {
          Depth[E.To] = Candidate;
          Changed = true;
        }
      }
      if (!Changed)
        break;
    }
    return Depth;
  }
  case SchedulePriority::SourceOrder: {
    std::vector<long long> Priority(G.numNodes());
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Priority[N] = static_cast<long long>(G.numNodes() - N);
    return Priority;
  }
  }
  return std::vector<long long>(G.numNodes(), 0);
}

/// How one II attempt ended.
enum class AttemptEnd {
  /// Complete schedule found within budget.
  Complete,
  /// Decision budget exhausted (or no II-feasible alternative); the caller
  /// escalates to II + 1.
  BudgetExhausted,
  /// Deadline expired or cancellation requested mid-attempt; the caller
  /// returns best-so-far instead of escalating.
  Interrupted,
};

} // namespace

ContentionQueryModule &ModulePool::acquire(const ModuleFactory &Make, int II) {
  std::unique_ptr<ContentionQueryModule> &Module = ByII[II];
  if (Module)
    Module->reset();
  else
    Module = Make(QueryConfig::modulo(II));
  return *Module;
}

/// One II attempt. On Interrupted, S holds the partial placement with
/// S.Alternative[v] == -1 for every node not scheduled at the interrupt.
static AttemptEnd
attemptSchedule(const DepGraph &G, const QueryEnvironment &Env, int II,
                uint64_t Budget, const ModuloScheduleOptions &Options,
                AttemptState &S, ModuloScheduleStats &Stats,
                uint64_t &DecisionsThisAttempt, WorkCounters &Accum,
                ScheduleOutcome &Interrupt) {
  SchedulePriority Kind = Options.Priority;
  QueryTraceLog *TraceLog = Options.TraceLog;
  const auto &Groups = *Env.Groups;
  const MachineDescription &Flat = *Env.FlatMD;
  size_t N = G.numNodes();

  // Alternatives that collide with their own modulo copies at this II can
  // never be placed; if some node has no feasible alternative, the attempt
  // fails immediately (the scheduler must raise the II). The verdict is a
  // property of the flat op, so it is computed once per distinct op.
  S.OpFeasible.assign(Flat.numOperations(), AttemptState::Unknown);
  auto feasible = [&](OpId Op) {
    uint8_t &Verdict = S.OpFeasible[Op];
    if (Verdict == AttemptState::Unknown)
      Verdict = hasModuloSelfConflict(Flat.operation(Op).table(), II)
                    ? AttemptState::Infeasible
                    : AttemptState::Feasible;
    return Verdict == AttemptState::Feasible;
  };
  for (NodeId V = 0; V < N; ++V) {
    bool Any = false;
    for (OpId Op : Groups[G.opOf(V)])
      Any |= feasible(Op);
    if (!Any)
      return AttemptEnd::BudgetExhausted;
  }

  // The environment's module for this II, fresh or reset (the reset is
  // not a traced call: a segment replays against a fresh module).
  ContentionQueryModule &Module = Env.Pool.acquire(Env.MakeModule, II);

  // Opt-in recording: one trace segment per II attempt, routed through a
  // pass-through tracer. Counters stay on the inner module, so accounting
  // (ChecksPerDecision, the accumulated totals) is unchanged by tracing.
  std::optional<TracingQueryModule> Tracer;
  if (TraceLog)
    Tracer.emplace(Module, TraceLog->beginSegment(Flat.name(),
                                                  QueryConfig::modulo(II)));
  ContentionQueryModule &Q =
      TraceLog ? static_cast<ContentionQueryModule &>(*Tracer) : Module;

  // Rank the nodes once per attempt: descending priority, equal priorities
  // in ascending id order (the tie rule of a strict-> scan over the ids).
  std::vector<long long> Height = computePriorities(G, II, Kind);
  S.ByRank.resize(N);
  for (NodeId V = 0; V < N; ++V)
    S.ByRank[V] = V;
  std::sort(S.ByRank.begin(), S.ByRank.end(), [&](NodeId A, NodeId B) {
    return Height[A] != Height[B] ? Height[A] > Height[B] : A < B;
  });
  S.Rank.resize(N);
  for (size_t R = 0; R < N; ++R)
    S.Rank[S.ByRank[R]] = static_cast<uint32_t>(R);
  S.Pending.assign((N + 63) / 64, 0);
  for (NodeId V = 0; V < N; ++V)
    S.markPending(V);

  S.Scheduled.assign(N, false);
  S.EverScheduled.assign(N, false);
  S.Time.assign(N, 0);
  S.Alternative.assign(N, -1);
  S.PrevTime.assign(N, 0);
  S.ForcedCount.assign(N, 0);

  DecisionsThisAttempt = 0;
  size_t NumScheduled = 0;

  while (NumScheduled < N) {
    // Wall-clock / cancellation poll, once per scheduling decision: cheap
    // (one steady_clock read at most) relative to the window scan each
    // decision performs.
    bool WantCancel = Options.Cancel && Options.Cancel->cancelled();
    bool WantStop = WantCancel || Options.TheDeadline.expired() ||
                    FaultInjection::fire(faultpoints::SchedDeadline);
    if (WantStop) {
      for (NodeId U = 0; U < N; ++U)
        if (!S.Scheduled[U])
          S.Alternative[U] = -1;
      Accum.accumulate(Module.counters());
      Interrupt = WantCancel ? ScheduleOutcome::Cancelled
                             : ScheduleOutcome::TimedOut;
      return AttemptEnd::Interrupted;
    }

    if (DecisionsThisAttempt >= Budget) {
      Accum.accumulate(Module.counters());
      return AttemptEnd::BudgetExhausted;
    }

    // Highest-priority unscheduled operation (ties: lowest id): the first
    // set bit of the rank-ordered pending set.
    NodeId V = S.nextPending();
    assert(!S.Scheduled[V] && "pending set out of sync with Scheduled");

    // Earliest start from currently scheduled predecessors.
    int Estart = 0;
    for (uint32_t EIdx : G.predEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.From != V && S.Scheduled[E.From])
        Estart = std::max(Estart,
                          S.Time[E.From] + E.Delay - II * E.Distance);
    }

    const std::vector<OpId> &Alts = Groups[G.opOf(V)];
    uint64_t ChecksBefore = Module.counters().CheckCalls;

    // Scan one II window for a contention-free slot.
    int Alt;
    int Slot = Q.firstFreeSlot(Alts, Estart, II, Alt);

    if (Alt >= 0) {
      // The IMS schedules through assign&free even for conflict-free slots
      // (Section 8: the benchmark issues no plain assign calls); eviction
      // cannot happen here since check() just succeeded.
      std::vector<InstanceId> Evicted;
      Q.assignAndFree(Alts[Alt], Slot, static_cast<InstanceId>(V), Evicted);
      assert(Evicted.empty() && "eviction on a checked-free slot");
    } else {
      // Forced placement (Rau): at Estart, or just past the previous
      // placement when re-scheduling at the same spot.
      Slot = (!S.EverScheduled[V] || Estart > S.PrevTime[V])
                 ? Estart
                 : S.PrevTime[V] + 1;
      // Rotate through the II-feasible alternatives. Each draw advances the
      // rotation by one position, so Alts.size() draws cover every
      // alternative exactly once — the up-front feasibility scan guarantees
      // a feasible one is among them. If that invariant ever breaks, raise
      // the II through the normal escalation path rather than silently
      // placing an infeasible alternative (the old assert-only guard
      // vanished in NDEBUG builds).
      unsigned Tried = 0;
      do {
        Alt = static_cast<int>(S.ForcedCount[V]++ % Alts.size());
        ++Tried;
      } while (!feasible(Alts[Alt]) && Tried < Alts.size());
      if (!feasible(Alts[Alt])) {
        Accum.accumulate(Module.counters());
        return AttemptEnd::BudgetExhausted;
      }

      std::vector<InstanceId> Evicted;
      Q.assignAndFree(Alts[Alt], Slot, static_cast<InstanceId>(V), Evicted);
      if (!Evicted.empty())
        ++Stats.AssignFreeCallsWithEviction;
      for (InstanceId Victim : Evicted) {
        assert(Victim >= 0 && static_cast<size_t>(Victim) < N &&
               S.Scheduled[Victim] && "evicted an unknown instance");
        S.Scheduled[Victim] = false;
        S.markPending(static_cast<NodeId>(Victim));
        --NumScheduled;
        ++Stats.EvictedByResource;
        Stats.UsedAssignFreeEviction = true;
      }
    }

    S.Time[V] = Slot;
    S.Alternative[V] = Alt;
    S.PrevTime[V] = Slot;
    S.EverScheduled[V] = true;
    S.Scheduled[V] = true;
    S.clearPending(V);
    ++NumScheduled;
    ++DecisionsThisAttempt;
    Stats.ChecksPerDecision.push_back(static_cast<uint32_t>(
        Module.counters().CheckCalls - ChecksBefore));

    // Unschedule operations whose dependences the new placement violates.
    auto unschedule = [&](NodeId W) {
      Q.free(Groups[G.opOf(W)][S.Alternative[W]], S.Time[W],
             static_cast<InstanceId>(W));
      S.Scheduled[W] = false;
      S.markPending(W);
      --NumScheduled;
      ++Stats.EvictedByDependence;
    };
    for (uint32_t EIdx : G.succEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.To != V && S.Scheduled[E.To] &&
          S.Time[E.To] < Slot + E.Delay - II * E.Distance)
        unschedule(E.To);
    }
    for (uint32_t EIdx : G.predEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.From != V && S.Scheduled[E.From] &&
          Slot < S.Time[E.From] + E.Delay - II * E.Distance)
        unschedule(E.From);
    }
  }

  Accum.accumulate(Module.counters());
  return AttemptEnd::Complete;
}

ModuloScheduleResult
rmd::moduloSchedule(const DepGraph &G, const MachineDescription &MD,
                    const QueryEnvironment &Env,
                    const ModuloScheduleOptions &Options) {
  assert(Env.FlatMD && Env.Groups && Env.MakeModule &&
         "incomplete query environment");
  assert(G.numNodes() > 0 && "cannot schedule an empty graph");

  ModuloScheduleResult Result;

  // Published on every exit path (success, infeasible recurrence, timeout,
  // ceiling) by the scope guard below, so stats snapshots account for every
  // run. All values derive from the deterministic scheduling loop.
  struct StatsPublisher {
    ModuloScheduleResult &R;
    ~StatsPublisher() {
      static StatCounter Runs("sched.ims.runs");
      static StatCounter Attempts("sched.ims.attempts");
      static StatCounter Decisions("sched.ims.decisions");
      static StatCounter EvictedRes("sched.ims.evicted_resource");
      static StatCounter EvictedDep("sched.ims.evicted_dependence");
      static StatCounter Scheduled("sched.ims.scheduled");
      static StatCounter IITotal("sched.ims.ii_total");
      static StatCounter MIITotal("sched.ims.mii_total");
      static StatCounter IIExcess("sched.ims.ii_excess");
      static StatHistogram Checks("sched.ims.checks_per_decision");
      Runs.add();
      Attempts.add(R.Stats.DecisionsPerAttempt.size());
      uint64_t TotalDecisions = 0;
      for (uint64_t D : R.Stats.DecisionsPerAttempt)
        TotalDecisions += D;
      Decisions.add(TotalDecisions);
      EvictedRes.add(R.Stats.EvictedByResource);
      EvictedDep.add(R.Stats.EvictedByDependence);
      Checks.recordAll(R.Stats.ChecksPerDecision.data(),
                       R.Stats.ChecksPerDecision.size());
      if (R.Success) {
        Scheduled.add();
        IITotal.add(static_cast<uint64_t>(R.Stats.II));
        MIITotal.add(static_cast<uint64_t>(R.Stats.MII));
        IIExcess.add(static_cast<uint64_t>(R.Stats.II - R.Stats.MII));
      }
    }
  } Publisher{Result};

  Result.Stats.ResMII = computeResMII(MD, G);
  Expected<int> RecMII = computeRecMIIChecked(G);
  if (!RecMII) {
    Result.Outcome = ScheduleOutcome::InfeasibleRecurrence;
    Result.Error = RecMII.status();
    Result.Stats.Degradation.InfeasibleRecurrences += 1;
    globalDegradation().noteInfeasibleRecurrence();
    return Result;
  }
  Result.Stats.RecMII = RecMII.value();
  Result.Stats.MII = std::max(Result.Stats.ResMII, Result.Stats.RecMII);

  int MaxII = Options.MaxII > 0 ? Options.MaxII : Result.Stats.MII + 128;
  uint64_t Budget =
      static_cast<uint64_t>(Options.BudgetRatio) * G.numNodes();

  AttemptState S;
  for (int II = Result.Stats.MII; II <= MaxII; ++II) {
    uint64_t Decisions = 0;
    ScheduleOutcome Interrupt = ScheduleOutcome::TimedOut;
    AttemptEnd End =
        attemptSchedule(G, Env, II, Budget, Options, S, Result.Stats,
                        Decisions, Result.Counters, Interrupt);
    Result.Stats.DecisionsPerAttempt.push_back(Decisions);
    if (End == AttemptEnd::Complete) {
      Result.Success = true;
      Result.Outcome = ScheduleOutcome::Scheduled;
      Result.II = II;
      Result.Stats.II = II;
      Result.Time = S.Time;
      Result.Alternative = S.Alternative;
      assert(G.scheduleRespectsDependences(Result.Time, II) &&
             "IMS produced a dependence-violating schedule");
      return Result;
    }
    if (End == AttemptEnd::Interrupted) {
      // Best-so-far: the partial placement of the interrupted attempt
      // (unplaced nodes carry Alternative == -1).
      Result.Outcome = Interrupt;
      Result.Error =
          Interrupt == ScheduleOutcome::Cancelled
              ? Status(ErrorCode::Cancelled,
                       "scheduling cancelled at II=" + std::to_string(II))
              : Status(ErrorCode::TimedOut,
                       "scheduling deadline expired at II=" +
                           std::to_string(II));
      Result.II = II;
      Result.Stats.II = II;
      Result.Time = S.Time;
      Result.Alternative = S.Alternative;
      Result.Stats.Degradation.SchedulerTimeouts += 1;
      globalDegradation().noteSchedulerTimeout();
      return Result;
    }
  }
  Result.Outcome = ScheduleOutcome::CeilingReached;
  return Result;
}
