//===- reduce/Reduction.cpp -----------------------------------------------===//

#include "reduce/Reduction.h"

#include "reduce/Metrics.h"
#include "support/FatalError.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/TraceSpan.h"

#include <algorithm>
#include <exception>
#include <limits>

using namespace rmd;

MachineDescription
rmd::buildReducedDescription(const MachineDescription &MD,
                             const std::vector<SynthesizedResource> &Pruned,
                             const SelectionResult &Selection,
                             const std::string &NameSuffix) {
  assert(Selection.SelectedUsages.size() == Pruned.size() &&
         "selection does not match pruned set");

  MachineDescription Reduced(MD.name() + NameSuffix);

  // Collect one reservation row per resource with selections; translate
  // each row so its earliest selected usage is at cycle 0.
  std::vector<std::vector<ResourceUsage>> PerOp(MD.numOperations());
  unsigned NumRows = 0;
  for (size_t R = 0; R < Pruned.size(); ++R) {
    const auto &Usages = Selection.SelectedUsages[R];
    if (Usages.empty())
      continue;
    int MinCycle = std::numeric_limits<int>::max();
    for (const SynthUsage &U : Usages)
      MinCycle = std::min(MinCycle, U.Cycle);
    ResourceId Row = Reduced.addResource("q" + std::to_string(NumRows));
    ++NumRows;
    for (const SynthUsage &U : Usages)
      PerOp[U.Op].push_back(ResourceUsage{Row, U.Cycle - MinCycle});
  }

  for (OpId Op = 0; Op < MD.numOperations(); ++Op)
    Reduced.addOperation(MD.operation(Op).Name,
                         ReservationTable(std::move(PerOp[Op])));
  return Reduced;
}

bool rmd::verifyEquivalence(const MachineDescription &A,
                            const MachineDescription &B) {
  if (A.numOperations() != B.numOperations())
    return false;
  return ForbiddenLatencyMatrix::compute(A) ==
         ForbiddenLatencyMatrix::compute(B);
}

/// The pipeline body of reduceMachineChecked(), free to throw (thread-pool
/// rethrows propagate out of the parallel phases).
static Expected<ReductionResult>
reduceMachineImpl(const MachineDescription &MD,
                  const ReductionOptions &Options) {
  assert(MD.isExpanded() &&
         "reduceMachine requires an expanded machine; call "
         "expandAlternatives() first");

  TraceSpan ReduceSpan("reduce");
  static StatCounter GenSizeStat("reduce.generating_set_size");
  static StatCounter PrunedSizeStat("reduce.pruned_set_size");
  static StatCounter CoveredStat("reduce.covered_latencies");

  // One pool for every parallel phase; a single-thread pool runs inline.
  ThreadPool Pool(ThreadPool::resolveThreadCount(Options.Threads));
  ThreadPool *PoolPtr = Pool.concurrency() > 1 ? &Pool : nullptr;

  ForbiddenLatencyMatrix FLM = [&] {
    TraceSpan Span("flm");
    return ForbiddenLatencyMatrix::compute(MD, PoolPtr);
  }();

  ReductionResult Result;
  std::vector<SynthesizedResource> Generating = [&] {
    TraceSpan Span("fold");
    return buildGeneratingSet(FLM, Options.Trace, PoolPtr);
  }();
  Result.GeneratingSetSize = Generating.size();
  GenSizeStat.add(Result.GeneratingSetSize);

  std::vector<SynthesizedResource> Pruned = [&] {
    TraceSpan Span("prune");
    return pruneGeneratingSet(std::move(Generating));
  }();
  Result.PrunedSetSize = Pruned.size();
  PrunedSizeStat.add(Result.PrunedSetSize);

  SelectionResult Selection = [&] {
    TraceSpan Span("select");
    return selectCover(FLM, Pruned, Options.Objective);
  }();
  Result.CoveredLatencies = FLM.canonicalCount();
  CoveredStat.add(Result.CoveredLatencies);

  std::string Suffix = Options.Objective.ObjectiveKind ==
                               SelectionObjective::ResUses
                           ? ".res-uses"
                           : (".word" +
                              std::to_string(Options.Objective.CyclesPerWord));
  Result.Reduced = buildReducedDescription(MD, Pruned, Selection, Suffix);

  if (Options.Objective.ObjectiveKind == SelectionObjective::WordUses) {
    // The greedy word cover is a heuristic; occasionally the plain res-uses
    // cover packs words better. Keep whichever measures better on the word
    // objective (ties go to the word cover, which maximizes usages inside
    // selected words for faster early-out).
    SelectionResult ResSelection =
        selectCover(FLM, Pruned, SelectionObjective::resUses());
    MachineDescription ResReduced =
        buildReducedDescription(MD, Pruned, ResSelection, Suffix);
    unsigned K = Options.Objective.CyclesPerWord;
    if (averageWordUsesPerOperation(ResReduced, K) <
        averageWordUsesPerOperation(Result.Reduced, K))
      Result.Reduced = std::move(ResReduced);
  }

  // Re-check against the *already computed* original matrix (sharing the
  // pool), rather than verifyEquivalence()'s two fresh sequential computes.
  if (Options.Verify) {
    TraceSpan Span("verify");
    static StatCounter PreservedStat("reduce.flm_preserved");
    static StatCounter ViolationStat("reduce.flm_violations");
    bool Mismatch =
        !(FLM == ForbiddenLatencyMatrix::compute(Result.Reduced, PoolPtr));
    if (FaultInjection::fire(faultpoints::ReduceVerify))
      Mismatch = true;
    if (Mismatch) {
      ViolationStat.add();
      return Status(ErrorCode::VerificationFailed,
                    "reduction of '" + MD.name() +
                        "' failed to preserve the forbidden latency matrix");
    }
    PreservedStat.add();
  }
  return Result;
}

Expected<ReductionResult>
rmd::reduceMachineChecked(const MachineDescription &MD,
                          const ReductionOptions &Options) {
  // Worker exceptions are captured by the pool and rethrown at the join
  // point inside the pipeline; convert them (and any other pipeline throw)
  // into a Status so callers can degrade to the original description.
  try {
    return reduceMachineImpl(MD, Options);
  } catch (const std::exception &E) {
    return Status(ErrorCode::WorkerFailed,
                  std::string("reduction pipeline task failed: ") + E.what());
  }
}

ReductionResult rmd::reduceMachine(const MachineDescription &MD,
                                   const ReductionOptions &Options) {
  Expected<ReductionResult> Result = reduceMachineChecked(MD, Options);
  if (!Result)
    fatalError(Result.status().render().c_str());
  return Result.take();
}
