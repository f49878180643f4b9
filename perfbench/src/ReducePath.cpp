//===- perfbench/src/ReducePath.cpp ---------------------------------------===//

#include "ReducePath.h"

#include "flm/ForbiddenLatencyMatrix.h"
#include "machines/MdlModel.h"
#include "mdl/Parser.h"
#include "mdl/Writer.h"
#include "reduce/Reduction.h"
#include "support/Diagnostics.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <optional>

using namespace rmd;
using namespace rmdbench;

namespace {

/// Span names of one pass; the multi-threaded pass gets its own set so the
/// two thread counts land in separate per-layer rows.
struct PhaseNames {
  const char *Pass, *Parse, *Expand, *Flm, *Fold, *Prune, *Select, *Build,
      *Verify, *Write;
};
constexpr PhaseNames SingleThread{
    "reduce.pass",   "mdl.parse",     "mdesc.expand",  "flm.compute",
    "reduce.fold",   "reduce.prune",  "reduce.select", "reduce.build",
    "reduce.verify", "mdl.write"};
constexpr PhaseNames MultiThread{
    "reduce.pass_mt",   "mdl.parse_mt",     "mdesc.expand_mt",
    "flm.compute_mt",   "reduce.fold_mt",   "reduce.prune_mt",
    "reduce.select_mt", "reduce.build_mt",  "reduce.verify_mt",
    "mdl.write_mt"};

uint64_t counter(const StatsSnapshot &S, const char *Name) {
  auto It = S.Counters.find(Name);
  return It == S.Counters.end() ? 0 : It->second;
}

uint64_t resUses(const MachineDescription &MD) {
  uint64_t N = 0;
  for (OpId Op = 0; Op < MD.numOperations(); ++Op)
    N += MD.operation(Op).table().usageCount();
  return N;
}

/// reduceMachineChecked()'s pipeline, phase by phase, inside spans. Returns
/// nullopt where the checked pipeline would return an error.
std::optional<ReductionResult> tracedReduce(const MachineDescription &MD,
                                            unsigned Threads, SpanLog &Log,
                                            const PhaseNames &Names) {
  ThreadPool Pool(ThreadPool::resolveThreadCount(Threads));
  ThreadPool *PoolPtr = Pool.concurrency() > 1 ? &Pool : nullptr;
  std::optional<ForbiddenLatencyMatrix> FLM;
  {
    ScopedSpan S(&Log, Names.Flm);
    FLM.emplace(ForbiddenLatencyMatrix::compute(MD, PoolPtr));
  }
  ReductionResult Result;
  std::vector<SynthesizedResource> Generating;
  {
    ScopedSpan S(&Log, Names.Fold);
    Generating = buildGeneratingSet(*FLM, nullptr, PoolPtr);
  }
  Result.GeneratingSetSize = Generating.size();
  std::vector<SynthesizedResource> Pruned;
  {
    ScopedSpan S(&Log, Names.Prune);
    Pruned = pruneGeneratingSet(std::move(Generating), PoolPtr);
  }
  Result.PrunedSetSize = Pruned.size();
  SelectionResult Selection;
  {
    ScopedSpan S(&Log, Names.Select);
    Selection = selectCover(*FLM, Pruned, SelectionObjective::resUses());
  }
  Result.CoveredLatencies = FLM->canonicalCount();
  {
    ScopedSpan S(&Log, Names.Build);
    Result.Reduced =
        buildReducedDescription(MD, Pruned, Selection, ".res-uses");
  }
  ScopedSpan S(&Log, Names.Verify);
  if (!(*FLM == ForbiddenLatencyMatrix::compute(Result.Reduced, PoolPtr)))
    return std::nullopt;
  return Result;
}

} // namespace

ReducePath::ReducePath(std::vector<MachineInput> TheInputs)
    : Inputs(std::move(TheInputs)) {
  for (const MachineInput &In : Inputs)
    MachineSpanNames.push_back("reduce.machine." + In.Name);
}

ReducePass ReducePath::run(unsigned Threads, SpanLog *Log) {
  const PhaseNames &Names = Threads == 1 ? SingleThread : MultiThread;
  ReducePass P;
  P.Threads = Threads;
  P.Output.resize(Inputs.size());
  P.MachineMs.resize(Inputs.size());
  StatsSnapshot Before = StatsRegistry::instance().snapshot();

  uint64_t PassStart = nowNs();
  {
    ScopedSpan PassSpan(Log, Names.Pass);
    for (size_t I = 0; I < Inputs.size(); ++I) {
      uint64_t Start = nowNs();
      ScopedSpan MachineSpan(Log, MachineSpanNames[I].c_str());
      std::optional<MachineModel> Model;
      {
        ScopedSpan S(Log, Names.Parse);
        DiagnosticEngine Diags;
        Model = parseMdlModel(Inputs[I].Text, Diags);
      }
      ++P.Attempted;
      if (!Model) {
        ++P.Failed;
        continue;
      }
      std::optional<ExpandedMachine> EM;
      {
        ScopedSpan S(Log, Names.Expand);
        EM.emplace(expandAlternatives(Model->MD));
      }
      std::optional<ReductionResult> Result;
      if (Log) {
        Result = tracedReduce(EM->Flat, Threads, *Log, Names);
      } else {
        ReductionOptions Options;
        Options.Verify = true;
        Options.Threads = Threads;
        Expected<ReductionResult> R = reduceMachineChecked(EM->Flat, Options);
        if (R)
          Result.emplace(R.take());
      }
      // A failed reduction falls back to the original description, as
      // every consumer of the reducer does (Theorem 1 keeps it exact).
      const MachineDescription &Out = Result ? Result->Reduced : EM->Flat;
      if (!Result)
        ++P.Failed;
      {
        ScopedSpan S(Log, Names.Write);
        P.Output[I] = writeMdl(Out);
      }
      P.MachineMs[I] = msSince(Start);
      if (Result) {
        P.Counts.GeneratingSetSize += Result->GeneratingSetSize;
        P.Counts.PrunedSetSize += Result->PrunedSetSize;
        P.Counts.CanonicalLatencies += Result->CoveredLatencies;
      }
      P.Counts.ResUses += resUses(Out);
    }
  }
  P.Ms = msSince(PassStart);

  StatsSnapshot After = StatsRegistry::instance().snapshot();
  auto Delta = [&](const char *Name) {
    return counter(After, Name) - counter(Before, Name);
  };
  P.Counts.Pairs = Delta("reduce.pairs");
  P.Counts.Rule1 = Delta("reduce.rule1");
  P.Counts.Rule2 = Delta("reduce.rule2");
  P.Counts.Rule2Discard = Delta("reduce.rule2_discard");
  P.Counts.Rule3 = Delta("reduce.rule3");
  P.Counts.Rule4 = Delta("reduce.rule4");
  return P;
}

bool ReducePath::check(const ReducePass &P, std::string &Why) {
  if (!HaveReference) {
    for (size_t I = 0; I < Inputs.size(); ++I) {
      DiagnosticEngine Diags;
      std::optional<MachineModel> Original =
          parseMdlModel(Inputs[I].Text, Diags);
      DiagnosticEngine OutDiags;
      std::optional<MachineDescription> Reduced =
          parseMdl(P.Output[I], OutDiags);
      if (!Original || !Reduced) {
        Why = "reduce: cannot re-read " + Inputs[I].Name;
        return false;
      }
      ExpandedMachine EM = expandAlternatives(Original->MD);
      if (!verifyEquivalence(EM.Flat, *Reduced)) {
        Why = "reduce: " + Inputs[I].Name +
              " lost its forbidden latency matrix";
        return false;
      }
    }
    HaveReference = true;
    RefOutput = P.Output;
    RefCounts = P.Counts;
    return true;
  }
  for (size_t I = 0; I < Inputs.size(); ++I)
    if (P.Output[I] != RefOutput[I]) {
      Why = "reduce: " + Inputs[I].Name + " output differs at " +
            std::to_string(P.Threads) + " threads";
      return false;
    }
  if (!(P.Counts == RefCounts)) {
    Why = "reduce: exact counts differ at " + std::to_string(P.Threads) +
          " threads";
    return false;
  }
  return true;
}
