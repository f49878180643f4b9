//===- workload/Experiment.cpp --------------------------------------------===//

#include "workload/Experiment.h"

#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"

using namespace rmd;

std::function<std::unique_ptr<ContentionQueryModule>(QueryConfig)>
rmd::makeModuleFactory(const RepresentationSpec &Spec) {
  const MachineDescription *MD = Spec.FlatMD;
  if (Spec.Kind == RepresentationSpec::Discrete)
    return [MD](QueryConfig Config) -> std::unique_ptr<ContentionQueryModule> {
      return std::make_unique<DiscreteQueryModule>(*MD, Config);
    };
  unsigned WordBits = Spec.WordBits;
  unsigned ForcedK = Spec.CyclesPerWord;
  bool Union = Spec.UnionAlternativeCheck;
  // The IMS asks for a module per II attempt, and a corpus's loops share a
  // small range of IIs: build each II's arena once per factory.
  auto Arenas = std::make_shared<BitvectorArenaCache>(*MD);
  return [MD, Arenas, WordBits, ForcedK, Union](
             QueryConfig Config) -> std::unique_ptr<ContentionQueryModule> {
    Config.WordBits = WordBits;
    Config.CyclesPerWordOverride = ForcedK;
    Config.UnionAlternativeCheck = Union;
    return std::make_unique<BitvectorQueryModule>(*MD, Config,
                                                  Arenas->get(Config));
  };
}

SchedulerExperimentResult
rmd::runSchedulerExperiment(const MachineModel &Model,
                            const std::vector<std::vector<OpId>> &Groups,
                            const RepresentationSpec &Spec,
                            const std::vector<DepGraph> &Corpus,
                            const ModuloScheduleOptions &Options) {
  assert(Spec.FlatMD && "representation needs a machine description");

  QueryEnvironment Env;
  Env.FlatMD = Spec.FlatMD;
  Env.Groups = &Groups;
  Env.MakeModule = makeModuleFactory(Spec);

  SchedulerExperimentResult Result;
  Result.Label = Spec.Label;
  Result.CheckHistogram.assign(128, 0);

  for (const DepGraph &G : Corpus) {
    ModuloScheduleResult SR = moduloSchedule(G, Model.MD, Env, Options);
    ++Result.Loops;
    if (!SR.Success) {
      ++Result.Failed;
      continue;
    }

    double N = static_cast<double>(G.numNodes());
    Result.OpsPerLoop.add(N);
    Result.II.add(SR.II);
    Result.IIOverMII.add(static_cast<double>(SR.II) / SR.Stats.MII);
    for (uint64_t Decisions : SR.Stats.DecisionsPerAttempt)
      Result.DecisionsPerOp.add(static_cast<double>(Decisions) / N);

    Result.TotalAttempts += SR.Stats.DecisionsPerAttempt.size();
    uint64_t Budget =
        static_cast<uint64_t>(Options.BudgetRatio) * G.numNodes();
    for (uint64_t Decisions : SR.Stats.DecisionsPerAttempt)
      if (Decisions >= Budget)
        ++Result.AttemptsBudgetExceeded;

    // "No scheduling decision was ever reversed": exactly N decisions in a
    // single attempt.
    if (SR.Stats.DecisionsPerAttempt.size() == 1 &&
        SR.Stats.totalDecisions() == G.numNodes())
      ++Result.LoopsWithNoReversal;

    Result.Counters.accumulate(SR.Counters);
    Result.ReversalsByResource += SR.Stats.EvictedByResource;
    Result.ReversalsByDependence += SR.Stats.EvictedByDependence;
    Result.AssignFreeCallsWithEviction +=
        SR.Stats.AssignFreeCallsWithEviction;

    for (uint32_t Checks : SR.Stats.ChecksPerDecision) {
      size_t Bucket = std::min<size_t>(Checks, Result.CheckHistogram.size() - 1);
      ++Result.CheckHistogram[Bucket];
    }
  }
  return Result;
}
