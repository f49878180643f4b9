//===- tests/SchedulerGoldenTest.cpp - Pinned IMS corpus results ----------===//
//
// Runs the IMS over the seeded 1327-loop Cydra 5 corpus at BudgetRatio 6
// and compares everything it produces against values pinned from an
// earlier build: a digest of every loop's (Success, II, Time, Alternative),
// the summed WorkCounters, and the total attempts, decisions, evictions and
// check queries. Scheduler and query-module optimisations (arena caching,
// node-selection data structures, feasibility memoization) must leave all
// of it bit-identical; a change here means the schedules or the Table 6
// accounting moved.
//
//===----------------------------------------------------------------------===//

#include "machines/MachineModel.h"
#include "reduce/Reduction.h"
#include "workload/Corpus.h"
#include "workload/Experiment.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

/// Everything one corpus pass is pinned on.
struct CorpusRun {
  uint64_t Digest = 0xcbf29ce484222325ull; // FNV-1a offset basis
  WorkCounters Work;
  uint64_t Attempts = 0;
  uint64_t Decisions = 0;
  uint64_t EvictedByResource = 0;
  uint64_t EvictedByDependence = 0;
  uint64_t Checks = 0;
  uint64_t Failed = 0;

  void mix(int64_t Value) {
    uint64_t V = static_cast<uint64_t>(Value);
    for (int Byte = 0; Byte < 8; ++Byte) {
      Digest ^= (V >> (8 * Byte)) & 0xff;
      Digest *= 0x100000001b3ull; // FNV-1a prime
    }
  }
};

CorpusRun scheduleCorpus(const MachineModel &Model,
                         const std::vector<DepGraph> &Corpus,
                         const std::vector<std::vector<OpId>> &Groups,
                         const RepresentationSpec &Spec) {
  QueryEnvironment Env;
  Env.FlatMD = Spec.FlatMD;
  Env.Groups = &Groups;
  Env.MakeModule = makeModuleFactory(Spec);
  ModuloScheduleOptions Options;
  Options.BudgetRatio = 6;

  CorpusRun Run;
  for (const DepGraph &G : Corpus) {
    ModuloScheduleResult R = moduloSchedule(G, Model.MD, Env, Options);
    Run.mix(R.Success);
    Run.mix(R.II);
    Run.mix(static_cast<int64_t>(R.Time.size()));
    for (int T : R.Time)
      Run.mix(T);
    for (int A : R.Alternative)
      Run.mix(A);
    Run.Work.accumulate(R.Counters);
    Run.Attempts += R.Stats.DecisionsPerAttempt.size();
    Run.Decisions += R.Stats.totalDecisions();
    Run.EvictedByResource += R.Stats.EvictedByResource;
    Run.EvictedByDependence += R.Stats.EvictedByDependence;
    for (uint32_t C : R.Stats.ChecksPerDecision)
      Run.Checks += C;
    Run.Failed += !R.Success;
  }
  return Run;
}

/// The values every representation shares (Theorem 1: the same schedules
/// and the same scheduling trace over any equivalent description).
void expectPinnedTrace(const CorpusRun &Run) {
  EXPECT_EQ(Run.Digest, 0xfda5d249f9970fc0ull);
  EXPECT_EQ(Run.Failed, 0u);
  EXPECT_EQ(Run.Attempts, 1541u);
  EXPECT_EQ(Run.Decisions, 71494u);
  EXPECT_EQ(Run.EvictedByResource, 19230u);
  EXPECT_EQ(Run.EvictedByDependence, 22270u);
  EXPECT_EQ(Run.Checks, 626525u);
}

/// \p Want lists the fields in declaration order: check calls/units,
/// assign calls/units, free calls/units, assign&free calls/units,
/// transition units.
void expectPinnedWork(const WorkCounters &W, const WorkCounters &Want) {
  EXPECT_EQ(W.CheckCalls, Want.CheckCalls);
  EXPECT_EQ(W.CheckUnits, Want.CheckUnits);
  EXPECT_EQ(W.AssignCalls, Want.AssignCalls);
  EXPECT_EQ(W.AssignUnits, Want.AssignUnits);
  EXPECT_EQ(W.FreeCalls, Want.FreeCalls);
  EXPECT_EQ(W.FreeUnits, Want.FreeUnits);
  EXPECT_EQ(W.AssignFreeCalls, Want.AssignFreeCalls);
  EXPECT_EQ(W.AssignFreeUnits, Want.AssignFreeUnits);
  EXPECT_EQ(W.TransitionUnits, Want.TransitionUnits);
}

} // namespace

TEST(SchedulerGolden, CydraCorpusUnchanged) {
  MachineModel Cydra = makeCydra5();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  Expected<ReductionResult> Reduction = reduceMachineChecked(EM.Flat);
  ASSERT_TRUE(Reduction) << Reduction.status().render();
  const MachineDescription &Reduced = Reduction.value().Reduced;
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, CorpusParams());
  ASSERT_EQ(Corpus.size(), 1327u);

  RepresentationSpec Bitvector;
  Bitvector.Kind = RepresentationSpec::Bitvector;
  Bitvector.FlatMD = &Reduced;
  {
    SCOPED_TRACE("bitvector/reduced");
    CorpusRun Run = scheduleCorpus(Cydra, Corpus, EM.Groups, Bitvector);
    expectPinnedTrace(Run);
    expectPinnedWork(Run.Work, WorkCounters{626525, 670567, 0, 0, 22270, 25561,
                                            71494, 215979, 15591});
  }

  RepresentationSpec Discrete;
  Discrete.Kind = RepresentationSpec::Discrete;
  Discrete.FlatMD = &EM.Flat;
  {
    SCOPED_TRACE("discrete/original");
    CorpusRun Run = scheduleCorpus(Cydra, Corpus, EM.Groups, Discrete);
    expectPinnedTrace(Run);
    expectPinnedWork(Run.Work, WorkCounters{626525, 1379854, 0, 0, 22270,
                                            131560, 71494, 631274, 0});
  }
}
