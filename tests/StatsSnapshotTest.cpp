//===- tests/StatsSnapshotTest.cpp - Golden stats-JSON schema tests -------===//
//
// Pins the observability contract of docs/observability.md: the snapshot
// JSON is versioned ("rmd-stats-v1"), carries a stable key set for a fixed
// workload, and — with wall-clock fields excluded — is byte-identical no
// matter how many threads the reduction pipeline used. The pipeline is
// bit-exact at every thread count (ParallelReductionTest), and this suite
// extends that guarantee to its instrumentation.
//
//===----------------------------------------------------------------------===//

#include "machines/MdlModel.h"
#include "reduce/Reduction.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace rmd;

#ifndef RMD_SOURCE_DIR
#define RMD_SOURCE_DIR "."
#endif

namespace {

MachineDescription loadToyVliwFlat() {
  std::string Path = std::string(RMD_SOURCE_DIR) + "/machines/toyvliw.mdl";
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model = parseMdlModel(SS.str(), Diags);
  EXPECT_TRUE(Model.has_value() && !Diags.hasErrors()) << Path;
  return expandAlternatives(Model->MD).Flat;
}

/// One full checked reduction at \p Threads against a freshly reset
/// registry; returns the deterministic (timings-excluded) JSON document.
std::string snapshotJsonAtThreads(const MachineDescription &Flat,
                                  unsigned Threads) {
  StatsRegistry::instance().reset();
  ReductionOptions Options;
  Options.Threads = Threads;
  Expected<ReductionResult> Result = reduceMachineChecked(Flat, Options);
  EXPECT_TRUE(static_cast<bool>(Result));

  StatsSnapshot Snap = StatsRegistry::instance().snapshot();
  StatsSnapshot::JsonOptions JsonOptions;
  JsonOptions.Tool = "StatsSnapshotTest";
  JsonOptions.IncludeTimings = false;
  std::ostringstream OS;
  Snap.writeJson(OS, JsonOptions);
  return OS.str();
}

} // namespace

TEST(StatsSnapshot, SchemaVersionAndKeySet) {
  MachineDescription Flat = loadToyVliwFlat();
  std::string Json = snapshotJsonAtThreads(Flat, 1);

  EXPECT_NE(Json.find("\"schema\": \"rmd-stats-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"tool\": \"StatsSnapshotTest\""), std::string::npos);

  // The metric catalog of docs/observability.md: every phase of the
  // checked pipeline must have reported.
  for (const char *Key :
       {"flm.builds", "flm.rows", "reduce.pairs", "reduce.rule1",
        "reduce.rule2", "reduce.rule2_discard", "reduce.rule3",
        "reduce.rule4", "reduce.generating_set_size",
        "reduce.pruned_set_size", "reduce.covered_latencies", "prune.kept",
        "prune.dropped", "reduce.flm_preserved", "reduce.flm_violations"})
    EXPECT_NE(Json.find(std::string("\"") + Key + "\""), std::string::npos)
        << "missing counter " << Key << " in:\n"
        << Json;
  for (const char *Timer :
       {"\"reduce\"", "\"reduce/flm\"", "\"reduce/fold\"", "\"reduce/prune\"",
        "\"reduce/select\"", "\"reduce/verify\""})
    EXPECT_NE(Json.find(Timer), std::string::npos)
        << "missing timer " << Timer << " in:\n"
        << Json;

  // Verify ran exactly once and passed.
  EXPECT_NE(Json.find("\"reduce.flm_preserved\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"reduce.flm_violations\": 0"), std::string::npos);

  // Timings are excluded: no wall-clock field may leak into the
  // deterministic document.
  EXPECT_EQ(Json.find("total_ns"), std::string::npos);
}

TEST(StatsSnapshot, ByteIdenticalAcrossThreadCounts) {
  MachineDescription Flat = loadToyVliwFlat();
  std::string At1 = snapshotJsonAtThreads(Flat, 1);
  std::string At2 = snapshotJsonAtThreads(Flat, 2);
  std::string At8 = snapshotJsonAtThreads(Flat, 8);
  EXPECT_EQ(At1, At2);
  EXPECT_EQ(At1, At8);
}

TEST(StatsSnapshot, ResetClearsValuesKeepsNames) {
  MachineDescription Flat = loadToyVliwFlat();
  (void)snapshotJsonAtThreads(Flat, 1);
  StatsRegistry::instance().reset();
  StatsSnapshot Snap = StatsRegistry::instance().snapshot();
  auto It = Snap.Counters.find("reduce.pairs");
  ASSERT_NE(It, Snap.Counters.end()); // name survives the reset
  EXPECT_EQ(It->second, 0u);          // value does not
}

TEST(StatsSnapshot, HistogramBucketsAndBounds) {
  StatsRegistry::instance().reset();
  StatHistogram H("test.snapshot_histogram");
  H.record(0);
  H.record(1);
  H.record(5);
  H.record(1000);
  StatsSnapshot Snap = StatsRegistry::instance().snapshot();
  auto It = Snap.Histograms.find("test.snapshot_histogram");
  ASSERT_NE(It, Snap.Histograms.end());
  EXPECT_EQ(It->second.Count, 4u);
  EXPECT_EQ(It->second.Sum, 1006u);
  EXPECT_EQ(It->second.Min, 0u);
  EXPECT_EQ(It->second.Max, 1000u);
  EXPECT_EQ(It->second.Buckets[0], 1u);  // the zero
  EXPECT_EQ(It->second.Buckets[1], 1u);  // 1
  EXPECT_EQ(It->second.Buckets[3], 1u);  // 5 (bit_width 3)
  EXPECT_EQ(It->second.Buckets[10], 1u); // 1000 (bit_width 10)
}

TEST(StatsSnapshot, BulkHistogramRecordingMatchesPerValue) {
  const std::vector<std::vector<uint32_t>> Runs = {
      {}, {7}, {0}, {3, 0, 1, 1, 4096, 5}, {UINT32_MAX, 2}, {}, {9}};
  StatsRegistry::instance().reset();
  StatHistogram PerValue("test.histogram_per_value");
  StatHistogram Bulk("test.histogram_bulk");
  auto expectSame = [](const StatsSnapshot &Snap, const std::string &Where) {
    const StatsSnapshot::HistogramValue &A =
        Snap.Histograms.at("test.histogram_per_value");
    const StatsSnapshot::HistogramValue &B =
        Snap.Histograms.at("test.histogram_bulk");
    EXPECT_EQ(A.Count, B.Count) << Where;
    EXPECT_EQ(A.Sum, B.Sum) << Where;
    EXPECT_EQ(A.Min, B.Min) << Where;
    EXPECT_EQ(A.Max, B.Max) << Where;
    EXPECT_EQ(A.Buckets, B.Buckets) << Where;
  };
  for (size_t R = 0; R < Runs.size(); ++R) {
    for (uint32_t V : Runs[R])
      PerValue.record(V);
    Bulk.recordAll(Runs[R].data(), Runs[R].size());
    expectSame(StatsRegistry::instance().snapshot(),
               "after run " + std::to_string(R));
  }
  StatsSnapshot Snap = StatsRegistry::instance().snapshot();
  EXPECT_EQ(Snap.Histograms.at("test.histogram_bulk").Count, 11u);
  EXPECT_EQ(Snap.Histograms.at("test.histogram_bulk").Max, UINT32_MAX);
}
