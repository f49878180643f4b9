//===- perfbench/src/ReducePath.h - MDL in, reduced MDL out -----*- C++ -*-===//
///
/// \file
/// The reduce path: for each input machine, MDL text -> parseMdlModel ->
/// expandAlternatives -> checked reduction (verify on, no cache) -> writeMdl.
/// An untraced pass calls reduceMachineChecked(); a traced pass calls the
/// phases it is made of (FLM, fold, prune, select, build, verify) one by
/// one inside spans, and must produce the same bytes.
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_REDUCEPATH_H
#define RMDBENCH_REDUCEPATH_H

#include "Measure.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rmdbench {

struct MachineInput {
  std::string Name; ///< file stem, e.g. "cydra5"
  std::string Text; ///< the MDL file's contents
};

/// Exact counts of one pass; they must repeat on every pass, at every
/// thread count.
struct ReduceCounts {
  uint64_t Pairs = 0;
  uint64_t Rule1 = 0, Rule2 = 0, Rule2Discard = 0, Rule3 = 0, Rule4 = 0;
  uint64_t GeneratingSetSize = 0;
  uint64_t PrunedSetSize = 0;
  uint64_t CanonicalLatencies = 0;
  uint64_t ResUses = 0; ///< usages of all reduced descriptions
  bool operator==(const ReduceCounts &) const = default;
};

struct ReducePass {
  unsigned Threads = 1;
  double Ms = 0;                 ///< whole pass, MDL text in to text out
  std::vector<double> MachineMs; ///< per input, same order
  std::vector<std::string> Output;
  ReduceCounts Counts;
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< reductions that fell back to the original
};

class ReducePath {
public:
  explicit ReducePath(std::vector<MachineInput> Inputs);

  /// One pass at \p Threads threads; traced when \p Log is non-null.
  ReducePass run(unsigned Threads, SpanLog *Log);

  /// Correctness gate, outside the clock: the first pass's reduced
  /// descriptions must have their originals' forbidden latency matrices
  /// (verifyEquivalence); every later pass, at any thread count, must
  /// reproduce its output byte for byte and its exact counts.
  bool check(const ReducePass &P, std::string &Why);

private:
  std::vector<MachineInput> Inputs;
  std::vector<std::string> MachineSpanNames;
  bool HaveReference = false;
  std::vector<std::string> RefOutput;
  ReduceCounts RefCounts;
};

} // namespace rmdbench

#endif // RMDBENCH_REDUCEPATH_H
