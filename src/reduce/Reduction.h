//===- reduce/Reduction.h - End-to-end machine reduction -------*- C++ -*-===//
///
/// \file
/// The top-level entry point of the reproduction's core contribution:
/// reduceMachine() turns a machine description into an equivalent one with
/// fewer synthesized resources and usages, exactly preserving the forbidden
/// latency matrix (and therefore every scheduling constraint). This is the
/// paper's automated, error-free replacement for hand-reduced descriptions;
/// verifyEquivalence() provides the "error-free" guarantee by construction
/// *and* by independent re-checking.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_REDUCE_REDUCTION_H
#define RMD_REDUCE_REDUCTION_H

#include "reduce/GeneratingSet.h"
#include "reduce/Selection.h"
#include "support/Status.h"

#include <string>

namespace rmd {

/// Options controlling a reduction.
struct ReductionOptions {
  /// The selection objective (see SelectionObjective).
  SelectionObjective Objective = SelectionObjective::resUses();

  /// Re-verify (debug builds always verify) that the reduced description's
  /// forbidden latency matrix equals the original's.
  bool Verify = true;

  /// Optional Algorithm 1 tracing (Figure 3).
  const GeneratingSetTrace *Trace = nullptr;

  /// Worker threads for the parallel phases (FLM rows, the fold's
  /// verdict scans). 1 = sequential; 0 = hardware concurrency.
  /// Every value produces bit-identical output (see the thread-sweep
  /// tests); this only trades wall-clock time.
  unsigned Threads = 1;
};

/// The product of reduceMachine().
struct ReductionResult {
  /// The reduced machine description: synthesized resources q0..qn, one
  /// operation per input operation (same ids, same names).
  MachineDescription Reduced;

  /// Size of the generating set before pruning.
  size_t GeneratingSetSize = 0;

  /// Size after pruning covered/submaximal resources.
  size_t PrunedSetSize = 0;

  /// Canonical forbidden latency constraints covered.
  size_t CoveredLatencies = 0;
};

/// Reduces the expanded machine \p MD (every operation single-alternative)
/// under \p Options. The result has the same operations (ids and names) over
/// synthesized resources and generates the identical forbidden latency
/// matrix.
///
/// Recoverable failures come back as a Status instead of aborting:
///   - VerificationFailed when Options.Verify finds a forbidden-latency
///     mismatch (or the reduce.verify fault point fires);
///   - WorkerFailed when a thread-pool task threw (the exception is
///     captured by the pool, rethrown at the join, and converted here).
/// Callers that can degrade should fall back to scheduling against \p MD
/// itself — by Theorem 1 an unreduced description imposes exactly the same
/// constraints (see reduceMachineOrFallback).
Expected<ReductionResult>
reduceMachineChecked(const MachineDescription &MD,
                     const ReductionOptions &Options = {});

/// reduceMachineChecked() for callers with no recovery path: aborts via
/// fatalError() on failure. Kept for tests and benches where a failed
/// reduction means the experiment itself is broken.
ReductionResult reduceMachine(const MachineDescription &MD,
                              const ReductionOptions &Options = {});

/// True if \p A and \p B (both expanded, with matching operation counts)
/// have equal forbidden latency matrices, i.e. admit exactly the same
/// contention-free schedules.
bool verifyEquivalence(const MachineDescription &A,
                       const MachineDescription &B);

/// Builds a MachineDescription from selected synthesized resources: one
/// resource per nonempty selection (named "q0", "q1", ...), operations
/// copied from \p MD's names. Each selected row is translated so its
/// earliest selected usage sits at cycle 0 (translation does not affect
/// generated latencies and shortens tables).
MachineDescription
buildReducedDescription(const MachineDescription &MD,
                        const std::vector<SynthesizedResource> &Pruned,
                        const SelectionResult &Selection,
                        const std::string &NameSuffix);

} // namespace rmd

#endif // RMD_REDUCE_REDUCTION_H
