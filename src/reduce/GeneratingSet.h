//===- reduce/GeneratingSet.h - Algorithm 1 of the paper -------*- C++ -*-===//
///
/// \file
/// Algorithm 1 (Section 4): building the generating set of maximal
/// resources. Every nonnegative forbidden latency f in F(X,Y) defines an
/// *elementary pair* {(X,0), (Y,f)}. Pairs are folded into the growing set
/// of synthesized resources:
///
///   Rule 1: pair fully compatible with resource q -> add its usages to q.
///   Rule 2: pair partially compatible -> add a new resource made of the
///           pair plus the compatible usages of q (discard if that is just
///           the pair itself).
///   Rule 3: after processing all resources, add the pair itself as a new
///           resource unless its two usages already co-reside somewhere.
///   Rule 4: for each operation whose only forbidden latency is the 0
///           self-latency, add a single-usage resource.
///
/// Theorem 1 guarantees the result forbids exactly the target machine's
/// latencies and contains every maximal resource (possibly plus some
/// submaximal ones, removed later by pruneGeneratingSet()).
///
//===----------------------------------------------------------------------===//

#ifndef RMD_REDUCE_GENERATINGSET_H
#define RMD_REDUCE_GENERATINGSET_H

#include "reduce/SynthesizedResource.h"

#include <functional>
#include <vector>

namespace rmd {

class ThreadPool;

/// An elementary pair: the two usages {(X, 0), (Y, F)} associated with the
/// nonnegative forbidden latency F in F(X, Y) — Y issues F cycles after X...
/// precisely, co-locating them forbids exactly latency F in F(X, Y).
struct ElementaryPair {
  SynthUsage First;  ///< (X, 0)
  SynthUsage Second; ///< (Y, F)

  ForbiddenLatency latency() const {
    return generatedLatency(First, Second);
  }
};

/// Which rule fired, for tracing (Figure 3 of the paper).
enum class GeneratingRule { Rule1, Rule2, Rule2Discard, Rule3, Rule4 };

/// Optional observer invoked as Algorithm 1 runs; used by the
/// generating-set trace example to reproduce Figure 3.
struct GeneratingSetTrace {
  /// Called when processing of \p Pair begins.
  std::function<void(const ElementaryPair &Pair)> OnPair;
  /// Called when \p Rule fires while processing a pair; \p ResourceIndex is
  /// the affected resource (the updated one for Rule 1, the new one for
  /// Rules 2/3/4, the unchanged base for Rule2Discard).
  std::function<void(GeneratingRule Rule, size_t ResourceIndex)> OnRule;
};

/// Enumerates the elementary pairs of \p FLM in deterministic order (row
/// operation, then column operation, then ascending latency), excluding
/// negative latencies (mirrors) and 0 self-latencies (Rule 4 handles them).
std::vector<ElementaryPair>
enumerateElementaryPairs(const ForbiddenLatencyMatrix &FLM);

/// Runs Algorithm 1 on \p FLM, returning the generating set of maximal
/// resources (possibly including submaximal extras).
///
/// Each distinct usage of an elementary pair gets a compact id, and each
/// resource is a bitset over those ids, so judging a pair against a
/// resource is a few word operations against the pair's "compatible with
/// both usages" bitset C: Rule 1 when R & ~C is empty, a Rule 2 discard
/// when R & C is empty, else a Rule 2 candidate (R & C plus the pair).
/// The usage vectors are built from the bitsets once, after the fold.
///
/// With \p Pool, the per-pair verdict scan over a large resource set runs
/// in parallel blocks; Rules 1–4 are then applied sequentially in
/// resource-index order. The verdicts are read-only functions of the
/// forbidden latencies and of resource state *before* the pair is folded —
/// exactly what the sequential fold reads — so the result is bit-identical
/// to the sequential fold at every thread count.
std::vector<SynthesizedResource>
buildGeneratingSet(const ForbiddenLatencyMatrix &FLM,
                   const GeneratingSetTrace *Trace = nullptr,
                   ThreadPool *Pool = nullptr);

/// First phase of the selection heuristic (Section 5): successively removes
/// every resource whose generated latency set is covered by some remaining
/// resource. Eliminates submaximal resources, duplicate maximals, and
/// mirror images.
///
/// Each generated latency set is a bitset over compact ids of the
/// canonical latencies the set generates, so a cover test is a word-wise
/// A & ~B. Resource I is removed iff some J generates a strict superset,
/// or generates the same set and has the larger index. The prune finds
/// these by visiting resources largest set first (ties by descending
/// index) and testing each only against the resources already kept: a
/// cover that was itself removed is covered by a kept one. The survivors
/// are few, so the judge is sequential and \p Pool is ignored.
std::vector<SynthesizedResource>
pruneGeneratingSet(std::vector<SynthesizedResource> Set,
                   ThreadPool *Pool = nullptr);

} // namespace rmd

#endif // RMD_REDUCE_GENERATINGSET_H
