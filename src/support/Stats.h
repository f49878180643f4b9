//===- support/Stats.h - Process-wide observability registry ---*- C++ -*-===//
///
/// \file
/// A process-wide registry of named counters, timers, and histograms — the
/// observability backbone behind `--stats-json` / `RMD_STATS_JSON` in every
/// CLI and bench binary (schema in docs/observability.md).
///
/// Design constraints, in priority order:
///
///   1. *Cheap on the hot path.* Each thread owns a shard of plain
///      uint64 slots; an increment is one relaxed atomic add on memory no
///      other thread writes. No locks, no contention, no false sharing
///      between stats that different threads touch.
///   2. *Deterministic merged snapshots.* snapshot() sums shards (live
///      and retired) under the registry mutex. Counter values, timer
///      counts, and whole histograms are integer sums/mins/maxes, so the
///      merged result is identical regardless of how work was sharded
///      across threads — the reduction pipeline is bit-exact at every
///      thread count, and so is its stats snapshot (StatsSnapshotTest
///      pins this byte-for-byte). Only timer *durations* are wall-clock
///      and therefore nondeterministic; the JSON writer can exclude them.
///   3. *Zero configuration.* Stats self-register on first use; a binary
///      that never snapshots pays only the per-event add.
///
/// Use the handle types, not the registry directly:
///
///   static StatCounter CacheHits("cache.hits");
///   CacheHits.add();
///
///   static StatHistogram Checks("sched.ims.checks_per_decision");
///   Checks.record(NumChecks);
///
/// Phase timing uses support/TraceSpan.h, which records into timers here.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SUPPORT_STATS_H
#define RMD_SUPPORT_STATS_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace rmd {

/// What a registered name measures; determines its slot layout and its
/// section in the snapshot.
enum class StatKind {
  Counter,   ///< 1 slot: running sum
  Timer,     ///< 2 slots: count, total nanoseconds
  Histogram, ///< 4 + 65 slots: count, sum, ~min, max, log2 buckets
};

/// A deterministic merged view of every registered stat. Plain data;
/// obtained from StatsRegistry::snapshot().
struct StatsSnapshot {
  struct TimerValue {
    uint64_t Count = 0;
    uint64_t TotalNs = 0; ///< wall-clock; nondeterministic across runs
  };
  struct HistogramValue {
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = 0; ///< meaningful only when Count > 0
    uint64_t Max = 0;
    /// Bucket B counts values with bit_width(value) == B (bucket 0 holds
    /// the zeros); exponential buckets keep the layout value-range-free.
    std::array<uint64_t, 65> Buckets{};
  };

  std::map<std::string, uint64_t> Counters;
  std::map<std::string, TimerValue> Timers;
  std::map<std::string, HistogramValue> Histograms;

  /// Options for writeJson().
  struct JsonOptions {
    /// Written as the "tool" field when nonempty (the emitting binary).
    std::string Tool;
    /// Include wall-clock fields (timer total_ns). Off for golden-file
    /// tests: everything that remains is deterministic for a fixed
    /// workload, at any thread count.
    bool IncludeTimings = true;
  };

  /// Renders the snapshot as the versioned JSON document described in
  /// docs/observability.md ("schema": "rmd-stats-v1"). Keys are sorted,
  /// output is fully deterministic given the snapshot contents (and, with
  /// IncludeTimings off, given the workload).
  void writeJson(std::ostream &OS, const JsonOptions &Options) const;
  void writeJson(std::ostream &OS) const { writeJson(OS, JsonOptions()); }
};

/// The process-wide registry. Stats register lazily through the handle
/// types below; snapshot() and reset() may be called at any time from any
/// thread.
class StatsRegistry {
public:
  static StatsRegistry &instance();

  /// Registers \p Name with \p Kind (idempotent; the kind must match on
  /// re-registration) and returns its base slot index.
  size_t registerStat(std::string_view Name, StatKind Kind);

  /// Hot-path update entry points; \p Slot comes from registerStat().
  void add(size_t Slot, uint64_t Delta);
  void recordTimer(size_t Slot, uint64_t Nanos);
  void recordHistogram(size_t Slot, uint64_t Value);
  /// recordHistogram() of each of the \p N values at \p Values, tallied
  /// locally and added to the shard once.
  void recordHistogramValues(size_t Slot, const uint32_t *Values, size_t N);

  /// Deterministic merged view of all registered stats (live shards,
  /// retired threads' totals, sorted names).
  StatsSnapshot snapshot() const;

  /// Zeroes every slot in every shard (names stay registered). Tests use
  /// this to isolate one pipeline run's counts.
  void reset();

private:
  StatsRegistry() = default;
  struct Impl;
  Impl &impl() const;
};

/// A named counter handle. Cheap to construct; conventionally a
/// function-local or file-scope `static` so registration happens once.
class StatCounter {
public:
  explicit StatCounter(std::string_view Name)
      : Slot(StatsRegistry::instance().registerStat(Name,
                                                    StatKind::Counter)) {}
  void add(uint64_t Delta = 1) const {
    StatsRegistry::instance().add(Slot, Delta);
  }

private:
  size_t Slot;
};

/// A named timer handle; record() takes nanoseconds. TraceSpan is the
/// usual front end.
class StatTimer {
public:
  explicit StatTimer(std::string_view Name)
      : Slot(StatsRegistry::instance().registerStat(Name, StatKind::Timer)) {
  }
  void record(uint64_t Nanos) const {
    StatsRegistry::instance().recordTimer(Slot, Nanos);
  }

private:
  size_t Slot;
};

/// A named histogram handle over nonnegative integer samples.
class StatHistogram {
public:
  explicit StatHistogram(std::string_view Name)
      : Slot(StatsRegistry::instance().registerStat(Name,
                                                    StatKind::Histogram)) {}
  void record(uint64_t Value) const {
    StatsRegistry::instance().recordHistogram(Slot, Value);
  }
  /// Records each of the \p N values at \p Values: the same snapshot as N
  /// record() calls, for one registry update.
  void recordAll(const uint32_t *Values, size_t N) const {
    StatsRegistry::instance().recordHistogramValues(Slot, Values, N);
  }

private:
  size_t Slot;
};

/// Snapshots the registry and writes the JSON document to \p Path ("-"
/// writes to stdout). Returns false (after a stderr warning) when the file
/// cannot be written; observability failures never fail the tool.
bool exportProcessStats(const std::string &Path, const std::string &Tool);

/// RAII export plumbing shared by every CLI and bench binary: the
/// constructor strips `--stats-json=<path>` out of argv (so downstream
/// argument parsing — including google-benchmark's — never sees it) and
/// falls back to the RMD_STATS_JSON environment variable; the destructor,
/// running after the tool's work (and its query modules' destructors,
/// which publish their WorkCounters), writes the snapshot.
class StatsJsonGuard {
public:
  StatsJsonGuard(int &Argc, char **Argv, std::string Tool);
  ~StatsJsonGuard();

  StatsJsonGuard(const StatsJsonGuard &) = delete;
  StatsJsonGuard &operator=(const StatsJsonGuard &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Tool;
  std::string Path;
};

} // namespace rmd

#endif // RMD_SUPPORT_STATS_H
