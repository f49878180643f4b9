//===- perfbench/src/Measure.h - Clocks, spans, sample statistics -*- C++ -*-===//
///
/// \file
/// The measuring side of the benchmark: a monotonic nanosecond clock, an
/// in-memory span log for traced runs (name, start, end, parent, sample id;
/// written out when the run ends), the summary statistics every metric is
/// reported with, and the metric list a run prints.
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_MEASURE_H
#define RMDBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif
#include <map>
#include <string>
#include <vector>

namespace rmdbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double msSince(uint64_t StartNs) { return (nowNs() - StartNs) / 1e6; }

/// A cheaper clock for timing single calls: the time-stamp counter on x86
/// (about half the cost of a steady-clock read), the steady clock
/// elsewhere. nsPerTick() converts.
inline uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return nowNs();
#endif
}

/// Nanoseconds per ticks() unit, measured against the steady clock once.
double nsPerTick();

/// One closed span. Parent is an index into the log, or -1.
struct SpanRecord {
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;
  uint32_t Sample = 0;
};

/// Spans of one traced run, kept in memory. Opening and closing must nest
/// (one thread only); the parent of a span is the innermost open one.
class SpanLog {
public:
  int32_t open(const char *Name);
  void close(int32_t Id);
  void setSample(uint32_t Id) { Sample = Id; }

  const std::vector<SpanRecord> &spans() const { return Spans; }

  /// Self time of span \p Id in milliseconds: its duration minus the part
  /// its direct children cover.
  double selfMs(int32_t Id) const;
  /// Total duration per span name over spans [\p First, end), in ms.
  std::map<std::string, double> totalsSince(size_t First) const;

  /// Writes one JSON object per span. Returns false when the file cannot
  /// be written.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<int32_t> Open;
  uint32_t Sample = 0;
};

/// RAII span; a null log makes it a no-op (untraced runs).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name)
      : Log(Log), Id(Log ? Log->open(Name) : -1) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t id() const { return Id; }

private:
  SpanLog *Log;
  int32_t Id;
};

/// The cost of timing one call, measured on this host at start-up.
/// InsideNs is what a timed empty call reads as its own duration;
/// OutsideNs is what one timed call adds to an enclosing one.
struct TimerCost {
  double InsideNs = 0;
  double OutsideNs = 0;
};

double median(std::vector<double> Values);

/// The tail of a sample set: the highest percentile with at least ten
/// samples beyond it, i.e. the 11th largest value. With ten or fewer
/// samples there is none, and the maximum is reported instead (Percentile
/// then reads 100).
struct Tail {
  double Value = 0;
  double Percentile = 0;
  size_t Samples = 0;
};
Tail tail(std::vector<double> Values);

/// Percentile P (0..100) by nearest rank.
double percentile(std::vector<double> Values, double P);

/// A named metric with its unit, in print order.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// 64-bit FNV-1a, for input and output digests.
class Digest {
public:
  void bytes(const void *Data, size_t Size);
  template <typename T> void value(const T &V) { bytes(&V, sizeof(V)); }
  void str(const std::string &S) {
    value(S.size());
    bytes(S.data(), S.size());
  }
  uint64_t get() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ull;
};

std::string hex64(uint64_t V);

/// JSON string literal for \p S.
std::string jsonString(const std::string &S);

/// A number with all its digits, as JSON.
std::string jsonNumber(double V);

} // namespace rmdbench

#endif // RMDBENCH_MEASURE_H
