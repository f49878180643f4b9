//===- support/Stats.cpp --------------------------------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <unordered_map>
#include <vector>

using namespace rmd;

namespace {

/// Slots per stat kind. Histogram layout: [count, sum, ~min, max,
/// bucket0..bucket64]. The ~min encoding (store the bitwise complement,
/// merge with max) makes zero-initialized slots a valid empty state, so
/// shard growth and reset() never need kind-specific initialization.
constexpr size_t CounterSlots = 1;
constexpr size_t TimerSlots = 2;
constexpr size_t HistogramSlots = 4 + 65;

size_t slotsFor(StatKind Kind) {
  switch (Kind) {
  case StatKind::Counter:
    return CounterSlots;
  case StatKind::Timer:
    return TimerSlots;
  case StatKind::Histogram:
    return HistogramSlots;
  }
  return CounterSlots;
}

/// One thread's slot array. Only the owning thread writes; snapshot()
/// reads concurrently under the registry mutex (which also serializes
/// growth), so plain relaxed atomics suffice and adds never contend.
struct Shard {
  std::deque<std::atomic<uint64_t>> Slots;
};

constexpr std::memory_order Relaxed = std::memory_order_relaxed;

/// Single-writer add/min/max; relaxed is enough because each slot has
/// exactly one writing thread.
void slotAdd(std::atomic<uint64_t> &S, uint64_t Delta) {
  S.store(S.load(Relaxed) + Delta, Relaxed);
}
void slotMax(std::atomic<uint64_t> &S, uint64_t Value) {
  if (Value > S.load(Relaxed))
    S.store(Value, Relaxed);
}

} // namespace

struct StatsRegistry::Impl {
  mutable std::mutex Mutex;
  std::unordered_map<std::string, size_t> NameToSlot;
  /// Registration order, parallel arrays indexed by stat ordinal.
  std::vector<std::string> Names;
  std::vector<StatKind> Kinds;
  std::vector<size_t> BaseSlots;
  size_t TotalSlots = 0;

  std::vector<Shard *> LiveShards;
  std::vector<uint64_t> Retired; ///< merged totals of exited threads

  /// The calling thread's shard, registered on first use and merged into
  /// Retired when the thread exits.
  Shard &localShard() {
    struct Handle {
      Impl *Owner = nullptr;
      Shard TheShard;
      ~Handle() {
        if (!Owner)
          return;
        std::lock_guard<std::mutex> Lock(Owner->Mutex);
        if (Owner->Retired.size() < TheShard.Slots.size())
          Owner->Retired.resize(TheShard.Slots.size(), 0);
        Owner->mergeSlots(Owner->Retired, TheShard);
        Owner->LiveShards.erase(std::find(Owner->LiveShards.begin(),
                                          Owner->LiveShards.end(),
                                          &TheShard));
      }
    };
    thread_local Handle H;
    if (!H.Owner) {
      H.Owner = this;
      std::lock_guard<std::mutex> Lock(Mutex);
      LiveShards.push_back(&H.TheShard);
    }
    return H.TheShard;
  }

  /// Grows \p S to cover \p Slot (under the mutex: snapshot() may be
  /// iterating this shard from another thread).
  void ensureSlot(Shard &S, size_t Slot) {
    if (Slot < S.Slots.size())
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    // deque growth constructs new elements in place without moving the
    // existing ones, so concurrent readers of old slots stay valid.
    while (S.Slots.size() <= Slot)
      S.Slots.emplace_back(0);
  }

  /// Kind-aware merge of one shard into a totals vector. Counters, timer
  /// fields, histogram count/sum/buckets add; ~min and max merge by max
  /// (hence the complement encoding for min).
  void mergeSlots(std::vector<uint64_t> &Into, const Shard &From) const {
    for (size_t Ordinal = 0; Ordinal < Names.size(); ++Ordinal) {
      size_t Base = BaseSlots[Ordinal];
      size_t N = slotsFor(Kinds[Ordinal]);
      for (size_t I = 0; I < N && Base + I < From.Slots.size(); ++I) {
        uint64_t V = From.Slots[Base + I].load(Relaxed);
        bool IsMinMax =
            Kinds[Ordinal] == StatKind::Histogram && (I == 2 || I == 3);
        if (IsMinMax)
          Into[Base + I] = std::max(Into[Base + I], V);
        else
          Into[Base + I] += V;
      }
    }
  }
};

StatsRegistry::Impl &StatsRegistry::impl() const {
  static Impl *I = new Impl; // never destroyed: handles outlive main()
  return *I;
}

StatsRegistry &StatsRegistry::instance() {
  static StatsRegistry R;
  return R;
}

size_t StatsRegistry::registerStat(std::string_view Name, StatKind Kind) {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  auto It = I.NameToSlot.find(std::string(Name));
  if (It != I.NameToSlot.end()) {
    assert(I.Kinds[It->second] == Kind && "stat re-registered as a "
                                          "different kind");
    return I.BaseSlots[It->second];
  }
  size_t Ordinal = I.Names.size();
  I.Names.emplace_back(Name);
  I.Kinds.push_back(Kind);
  I.BaseSlots.push_back(I.TotalSlots);
  I.NameToSlot.emplace(std::string(Name), Ordinal);
  size_t Base = I.TotalSlots;
  I.TotalSlots += slotsFor(Kind);
  return Base;
}

void StatsRegistry::add(size_t Slot, uint64_t Delta) {
  Impl &I = impl();
  Shard &S = I.localShard();
  I.ensureSlot(S, Slot);
  slotAdd(S.Slots[Slot], Delta);
}

void StatsRegistry::recordTimer(size_t Slot, uint64_t Nanos) {
  Impl &I = impl();
  Shard &S = I.localShard();
  I.ensureSlot(S, Slot + 1);
  slotAdd(S.Slots[Slot], 1);
  slotAdd(S.Slots[Slot + 1], Nanos);
}

void StatsRegistry::recordHistogram(size_t Slot, uint64_t Value) {
  Impl &I = impl();
  Shard &S = I.localShard();
  size_t Bucket = static_cast<size_t>(std::bit_width(Value));
  I.ensureSlot(S, Slot + 4 + 64);
  slotAdd(S.Slots[Slot], 1);          // count
  slotAdd(S.Slots[Slot + 1], Value);  // sum
  slotMax(S.Slots[Slot + 2], ~Value); // ~min
  slotMax(S.Slots[Slot + 3], Value);  // max
  slotAdd(S.Slots[Slot + 4 + Bucket], 1);
}

void StatsRegistry::recordHistogramValues(size_t Slot, const uint32_t *Values,
                                          size_t N) {
  if (N == 0)
    return;
  uint64_t Sum = 0, Min = UINT64_MAX, Max = 0;
  std::array<uint64_t, 33> Buckets{}; // bit_width of a uint32_t is <= 32
  for (size_t K = 0; K < N; ++K) {
    uint64_t Value = Values[K];
    Sum += Value;
    Min = std::min(Min, Value);
    Max = std::max(Max, Value);
    ++Buckets[std::bit_width(Values[K])];
  }
  Impl &I = impl();
  Shard &S = I.localShard();
  I.ensureSlot(S, Slot + 4 + 64);
  slotAdd(S.Slots[Slot], N);
  slotAdd(S.Slots[Slot + 1], Sum);
  slotMax(S.Slots[Slot + 2], ~Min);
  slotMax(S.Slots[Slot + 3], Max);
  for (size_t B = 0; B < Buckets.size(); ++B)
    if (Buckets[B] != 0)
      slotAdd(S.Slots[Slot + 4 + B], Buckets[B]);
}

StatsSnapshot StatsRegistry::snapshot() const {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);

  std::vector<uint64_t> Totals(I.TotalSlots, 0);
  size_t N = std::min(Totals.size(), I.Retired.size());
  for (size_t S = 0; S < N; ++S)
    Totals[S] = I.Retired[S];
  for (const Shard *S : I.LiveShards)
    I.mergeSlots(Totals, *S);

  StatsSnapshot Snap;
  for (size_t Ordinal = 0; Ordinal < I.Names.size(); ++Ordinal) {
    const std::string &Name = I.Names[Ordinal];
    size_t Base = I.BaseSlots[Ordinal];
    switch (I.Kinds[Ordinal]) {
    case StatKind::Counter:
      Snap.Counters[Name] = Totals[Base];
      break;
    case StatKind::Timer: {
      StatsSnapshot::TimerValue T;
      T.Count = Totals[Base];
      T.TotalNs = Totals[Base + 1];
      Snap.Timers[Name] = T;
      break;
    }
    case StatKind::Histogram: {
      StatsSnapshot::HistogramValue H;
      H.Count = Totals[Base];
      H.Sum = Totals[Base + 1];
      H.Min = H.Count ? ~Totals[Base + 2] : 0;
      H.Max = Totals[Base + 3];
      for (size_t B = 0; B < H.Buckets.size(); ++B)
        H.Buckets[B] = Totals[Base + 4 + B];
      Snap.Histograms[Name] = H;
      break;
    }
    }
  }
  return Snap;
}

void StatsRegistry::reset() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mutex);
  std::fill(I.Retired.begin(), I.Retired.end(), 0);
  for (Shard *S : I.LiveShards)
    for (std::atomic<uint64_t> &Slot : S->Slots)
      Slot.store(0, Relaxed);
}

//===----------------------------------------------------------------------===//
// JSON export
//===----------------------------------------------------------------------===//

namespace {

/// Stats names are ASCII identifiers with dots/slashes, but escape
/// defensively so the document is always valid JSON.
void writeJsonString(std::ostream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        static const char Hex[] = "0123456789abcdef";
        OS << "\\u00" << Hex[(C >> 4) & 0xf] << Hex[C & 0xf];
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

} // namespace

void StatsSnapshot::writeJson(std::ostream &OS,
                              const JsonOptions &Options) const {
  OS << "{\n  \"schema\": \"rmd-stats-v1\"";
  if (!Options.Tool.empty()) {
    OS << ",\n  \"tool\": ";
    writeJsonString(OS, Options.Tool);
  }

  OS << ",\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    OS << (First ? "\n    " : ",\n    ");
    writeJsonString(OS, Name);
    OS << ": " << Value;
    First = false;
  }
  OS << (First ? "}" : "\n  }");

  OS << ",\n  \"timers\": {";
  First = true;
  for (const auto &[Name, T] : Timers) {
    OS << (First ? "\n    " : ",\n    ");
    writeJsonString(OS, Name);
    OS << ": {\"count\": " << T.Count;
    if (Options.IncludeTimings)
      OS << ", \"total_ns\": " << T.TotalNs;
    OS << "}";
    First = false;
  }
  OS << (First ? "}" : "\n  }");

  OS << ",\n  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    OS << (First ? "\n    " : ",\n    ");
    writeJsonString(OS, Name);
    OS << ": {\"count\": " << H.Count << ", \"sum\": " << H.Sum
       << ", \"min\": " << H.Min << ", \"max\": " << H.Max
       << ", \"buckets\": {";
    bool FirstBucket = true;
    for (size_t B = 0; B < H.Buckets.size(); ++B) {
      if (!H.Buckets[B])
        continue;
      OS << (FirstBucket ? "" : ", ") << '"' << B << "\": " << H.Buckets[B];
      FirstBucket = false;
    }
    OS << "}}";
    First = false;
  }
  OS << (First ? "}" : "\n  }");

  OS << "\n}\n";
}

bool rmd::exportProcessStats(const std::string &Path,
                             const std::string &Tool) {
  StatsSnapshot Snap = StatsRegistry::instance().snapshot();
  StatsSnapshot::JsonOptions Options;
  Options.Tool = Tool;
  if (Path == "-") {
    Snap.writeJson(std::cout, Options);
    return true;
  }
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    std::cerr << Tool << ": warning: cannot write stats JSON to '" << Path
              << "'\n";
    return false;
  }
  Snap.writeJson(Out, Options);
  return true;
}

StatsJsonGuard::StatsJsonGuard(int &Argc, char **Argv, std::string TheTool)
    : Tool(std::move(TheTool)) {
  static constexpr std::string_view Flag = "--stats-json=";
  int Out = 1;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I] ? std::string_view(Argv[I])
                                   : std::string_view();
    if (Arg.rfind(Flag, 0) == 0)
      Path = std::string(Arg.substr(Flag.size()));
    else
      Argv[Out++] = Argv[I];
  }
  if (Out < Argc) {
    Argv[Out] = nullptr;
    Argc = Out;
  }
  if (Path.empty())
    if (const char *Env = std::getenv("RMD_STATS_JSON"))
      Path = Env;
}

StatsJsonGuard::~StatsJsonGuard() {
  if (!Path.empty())
    exportProcessStats(Path, Tool);
}
