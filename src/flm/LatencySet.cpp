//===- flm/LatencySet.cpp -------------------------------------------------===//

#include "flm/LatencySet.h"

#include <algorithm>
#include <cassert>

using namespace rmd;

/// Largest multiple of 64 that is <= L (floor division for negatives).
static int floor64(int L) {
  int Q = L / 64;
  if (L % 64 < 0)
    --Q;
  return Q * 64;
}

LatencySet::LatencySet(std::vector<int> TheValues) {
  for (int V : TheValues)
    insert(V);
}

size_t LatencySet::coverBit(int Latency) {
  int WordBase = floor64(Latency);
  if (Words.empty()) {
    Base = WordBase;
    Words.push_back(0);
  } else if (WordBase < Base) {
    size_t Grow = static_cast<size_t>(Base - WordBase) / 64;
    Words.insert(Words.begin(), Grow, 0);
    Base = WordBase;
  } else {
    size_t Word = static_cast<size_t>(WordBase - Base) / 64;
    if (Word >= Words.size())
      Words.resize(Word + 1, 0);
  }
  return static_cast<size_t>(Latency - Base);
}

void LatencySet::insert(int Latency) {
  size_t Bit = coverBit(Latency);
  uint64_t Mask = uint64_t(1) << (Bit % 64);
  uint64_t &W = Words[Bit / 64];
  if (W & Mask)
    return;
  W |= Mask;
  ++Count;
}

bool LatencySet::contains(int Latency) const {
  if (Words.empty() || Latency < Base)
    return false;
  size_t Bit = static_cast<size_t>(Latency - Base);
  size_t Word = Bit / 64;
  if (Word >= Words.size())
    return false;
  return (Words[Word] >> (Bit % 64)) & 1;
}

void LatencySet::unionWith(const LatencySet &Other) {
  if (Other.Words.empty())
    return;
  if (Words.empty()) {
    *this = Other;
    return;
  }
  // Align this set's span over the union of both spans, then OR. Both
  // bases are multiples of 64, so words line up without shifting.
  int NewBase = std::min(Base, Other.Base);
  int ThisEnd = Base + static_cast<int>(Words.size() * 64);
  int OtherEnd = Other.Base + static_cast<int>(Other.Words.size() * 64);
  int NewEnd = std::max(ThisEnd, OtherEnd);
  if (NewBase < Base)
    Words.insert(Words.begin(),
                 static_cast<size_t>(Base - NewBase) / 64, 0);
  Words.resize(static_cast<size_t>(NewEnd - NewBase) / 64, 0);
  Base = NewBase;

  size_t Offset = static_cast<size_t>(Other.Base - Base) / 64;
  size_t NewCount = 0;
  for (size_t I = 0; I < Other.Words.size(); ++I)
    Words[Offset + I] |= Other.Words[I];
  for (uint64_t W : Words)
    NewCount += static_cast<size_t>(std::popcount(W));
  Count = NewCount;
}

std::vector<int> LatencySet::values() const {
  std::vector<int> Result;
  Result.reserve(Count);
  for (int V : *this)
    Result.push_back(V);
  return Result;
}

size_t LatencySet::countBelow(int Latency) const {
  if (Words.empty() || Latency <= Base)
    return 0;
  size_t Bit = static_cast<size_t>(Latency - Base);
  size_t FullWords = std::min(Bit / 64, Words.size());
  size_t Below = 0;
  for (size_t I = 0; I < FullWords; ++I)
    Below += static_cast<size_t>(std::popcount(Words[I]));
  if (Bit / 64 < Words.size() && Bit % 64 != 0) {
    uint64_t BelowMask = (uint64_t(1) << (Bit % 64)) - 1;
    Below += static_cast<size_t>(std::popcount(Words[Bit / 64] & BelowMask));
  }
  return Below;
}

size_t LatencySet::nonnegativeCount() const { return Count - countBelow(0); }

LatencySet LatencySet::negated() const {
  LatencySet Result;
  for (int V : *this)
    Result.insert(-V);
  return Result;
}

bool LatencySet::isSubsetOf(const LatencySet &Other) const {
  if (Count > Other.Count)
    return false;
  if (Words.empty())
    return true;
  if (Base < Other.Base ||
      Base + static_cast<int>(Words.size() * 64) >
          Other.Base + static_cast<int>(Other.Words.size() * 64)) {
    // Our canonical span pokes out of Other's: our min or max is missing.
    return false;
  }
  size_t Offset = static_cast<size_t>(Base - Other.Base) / 64;
  for (size_t I = 0; I < Words.size(); ++I)
    if (Words[I] & ~Other.Words[Offset + I])
      return false;
  return true;
}
