//===- flm/LatencySet.h - Sets of forbidden latencies ----------*- C++ -*-===//
///
/// \file
/// A set of (possibly negative) forbidden latencies, stored word-parallel:
/// a base latency (always a multiple of 64) plus a span of 64-bit words,
/// one bit per latency. Latency sets are dense inside a narrow band
/// (bounded by twice the longest reservation table), which makes the
/// bitset both smaller and faster than the historical sorted vector —
/// insert and contains are O(1), union / subset / equality run one word
/// instruction per 64 latencies.
///
/// The representation is canonical (64-aligned base, no zero words at
/// either end, base 0 when empty), so equality is a plain word compare.
/// The sorted-vector API survives for rendering and tests: values()
/// materializes the members in ascending order, and begin()/end() iterate
/// set bits ascending without materializing anything.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_FLM_LATENCYSET_H
#define RMD_FLM_LATENCYSET_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmd {

/// A set of integer latencies over 64-bit words; see file comment.
class LatencySet {
public:
  LatencySet() = default;
  explicit LatencySet(std::vector<int> Values);

  /// Inserts \p Latency; duplicates are ignored.
  void insert(int Latency);

  /// True if \p Latency is a member.
  bool contains(int Latency) const;

  /// Inserts every member of \p Other (word-parallel OR).
  void unionWith(const LatencySet &Other);

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// The members in ascending order, materialized. Rendering/test API; the
  /// hot paths iterate begin()/end() or use contains() instead.
  std::vector<int> values() const;

  /// Number of members < \p Latency: the rank of \p Latency among the
  /// members, in O(words).
  size_t countBelow(int Latency) const;

  /// Number of members >= 0.
  size_t nonnegativeCount() const;

  /// Returns the set { -v | v in this }.
  LatencySet negated() const;

  /// True if every member of this set is also in \p Other (word-parallel
  /// A & ~B test over the overlap).
  bool isSubsetOf(const LatencySet &Other) const;

  /// Canonical representation makes equality a word compare.
  friend bool operator==(const LatencySet &A, const LatencySet &B) {
    return A.Count == B.Count && A.Base == B.Base && A.Words == B.Words;
  }

  /// Forward iterator over members in ascending order.
  class const_iterator {
  public:
    using value_type = int;

    const_iterator() = default;
    const_iterator(const LatencySet *Set, size_t WordIndex)
        : Set(Set), WordIndex(WordIndex) {
      advancePastZeroWords();
    }

    int operator*() const {
      return Set->Base + static_cast<int>(WordIndex * 64) +
             std::countr_zero(Current);
    }

    const_iterator &operator++() {
      Current &= Current - 1; // clear lowest set bit
      if (Current == 0) {
        ++WordIndex;
        advancePastZeroWords();
      }
      return *this;
    }

    friend bool operator==(const const_iterator &A, const const_iterator &B) {
      return A.WordIndex == B.WordIndex && A.Current == B.Current;
    }
    friend bool operator!=(const const_iterator &A, const const_iterator &B) {
      return !(A == B);
    }

  private:
    void advancePastZeroWords() {
      while (WordIndex < Set->Words.size() &&
             (Current = Set->Words[WordIndex]) == 0)
        ++WordIndex;
      if (WordIndex >= Set->Words.size())
        Current = 0;
    }

    const LatencySet *Set = nullptr;
    size_t WordIndex = 0;
    uint64_t Current = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, Words.size()); }

private:
  /// Grows the word span to cover \p Latency; returns the bit position.
  size_t coverBit(int Latency);

  /// First latency representable (bit 0 of Words[0]); always a multiple
  /// of 64, and 0 for the empty set.
  int Base = 0;
  std::vector<uint64_t> Words;
  size_t Count = 0;
};

} // namespace rmd

#endif // RMD_FLM_LATENCYSET_H
