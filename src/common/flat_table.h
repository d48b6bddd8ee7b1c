// An insert-only hash table for large, long-lived key sets: entries in
// insertion order, found through an open-addressing index of positions.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace orderless {

/// Value type of a FlatTable used as a set.
struct NoValue {};

/// Keeps its entries in insertion order in segments of 4, 4, 8, ..., 128
/// and then 256 entries, each reserved whole when it is started, so a
/// reference to an entry stays valid across later inserts, growth never
/// copies one, and a small table stays small. A power-of-two index of 32-bit
/// positions, kept at most half full (linear probing), finds them. Lookups
/// compare whole keys, so `Hash` may read only part of a key. There is no
/// erase.
template <typename Key, typename Value, typename Hash>
class FlatTable {
 public:
  struct Entry {
    Key key;
    [[no_unique_address]] Value value;
  };

  FlatTable() = default;
  FlatTable(const FlatTable& other)
      : index_(other.index_), shift_(other.shift_) {
    // A plain vector copy would shrink a segment to its size; reserve each
    // one whole so later inserts never move entries.
    for (const std::vector<Entry>& segment : other.segments_) {
      StartSegment();
      segments_.back().assign(segment.begin(), segment.end());
    }
  }
  FlatTable& operator=(const FlatTable& other) {
    if (this != &other) *this = FlatTable(other);
    return *this;
  }
  FlatTable(FlatTable&&) = default;
  FlatTable& operator=(FlatTable&&) = default;

  const Value* Find(const Key& key) const {
    if (index_.empty()) return nullptr;
    const std::uint32_t slot = index_[Probe(key)];
    return slot == 0 ? nullptr : &At(slot - 1).value;
  }

  /// The entry's value, and whether this call inserted it (default-valued).
  std::pair<Value&, bool> FindOrInsert(const Key& key) {
    std::size_t i = 0;
    if (!index_.empty()) {
      i = Probe(key);
      if (index_[i] != 0) return {At(index_[i] - 1).value, false};
    }
    const std::size_t position = size();
    if (2 * (position + 1) > index_.size()) {
      Grow();
      i = Probe(key);
    }
    if (position == SegmentStart(segments_.size())) StartSegment();
    segments_.back().push_back(Entry{key, Value{}});
    index_[i] = static_cast<std::uint32_t>(position + 1);
    return {segments_.back().back().value, true};
  }

  std::size_t size() const {
    if (segments_.empty()) return 0;
    return SegmentStart(segments_.size() - 1) + segments_.back().size();
  }

  void clear() {
    segments_.clear();
    index_.clear();
  }

  /// Calls `fn(entry)` for every entry, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::vector<Entry>& segment : segments_) {
      for (const Entry& entry : segment) fn(entry);
    }
  }

 private:
  static constexpr std::size_t kMinIndexSize = 8;
  // Segment 0 holds kFirstSegment entries; each later one holds as many as
  // all before it until that reaches kMaxSegment, and kMaxSegment after.
  // Both are powers of two; the cap bounds a table's unused reserve.
  static constexpr std::size_t kFirstSegment = 4;
  static constexpr std::size_t kMaxSegment = 256;
  static constexpr std::size_t kGrowingSegments =
      std::bit_width(kMaxSegment / kFirstSegment);

  // The position of segment s's first entry.
  static std::size_t SegmentStart(std::size_t s) {
    if (s < kGrowingSegments) return s == 0 ? 0 : kFirstSegment << (s - 1);
    return (s - kGrowingSegments + 1) * kMaxSegment;
  }

  const Entry& At(std::size_t position) const {
    const std::size_t s =
        position < kMaxSegment
            ? std::bit_width(position / kFirstSegment)
            : position / kMaxSegment + kGrowingSegments - 1;
    return segments_[s][position - SegmentStart(s)];
  }
  Entry& At(std::size_t position) {
    return const_cast<Entry&>(std::as_const(*this).At(position));
  }

  void StartSegment() {
    const std::size_t s = segments_.size();
    std::vector<Entry> segment;
    segment.reserve(SegmentStart(s + 1) - SegmentStart(s));
    segments_.push_back(std::move(segment));
  }

  std::size_t Home(const Key& key) const {
    // Fibonacci hashing: the top bits of the product mix every bit of the
    // hash into the slot number.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(Hash{}(key)) * 0x9E3779B97F4A7C15ULL) >>
        shift_);
  }

  // The index slot holding `key`'s position, or the empty slot where it
  // would go. The index must be non-empty; it always has an empty slot.
  std::size_t Probe(const Key& key) const {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = Home(key);; i = (i + 1) & mask) {
      const std::uint32_t slot = index_[i];
      if (slot == 0 || At(slot - 1).key == key) return i;
    }
  }

  void Grow() {
    const std::uint64_t size =
        index_.empty() ? kMinIndexSize : 2 * std::uint64_t{index_.size()};
    // Positions are 32-bit and the index stays at most half full.
    if (size > (std::uint64_t{1} << 32)) {
      throw std::length_error("FlatTable: too many entries");
    }
    std::vector<std::uint32_t> index(static_cast<std::size_t>(size), 0);
    index_.swap(index);
    shift_ = 64 - std::countr_zero(size);
    const std::size_t mask = index_.size() - 1;
    std::uint32_t position = 0;
    ForEach([&](const Entry& entry) {
      std::size_t i = Home(entry.key);
      while (index_[i] != 0) i = (i + 1) & mask;
      index_[i] = ++position;
    });
  }

  std::vector<std::vector<Entry>> segments_;
  // 0 marks an empty slot; otherwise the slot holds an entry's position + 1.
  std::vector<std::uint32_t> index_;
  int shift_ = 64;
};

}  // namespace orderless
