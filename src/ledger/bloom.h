// Bloom filter for SSTable point lookups.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace orderless::ledger {

class BloomFilter {
 public:
  /// Probes per key. Every filter the SSTable writer builds uses this count,
  /// so a table that records any other count is corrupt.
  static constexpr std::uint32_t kNumHashes = 7;

  /// Sizes the filter for `expected_keys` at ~1% false-positive rate.
  explicit BloomFilter(std::size_t expected_keys);
  /// Wraps existing filter words (from an SSTable).
  BloomFilter(std::vector<std::uint64_t> words, std::uint32_t num_hashes);

  void Add(std::string_view key);
  bool MayContain(std::string_view key) const;

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::uint32_t num_hashes() const { return num_hashes_; }

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t num_hashes_;
};

/// FNV-1a 64-bit key hash, shared with the SSTable index.
std::uint64_t HashKey(std::string_view key);

}  // namespace orderless::ledger
