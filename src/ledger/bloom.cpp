#include "ledger/bloom.h"

namespace orderless::ledger {

std::uint64_t HashKey(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Final avalanche so sequential keys spread.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

BloomFilter::BloomFilter(std::size_t expected_keys) : num_hashes_(kNumHashes) {
  // ~9.6 bits/key gives about 1% FPR with 7 hashes.
  std::size_t bits = expected_keys * 10;
  if (bits < 64) bits = 64;
  words_.assign((bits + 63) / 64, 0);
}

BloomFilter::BloomFilter(std::vector<std::uint64_t> words,
                         std::uint32_t num_hashes)
    : words_(std::move(words)), num_hashes_(num_hashes) {
  if (words_.empty()) words_.push_back(0);
  if (num_hashes_ == 0) num_hashes_ = 1;
}

void BloomFilter::Add(std::string_view key) {
  const std::uint64_t h = HashKey(key);
  const std::uint64_t delta = (h >> 17) | (h << 47);
  const std::uint64_t nbits = words_.size() * 64;
  std::uint64_t pos = h;
  for (std::uint32_t i = 0; i < num_hashes_; ++i) {
    const std::uint64_t bit = pos % nbits;
    words_[bit / 64] |= (1ULL << (bit % 64));
    pos += delta;
  }
}

bool BloomFilter::MayContain(std::string_view key) const {
  const std::uint64_t h = HashKey(key);
  const std::uint64_t delta = (h >> 17) | (h << 47);
  const std::uint64_t nbits = words_.size() * 64;
  std::uint64_t pos = h;
  for (std::uint32_t i = 0; i < num_hashes_; ++i) {
    const std::uint64_t bit = pos % nbits;
    if ((words_[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
    pos += delta;
  }
  return true;
}

}  // namespace orderless::ledger
