#include "ledger/hashchain.h"

#include <array>
#include <cstring>

namespace orderless::ledger {

crypto::Digest Block::ComputeHash(std::uint64_t height,
                                  const crypto::Digest& prev_hash,
                                  const crypto::Digest& tx_digest, bool valid) {
  // The header bytes: little-endian height, the two digests, a verdict byte.
  std::array<std::uint8_t, 8 + 32 + 32 + 1> header{};
  for (std::size_t i = 0; i < 8; ++i) {
    header[i] = static_cast<std::uint8_t>(height >> (8 * i));
  }
  std::memcpy(header.data() + 8, prev_hash.bytes.data(), 32);
  std::memcpy(header.data() + 40, tx_digest.bytes.data(), 32);
  header[72] = valid ? 1 : 0;
  return crypto::Sha256::Hash(BytesView(header.data(), header.size()));
}

const Block& HashChainLog::Append(const crypto::Digest& tx_digest, bool valid) {
  Block block;
  block.height = total_appended_++;
  block.prev_hash = LastHash();
  block.tx_digest = tx_digest;
  block.valid = valid;
  block.hash = Block::ComputeHash(block.height, block.prev_hash,
                                  block.tx_digest, block.valid);
  if (rolling_ && !blocks_.empty()) blocks_.clear();
  blocks_.push_back(block);
  return blocks_.back();
}

crypto::Digest HashChainLog::LastHash() const {
  return blocks_.empty() ? base_hash_ : blocks_.back().hash;
}

void HashChainLog::SeedBase(std::uint64_t base_height,
                            const crypto::Digest& base_hash) {
  base_height_ = base_height;
  base_hash_ = base_hash;
  total_appended_ = base_height;
}

void HashChainLog::PruneBelow(std::uint64_t frontier_height,
                              const crypto::Digest& boundary_hash) {
  if (frontier_height <= base_height_) return;
  std::erase_if(blocks_, [frontier_height](const Block& b) {
    return b.height < frontier_height;
  });
  base_height_ = frontier_height;
  base_hash_ = boundary_hash;
}

std::size_t HashChainLog::FirstInvalidBlock() const {
  crypto::Digest prev = base_hash_;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    if (i == 0) {
      // The first retained block links to the checkpoint boundary (genesis
      // when nothing was pruned). In rolling mode the retained suffix may
      // start past that, where the predecessor hash is no longer available.
      if (b.height == base_height_ && b.prev_hash != prev) return i;
    } else {
      if (b.height != blocks_[i - 1].height + 1 || b.prev_hash != prev) {
        return i;
      }
    }
    if (Block::ComputeHash(b.height, b.prev_hash, b.tx_digest, b.valid) !=
        b.hash) {
      return i;
    }
    prev = b.hash;
  }
  return blocks_.size();
}

}  // namespace orderless::ledger
