#include "core/validation_cache.h"

namespace orderless::core {

VerdictTable::VerdictTable(const crypto::Pki& pki,
                           std::set<crypto::KeyId> org_keys,
                           EndorsementPolicy policy)
    : pki_(pki), org_keys_(std::move(org_keys)), policy_(policy) {}

TxVerdict VerdictTable::Validate(
    const std::shared_ptr<const Transaction>& tx) {
  const std::shared_ptr<const Bytes> body = tx->SharedEncoding();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(tx->id);
    if (it != entries_.end() &&
        (it->second.body == body || *it->second.body == *body)) {
      return it->second.verdict;
    }
  }
  const TxVerdict verdict = ValidateTransaction(*tx, pki_, org_keys_, policy_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!entries_.contains(tx->id)) {
    if (insert_order_.size() >= kCapacity) {
      entries_.erase(insert_order_.front());
      insert_order_.pop_front();
    }
    entries_.emplace(tx->id, Entry{body, verdict});
    insert_order_.push_back(tx->id);
  }
  return verdict;
}

std::size_t VerdictTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace orderless::core
