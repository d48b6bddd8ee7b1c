#include "ledger/kvstore.h"

namespace orderless::ledger {

Status MemKvStore::Put(std::string_view key, BytesView value) {
  data_[std::string(key)].assign(value.begin(), value.end());
  return Status::Ok();
}

Status MemKvStore::Delete(std::string_view key) {
  const auto it = data_.find(key);
  if (it != data_.end()) data_.erase(it);
  return Status::Ok();
}

std::optional<Bytes> MemKvStore::Get(std::string_view key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void MemKvStore::ScanPrefix(
    std::string_view prefix,
    const std::function<bool(std::string_view, BytesView)>& visitor) const {
  for (auto it = data_.lower_bound(prefix); it != data_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (!visitor(it->first, it->second)) break;
  }
}

}  // namespace orderless::ledger
