#include "ledger/cache.h"

#include <algorithm>
#include <utility>

namespace orderless::ledger {

CrdtCache::Entry& CrdtCache::GetOrCreate(const std::string& object_id,
                                         crdt::CrdtType type) {
  std::lock_guard<std::mutex> lock(map_mutex_);
  auto& slot = entries_[object_id];
  if (slot == nullptr) {
    slot = std::make_unique<Entry>();
    slot->object = std::make_unique<crdt::CrdtObject>(object_id, type);
  }
  return *slot;
}

void CrdtCache::Apply(const std::vector<crdt::Operation>& ops) {
  for (const auto& op : ops) {
    Entry& entry = GetOrCreate(op.object_id, op.object_type);
    std::lock_guard<std::mutex> lock(entry.mutex);
    entry.object->ApplyOperation(op);
  }
}

crdt::ReadResult CrdtCache::Read(const std::string& object_id,
                                 const std::vector<std::string>& path) const {
  const Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto it = entries_.find(object_id);
    if (it == entries_.end()) return crdt::ReadResult{};
    entry = it->second.get();
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  return entry->object->Read(path);
}

Bytes CrdtCache::EncodeObjectState(const std::string& object_id) const {
  const Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    const auto it = entries_.find(object_id);
    if (it == entries_.end()) return {};
    entry = it->second.get();
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  return entry->object->EncodeState();
}

std::vector<std::pair<std::string, Bytes>> CrdtCache::SnapshotStates() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    ids.reserve(entries_.size());
    for (const auto& [id, entry] : entries_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  std::vector<std::pair<std::string, Bytes>> snapshot;
  snapshot.reserve(ids.size());
  for (const std::string& id : ids) {
    snapshot.emplace_back(id, EncodeObjectState(id));
  }
  return snapshot;
}

bool CrdtCache::MergeEncodedState(const std::string& object_id,
                                  BytesView state) {
  auto incoming = crdt::CrdtObject::DecodeState(object_id, state);
  if (incoming == nullptr) return false;
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(map_mutex_);
    auto& slot = entries_[object_id];
    if (slot == nullptr) {
      slot = std::make_unique<Entry>();
      slot->object = std::move(incoming);
      return true;
    }
    entry = slot.get();
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  entry->object->MergeState(*incoming);
  return true;
}

std::size_t CrdtCache::object_count() const {
  std::lock_guard<std::mutex> lock(map_mutex_);
  return entries_.size();
}

void CrdtCache::Clear() {
  std::lock_guard<std::mutex> lock(map_mutex_);
  entries_.clear();
}

}  // namespace orderless::ledger
