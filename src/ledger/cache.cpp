#include "ledger/cache.h"

#include <algorithm>
#include <utility>

namespace orderless::ledger {

void CrdtCache::Apply(const std::vector<crdt::Operation>& ops) {
  for (const auto& op : ops) {
    auto& object = objects_[op.object_id];
    if (object == nullptr) {
      object = std::make_unique<crdt::CrdtObject>(op.object_id, op.object_type);
    }
    object->ApplyOperation(op);
  }
}

crdt::ReadResult CrdtCache::Read(const std::string& object_id,
                                 const std::vector<std::string>& path) const {
  const auto it = objects_.find(object_id);
  if (it == objects_.end()) return crdt::ReadResult{};
  return it->second->Read(path);
}

Bytes CrdtCache::EncodeObjectState(const std::string& object_id) const {
  const auto it = objects_.find(object_id);
  if (it == objects_.end()) return {};
  return it->second->EncodeState();
}

std::vector<std::pair<std::string, Bytes>> CrdtCache::SnapshotStates() const {
  std::vector<std::pair<std::string, Bytes>> snapshot;
  snapshot.reserve(objects_.size());
  for (const auto& [id, object] : objects_) {
    snapshot.emplace_back(id, object->EncodeState());
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

bool CrdtCache::MergeEncodedState(const std::string& object_id,
                                  BytesView state) {
  auto incoming = crdt::CrdtObject::DecodeState(object_id, state);
  if (incoming == nullptr) return false;
  auto& object = objects_[object_id];
  if (object == nullptr) {
    object = std::move(incoming);
  } else {
    object->MergeState(*incoming);
  }
  return true;
}

std::size_t CrdtCache::object_count() const { return objects_.size(); }

void CrdtCache::Clear() { objects_.clear(); }

}  // namespace orderless::ledger
