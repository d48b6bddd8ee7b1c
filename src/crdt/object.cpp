#include "crdt/object.h"

#include "crdt/map_node.h"

namespace orderless::crdt {

CrdtObject::CrdtObject(std::string object_id, CrdtType root_type)
    : id_(std::move(object_id)),
      root_type_(root_type),
      root_(NewNode(root_type)) {
  if (root_ == nullptr) {
    root_type_ = CrdtType::kMap;
    root_ = NewNode(root_type_);
  }
}

void CrdtObject::ApplyOperations(const std::vector<Operation>& ops) {
  for (const auto& op : ops) ApplyOperation(op);
}

bool CrdtObject::ApplyOperation(const Operation& op) {
  if (op.object_id != id_) return false;
  if (op.object_type != root_type_) return false;
  return root_->Apply(op, 0);
}

ReadResult CrdtObject::Read(const std::vector<std::string>& path) const {
  return root_->ReadAt(path, 0);
}

Bytes CrdtObject::EncodeState() const {
  codec::Writer w;
  w.PutU8(static_cast<std::uint8_t>(root_type_));
  root_->Encode(w);
  return w.Take();
}

std::unique_ptr<CrdtObject> CrdtObject::DecodeState(
    const std::string& object_id, BytesView state) {
  codec::Reader r(state);
  const auto type = r.GetU8();
  if (!type || !IsValidTypeTag(*type)) {
    return nullptr;
  }
  auto root = DecodeNode(static_cast<CrdtType>(*type), r);
  if (root == nullptr) return nullptr;
  auto obj = std::make_unique<CrdtObject>(object_id,
                                          static_cast<CrdtType>(*type));
  obj->root_ = std::move(root);
  return obj;
}

void CrdtObject::MergeState(const CrdtObject& other) {
  if (other.root_type_ != root_type_) return;
  root_->MergeFrom(*other.root_);
}

CrdtObject CrdtObject::CloneObject() const {
  CrdtObject copy(id_, root_type_);
  copy.root_ = root_->Clone();
  return copy;
}

}  // namespace orderless::crdt
