#include "crdt/op.h"

#include <algorithm>
#include <sstream>

namespace orderless::crdt {

std::string_view OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kAddValue:
      return "AddValue";
    case OpKind::kInsertValue:
      return "InsertValue";
    case OpKind::kAssignValue:
      return "AssignValue";
    case OpKind::kRemoveValue:
      return "RemoveValue";
  }
  return "?";
}

std::string OpId::ToString() const {
  return "op(" + std::to_string(client) + "," + std::to_string(counter) + "," +
         std::to_string(seq) + ")";
}

void Operation::Encode(codec::Writer& w) const {
  w.PutString(object_id);
  w.PutU8(static_cast<std::uint8_t>(object_type));
  w.PutVarint(path.size());
  for (const auto& seg : path) w.PutString(seg);
  w.PutU8(static_cast<std::uint8_t>(kind));
  w.PutU8(static_cast<std::uint8_t>(value_type));
  value.Encode(w);
  clock.Encode(w);
  w.PutU32(seq);
}

std::optional<Operation> Operation::Decode(codec::Reader& r) {
  Operation op;
  auto object_id = r.GetString();
  if (!object_id) return std::nullopt;
  op.object_id = std::move(*object_id);
  const auto object_type = r.GetU8();
  if (!object_type || !IsValidTypeTag(*object_type)) {
    return std::nullopt;
  }
  op.object_type = static_cast<CrdtType>(*object_type);
  const auto path_len = r.GetVarint();
  if (!path_len || *path_len > 1024) return std::nullopt;
  // Each segment takes at least one byte, so the bytes left bound the count.
  op.path.reserve(std::min<std::uint64_t>(*path_len, r.remaining()));
  for (std::uint64_t i = 0; i < *path_len; ++i) {
    auto seg = r.GetString();
    if (!seg) return std::nullopt;
    op.path.push_back(std::move(*seg));
  }
  const auto kind = r.GetU8();
  if (!kind || *kind > static_cast<std::uint8_t>(OpKind::kRemoveValue)) {
    return std::nullopt;
  }
  op.kind = static_cast<OpKind>(*kind);
  const auto value_type = r.GetU8();
  if (!value_type || !IsValidTypeTag(*value_type)) {
    return std::nullopt;
  }
  op.value_type = static_cast<CrdtType>(*value_type);
  auto value = Value::Decode(r);
  if (!value) return std::nullopt;
  op.value = std::move(*value);
  auto clock = clk::OpClock::Decode(r);
  if (!clock) return std::nullopt;
  op.clock = *clock;
  const auto seq = r.GetU32();
  if (!seq) return std::nullopt;
  op.seq = *seq;
  return op;
}

crypto::Digest Operation::ContentDigest() const {
  codec::Writer w;
  Encode(w);
  return crypto::Sha256::Hash(BytesView(w.data()));
}

std::string Operation::ToString() const {
  std::ostringstream out;
  out << OpKindName(kind) << "(" << object_id;
  for (const auto& seg : path) out << "/" << seg;
  out << ", " << value.ToString() << ", " << clock.ToString() << "#" << seq
      << ")";
  return out.str();
}

void EncodeOperations(const std::vector<Operation>& ops, codec::Writer& w) {
  w.PutVarint(ops.size());
  for (const auto& op : ops) op.Encode(w);
}

std::optional<std::vector<Operation>> DecodeOperations(codec::Reader& r) {
  const auto n = r.GetVarint();
  if (!n || *n > (1u << 20)) return std::nullopt;
  std::vector<Operation> ops;
  ops.reserve(std::min<std::uint64_t>(*n, r.remaining()));
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto op = Operation::Decode(r);
    if (!op) return std::nullopt;
    ops.push_back(std::move(*op));
  }
  return ops;
}

}  // namespace orderless::crdt
