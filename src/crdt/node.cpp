#include "crdt/node.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "crdt/leaf_nodes.h"
#include "crdt/map_node.h"
#include "crdt/sequence_node.h"

namespace orderless::crdt {

void ReadResult::MergeFrom(const ReadResult& other) {
  if (!other.exists) return;
  if (!exists) type = other.type;
  exists = true;
  // Concurrent counter children of one map key are summed; a counter's read
  // saturates at the int64_t range, and so does this sum.
  if (__builtin_add_overflow(counter, other.counter, &counter)) {
    counter = other.counter < 0 ? std::numeric_limits<std::int64_t>::min()
                                : std::numeric_limits<std::int64_t>::max();
  }
  values.insert(values.end(), other.values.begin(), other.values.end());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  keys.insert(keys.end(), other.keys.begin(), other.keys.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

std::string ReadResult::ToString() const {
  if (!exists) return "<missing>";
  std::ostringstream out;
  out << CrdtTypeName(type) << "{";
  if (type == CrdtType::kGCounter || type == CrdtType::kPNCounter) {
    out << counter;
  } else if (type == CrdtType::kMap) {
    bool first = true;
    for (const auto& k : keys) {
      if (!first) out << ",";
      first = false;
      out << k;
    }
  } else {
    bool first = true;
    for (const auto& v : values) {
      if (!first) out << ",";
      first = false;
      out << v.ToString();
    }
  }
  out << "}";
  return out.str();
}

std::unique_ptr<CrdtNode> NewNode(CrdtType t) {
  switch (t) {
    case CrdtType::kGCounter:
      return std::make_unique<GCounterNode>();
    case CrdtType::kPNCounter:
      return std::make_unique<PNCounterNode>();
    case CrdtType::kMVRegister:
      return std::make_unique<MVRegisterNode>();
    case CrdtType::kLWWRegister:
      return std::make_unique<LWWRegisterNode>();
    case CrdtType::kORSet:
      return std::make_unique<ORSetNode>();
    case CrdtType::kMap:
      return std::make_unique<MapNode>();
    case CrdtType::kSequence:
      return std::make_unique<SequenceNode>();
    case CrdtType::kNone:
      return nullptr;
  }
  return nullptr;
}

std::unique_ptr<CrdtNode> DecodeNode(CrdtType t, codec::Reader& r) {
  switch (t) {
    case CrdtType::kGCounter:
      return GCounterNode::Decode(r);
    case CrdtType::kPNCounter:
      return PNCounterNode::Decode(r);
    case CrdtType::kMVRegister:
      return MVRegisterNode::Decode(r);
    case CrdtType::kLWWRegister:
      return LWWRegisterNode::Decode(r);
    case CrdtType::kORSet:
      return ORSetNode::Decode(r);
    case CrdtType::kMap:
      return MapNode::Decode(r);
    case CrdtType::kSequence:
      return SequenceNode::Decode(r);
    case CrdtType::kNone:
      return nullptr;
  }
  return nullptr;
}

bool NodesEqual(const CrdtNode& a, const CrdtNode& b) {
  if (a.type() != b.type()) return false;
  codec::Writer wa;
  codec::Writer wb;
  a.Encode(wa);
  b.Encode(wb);
  return wa.data() == wb.data();
}

}  // namespace orderless::crdt
