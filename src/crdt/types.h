// CRDT type tags. The paper's prototype supports G-Counter, CRDT Map and
// MV-Register (Table 1); PN-Counter, OR-Set and LWW-Register are the
// "further CRDTs" extensions the paper mentions as future additions.
#pragma once

#include <cstdint>
#include <string_view>

namespace orderless::crdt {

enum class CrdtType : std::uint8_t {
  kNone = 0,  // used by delete (tombstone) inserts
  kGCounter = 1,
  kMVRegister = 2,
  kMap = 3,
  kPNCounter = 4,
  kORSet = 5,
  kLWWRegister = 6,
  kSequence = 7,  // RGA-style replicated sequence (collaborative editing)
};

constexpr std::uint8_t kMaxCrdtTypeTag =
    static_cast<std::uint8_t>(CrdtType::kSequence);

constexpr bool IsValidTypeTag(std::uint8_t tag) {
  return tag <= kMaxCrdtTypeTag;
}

constexpr std::string_view CrdtTypeName(CrdtType t) {
  switch (t) {
    case CrdtType::kNone:
      return "None";
    case CrdtType::kGCounter:
      return "G-Counter";
    case CrdtType::kMVRegister:
      return "MV-Register";
    case CrdtType::kMap:
      return "Map";
    case CrdtType::kPNCounter:
      return "PN-Counter";
    case CrdtType::kORSet:
      return "OR-Set";
    case CrdtType::kLWWRegister:
      return "LWW-Register";
    case CrdtType::kSequence:
      return "Sequence";
  }
  return "?";
}

}  // namespace orderless::crdt
