// Leaf CRDTs: G-Counter and MV-Register from the paper's Table 1, plus the
// PN-Counter, LWW-Register and OR-Set extensions.
#pragma once

#include <map>
#include <set>
#include <utility>

#include "clock/logical_clock.h"
#include "common/flat_table.h"
#include "crdt/node.h"

namespace orderless::crdt {

/// Hash for counter contributions. The contribution set is a membership
/// index on the apply path; Encode() sorts a copy so the canonical state
/// bytes never depend on arrival order.
struct ContributionHash {
  std::size_t operator()(
      const std::pair<OpId, std::int64_t>& c) const noexcept {
    std::uint64_t h = c.first.client * 0x9E3779B97F4A7C15ULL;
    h ^= (c.first.counter + 0x9E3779B97F4A7C15ULL) * 0xC2B2AE3D27D4EB4FULL;
    h ^= (static_cast<std::uint64_t>(c.first.seq) ^
          static_cast<std::uint64_t>(c.second)) *
         0x165667B19E3779F9ULL;
    h ^= h >> 29;
    return static_cast<std::size_t>(h);
  }
};

/// A counter's CRDT state: the set of its (op id, amount) contributions.
using Contributions =
    FlatTable<std::pair<OpId, std::int64_t>, NoValue, ContributionHash>;

/// Grow-only counter: value = sum of all (positive) AddValue contributions.
/// Contributions are keyed by (op id, amount) so replays dedup and Byzantine
/// op-id reuse still converges.
class GCounterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kGCounter; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return contributions_.size(); }

  static std::unique_ptr<GCounterNode> Decode(codec::Reader& r);

 private:
  Contributions contributions_;
  // Sum of contributions_. Honest adds can carry it past int64_t (two bids
  // of 2^62), so it is held wide and saturated on read: the value stays a
  // function of the contribution set, whatever the arrival order.
  __int128 total_ = 0;
};

/// PN-Counter extension: increments and decrements.
class PNCounterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kPNCounter; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return contributions_.size(); }

  static std::unique_ptr<PNCounterNode> Decode(codec::Reader& r);

 private:
  Contributions contributions_;
  __int128 total_ = 0;  // held wide and saturated on read, as GCounterNode
};

/// Multi-value register: keeps the maximal antichain of assignments under
/// happened-before; concurrent assignments all survive (paper Fig. 4).
///
/// Two indexes hold the same entries. `candidates_` is ordered by (client,
/// counter, value): Encode walks it and Assign searches only the implicit
/// front and the incoming client's run, the only entries clk::Compare can
/// relate to the incoming clock. `values_` keeps the values presorted for
/// ReadAt.
class MVRegisterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kMVRegister; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return candidates_.size(); }

  /// Direct assignment (used when a map insert carries an initial value).
  void Assign(const Value& v, const clk::OpClock& clock);

  static std::unique_ptr<MVRegisterNode> Decode(codec::Reader& r);

 private:
  using Candidate = std::pair<clk::OpClock, Value>;
  // Orders candidates by (client, counter, value). A bare clock compares
  // with a candidate by clock alone, so lower_bound(clock) finds the first
  // candidate at or after that clock.
  struct CandidateLess {
    using is_transparent = void;
    bool operator()(const Candidate& a, const Candidate& b) const {
      return a < b;
    }
    bool operator()(const Candidate& a, const clk::OpClock& b) const {
      return a.first < b;
    }
    bool operator()(const clk::OpClock& a, const Candidate& b) const {
      return a < b.first;
    }
  };
  using Candidates = std::set<Candidate, CandidateLess>;

  // Every entry is added or dropped through these two (Clone copies both
  // indexes), which keep `values_` equal to the values in `candidates_`.
  void Insert(const clk::OpClock& clock, const Value& v);
  void Erase(Candidates::const_iterator first,
             Candidates::const_iterator last);

  Candidates candidates_;
  std::multiset<Value> values_;
};

/// Last-writer-wins register extension: total order on (counter, client,
/// value) picks a single winner deterministically.
class LWWRegisterNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kLWWRegister; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override { return has_value_ ? 1 : 0; }

  void Assign(const Value& v, const clk::OpClock& clock);

  static std::unique_ptr<LWWRegisterNode> Decode(codec::Reader& r);

 private:
  bool has_value_ = false;
  clk::OpClock clock_;
  Value value_;
};

/// Observed-remove set extension: an element is present iff some add is not
/// happened-before any remove of the same element.
class ORSetNode final : public CrdtNode {
 public:
  CrdtType type() const override { return CrdtType::kORSet; }
  bool Apply(const Operation& op, std::size_t depth) override;
  ReadResult ReadAt(const std::vector<std::string>& path,
                    std::size_t depth) const override;
  void Encode(codec::Writer& w) const override;
  std::unique_ptr<CrdtNode> Clone() const override;
  void MergeFrom(const CrdtNode& other) override;
  std::size_t OpCount() const override;

  bool Contains(const Value& v) const;

  static std::unique_ptr<ORSetNode> Decode(codec::Reader& r);

 private:
  struct Element {
    std::set<clk::OpClock> adds;
    std::set<clk::OpClock> removes;
    bool Visible() const;
  };
  std::map<Value, Element> elements_;
};

}  // namespace orderless::crdt
