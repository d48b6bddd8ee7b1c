#include "crdt/leaf_nodes.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

namespace orderless::crdt {

namespace {
// Leaf operations must target this node exactly (path fully consumed).
bool AtLeaf(const Operation& op, std::size_t depth) {
  return depth == op.path.size();
}

// Contributions sit in arrival order behind a hash index for O(1) dedup on
// the apply path; the canonical encoding sorts a copy so the bytes match the
// ordered layout the format has always used.
void EncodeContributions(const Contributions& contributions,
                         codec::Writer& w) {
  std::vector<std::pair<OpId, std::int64_t>> sorted;
  sorted.reserve(contributions.size());
  contributions.ForEach([&sorted](const auto& contribution) {
    sorted.push_back(contribution.key);
  });
  std::sort(sorted.begin(), sorted.end());
  w.PutVarint(sorted.size());
  for (const auto& [id, amount] : sorted) {
    w.PutVarint(id.client);
    w.PutVarint(id.counter);
    w.PutU32(id.seq);
    w.PutI64(amount);
  }
}

// Reads what EncodeContributions wrote. A listed contribution counts once
// however often it repeats, so the total matches the canonical re-encode.
// Rejects what Apply could never have absorbed (a grow-only amount <= 0).
// Any total is accepted: honest applies can sum past int64_t, and a
// checkpoint of that state must install.
bool DecodeContributions(codec::Reader& r, bool grow_only,
                         Contributions& contributions, __int128& total) {
  const auto n = r.GetVarint();
  if (!n) return false;
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto client = r.GetVarint();
    const auto counter = r.GetVarint();
    const auto seq = r.GetU32();
    const auto amount = r.GetI64();
    if (!client || !counter || !seq || !amount) return false;
    if (grow_only && *amount <= 0) return false;
    if (contributions.FindOrInsert({OpId{*client, *counter, *seq}, *amount})
            .second) {
      total += *amount;
    }
  }
  return true;
}

// A counter's read value: its total clamped to the int64_t range.
std::int64_t Saturate(__int128 total) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  if (total > kMax) return kMax;
  if (total < kMin) return kMin;
  return static_cast<std::int64_t>(total);
}
}  // namespace

// ---------------------------------------------------------------- G-Counter

bool GCounterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAddValue) return false;
  if (!op.value.IsInt() || op.value.AsInt() <= 0) return false;  // grow-only
  if (contributions_.FindOrInsert({op.id(), op.value.AsInt()}).second) {
    total_ += op.value.AsInt();
  }
  return true;
}

ReadResult GCounterNode::ReadAt(const std::vector<std::string>& path,
                                std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kGCounter;
  r.exists = true;
  r.counter = Saturate(total_);
  return r;
}

void GCounterNode::Encode(codec::Writer& w) const {
  EncodeContributions(contributions_, w);
}

std::unique_ptr<GCounterNode> GCounterNode::Decode(codec::Reader& r) {
  auto node = std::make_unique<GCounterNode>();
  if (!DecodeContributions(r, /*grow_only=*/true, node->contributions_,
                           node->total_)) {
    return nullptr;
  }
  return node;
}

std::unique_ptr<CrdtNode> GCounterNode::Clone() const {
  auto node = std::make_unique<GCounterNode>();
  node->contributions_ = contributions_;
  node->total_ = total_;
  return node;
}

void GCounterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const GCounterNode*>(&other);
  if (o == nullptr) return;
  o->contributions_.ForEach([this](const auto& contribution) {
    if (contributions_.FindOrInsert(contribution.key).second) {
      total_ += contribution.key.second;
    }
  });
}

// --------------------------------------------------------------- PN-Counter

bool PNCounterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAddValue) return false;
  if (!op.value.IsInt()) return false;
  if (contributions_.FindOrInsert({op.id(), op.value.AsInt()}).second) {
    total_ += op.value.AsInt();
  }
  return true;
}

ReadResult PNCounterNode::ReadAt(const std::vector<std::string>& path,
                                 std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kPNCounter;
  r.exists = true;
  r.counter = Saturate(total_);
  return r;
}

void PNCounterNode::Encode(codec::Writer& w) const {
  EncodeContributions(contributions_, w);
}

std::unique_ptr<PNCounterNode> PNCounterNode::Decode(codec::Reader& r) {
  auto node = std::make_unique<PNCounterNode>();
  if (!DecodeContributions(r, /*grow_only=*/false, node->contributions_,
                           node->total_)) {
    return nullptr;
  }
  return node;
}

std::unique_ptr<CrdtNode> PNCounterNode::Clone() const {
  auto node = std::make_unique<PNCounterNode>();
  node->contributions_ = contributions_;
  node->total_ = total_;
  return node;
}

void PNCounterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const PNCounterNode*>(&other);
  if (o == nullptr) return;
  o->contributions_.ForEach([this](const auto& contribution) {
    if (contributions_.FindOrInsert(contribution.key).second) {
      total_ += contribution.key.second;
    }
  });
}

// -------------------------------------------------------------- MV-Register

void MVRegisterNode::Insert(const clk::OpClock& clock, const Value& v) {
  if (candidates_.emplace(clock, v).second) values_.insert(v);
}

void MVRegisterNode::Erase(Candidates::const_iterator first,
                           Candidates::const_iterator last) {
  for (auto it = first; it != last; ++it) {
    values_.erase(values_.find(it->second));
  }
  candidates_.erase(first, last);
}

void MVRegisterNode::Assign(const Value& v, const clk::OpClock& clock) {
  // Keep the maximal antichain: skip if dominated, drop what we dominate.
  // clk::Compare relates two clocks only when they share a client or one is
  // the implicit (0,0) clock, so no other candidate can matter.
  if (clock.IsImplicit()) {
    // Every explicit clock dominates it, and it dominates nothing. Implicit
    // entries sort first, so the last entry is explicit iff any is.
    if (candidates_.empty() || candidates_.rbegin()->first.IsImplicit()) {
      Insert(clock, v);
    }
    return;
  }
  // The client's run is ordered by counter, so its last entry decides
  // dominance. Client 0's run starts with the implicit entries, whose
  // counter 0 is below every explicit client-0 counter. The last client id
  // has no successor to bound its run.
  const bool last_client =
      clock.client == std::numeric_limits<std::uint64_t>::max();
  const auto run = candidates_.lower_bound(clk::OpClock{clock.client, 0});
  const auto run_end =
      last_client ? candidates_.end()
                  : candidates_.lower_bound(clk::OpClock{clock.client + 1, 0});
  if (run != run_end && std::prev(run_end)->first.counter > clock.counter) {
    return;
  }
  // Drop the run's lower counters, then the implicit front (already gone
  // when the run is client 0's).
  Erase(run, candidates_.lower_bound(clock));
  Erase(candidates_.begin(), candidates_.lower_bound(clk::OpClock{0, 1}));
  Insert(clock, v);
}

bool MVRegisterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAssignValue) return false;
  Assign(op.value, op.clock);
  return true;
}

ReadResult MVRegisterNode::ReadAt(const std::vector<std::string>& path,
                                  std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kMVRegister;
  r.exists = true;
  r.values.reserve(values_.size());
  for (const Value& v : values_) r.values.push_back(v);
  return r;
}

void MVRegisterNode::Encode(codec::Writer& w) const {
  w.PutVarint(candidates_.size());
  for (const auto& [clock, value] : candidates_) {
    clock.Encode(w);
    value.Encode(w);
  }
}

std::unique_ptr<MVRegisterNode> MVRegisterNode::Decode(codec::Reader& r) {
  const auto n = r.GetVarint();
  if (!n) return nullptr;
  auto node = std::make_unique<MVRegisterNode>();
  for (std::uint64_t i = 0; i < *n; ++i) {
    const auto clock = clk::OpClock::Decode(r);
    const auto value = Value::Decode(r);
    if (!clock || !value) return nullptr;
    node->Insert(*clock, *value);
  }
  return node;
}

std::unique_ptr<CrdtNode> MVRegisterNode::Clone() const {
  auto node = std::make_unique<MVRegisterNode>();
  node->candidates_ = candidates_;
  node->values_ = values_;
  return node;
}

void MVRegisterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const MVRegisterNode*>(&other);
  if (o == nullptr) return;
  // Joining two antichains: re-assign each remote candidate.
  for (const auto& [clock, value] : o->candidates_) Assign(value, clock);
}

// ------------------------------------------------------------- LWW-Register

void LWWRegisterNode::Assign(const Value& v, const clk::OpClock& clock) {
  // Total order: (counter, client, value) — deterministic for any arrival
  // order, even across clients.
  const auto candidate = std::make_tuple(clock.counter, clock.client, v);
  const auto current = std::make_tuple(clock_.counter, clock_.client, value_);
  if (!has_value_ || candidate > current) {
    has_value_ = true;
    clock_ = clock;
    value_ = v;
  }
}

bool LWWRegisterNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth) || op.kind != OpKind::kAssignValue) return false;
  Assign(op.value, op.clock);
  return true;
}

ReadResult LWWRegisterNode::ReadAt(const std::vector<std::string>& path,
                                   std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kLWWRegister;
  r.exists = true;
  if (has_value_) r.values.push_back(value_);
  return r;
}

void LWWRegisterNode::Encode(codec::Writer& w) const {
  w.PutBool(has_value_);
  if (has_value_) {
    clock_.Encode(w);
    value_.Encode(w);
  }
}

std::unique_ptr<LWWRegisterNode> LWWRegisterNode::Decode(codec::Reader& r) {
  const auto has = r.GetBool();
  if (!has) return nullptr;
  auto node = std::make_unique<LWWRegisterNode>();
  if (*has) {
    const auto clock = clk::OpClock::Decode(r);
    auto value = Value::Decode(r);
    if (!clock || !value) return nullptr;
    node->has_value_ = true;
    node->clock_ = *clock;
    node->value_ = std::move(*value);
  }
  return node;
}

std::unique_ptr<CrdtNode> LWWRegisterNode::Clone() const {
  auto node = std::make_unique<LWWRegisterNode>();
  node->has_value_ = has_value_;
  node->clock_ = clock_;
  node->value_ = value_;
  return node;
}

void LWWRegisterNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const LWWRegisterNode*>(&other);
  if (o == nullptr || !o->has_value_) return;
  Assign(o->value_, o->clock_);
}

// ------------------------------------------------------------------- OR-Set

bool ORSetNode::Element::Visible() const {
  for (const auto& add : adds) {
    bool covered = false;
    for (const auto& remove : removes) {
      if (clk::HappenedBefore(add, remove)) {
        covered = true;
        break;
      }
    }
    if (!covered) return true;
  }
  return false;
}

bool ORSetNode::Apply(const Operation& op, std::size_t depth) {
  if (!AtLeaf(op, depth)) return false;
  if (op.kind == OpKind::kAddValue) {
    elements_[op.value].adds.insert(op.clock);
    return true;
  }
  if (op.kind == OpKind::kRemoveValue) {
    elements_[op.value].removes.insert(op.clock);
    return true;
  }
  return false;
}

ReadResult ORSetNode::ReadAt(const std::vector<std::string>& path,
                             std::size_t depth) const {
  ReadResult r;
  if (depth != path.size()) return r;
  r.type = CrdtType::kORSet;
  r.exists = true;
  for (const auto& [value, element] : elements_) {
    if (element.Visible()) r.values.push_back(value);
  }
  return r;
}

bool ORSetNode::Contains(const Value& v) const {
  const auto it = elements_.find(v);
  return it != elements_.end() && it->second.Visible();
}

std::size_t ORSetNode::OpCount() const {
  std::size_t n = 0;
  for (const auto& [value, element] : elements_) {
    (void)value;
    n += element.adds.size() + element.removes.size();
  }
  return n;
}

void ORSetNode::Encode(codec::Writer& w) const {
  w.PutVarint(elements_.size());
  for (const auto& [value, element] : elements_) {
    value.Encode(w);
    w.PutVarint(element.adds.size());
    for (const auto& c : element.adds) c.Encode(w);
    w.PutVarint(element.removes.size());
    for (const auto& c : element.removes) c.Encode(w);
  }
}

std::unique_ptr<ORSetNode> ORSetNode::Decode(codec::Reader& r) {
  const auto n = r.GetVarint();
  if (!n) return nullptr;
  auto node = std::make_unique<ORSetNode>();
  for (std::uint64_t i = 0; i < *n; ++i) {
    auto value = Value::Decode(r);
    if (!value) return nullptr;
    Element element;
    const auto adds = r.GetVarint();
    if (!adds) return nullptr;
    for (std::uint64_t j = 0; j < *adds; ++j) {
      const auto c = clk::OpClock::Decode(r);
      if (!c) return nullptr;
      element.adds.insert(*c);
    }
    const auto removes = r.GetVarint();
    if (!removes) return nullptr;
    for (std::uint64_t j = 0; j < *removes; ++j) {
      const auto c = clk::OpClock::Decode(r);
      if (!c) return nullptr;
      element.removes.insert(*c);
    }
    node->elements_.emplace(std::move(*value), std::move(element));
  }
  return node;
}

std::unique_ptr<CrdtNode> ORSetNode::Clone() const {
  auto node = std::make_unique<ORSetNode>();
  node->elements_ = elements_;
  return node;
}

void ORSetNode::MergeFrom(const CrdtNode& other) {
  const auto* o = dynamic_cast<const ORSetNode*>(&other);
  if (o == nullptr) return;
  for (const auto& [value, element] : o->elements_) {
    Element& mine = elements_[value];
    mine.adds.insert(element.adds.begin(), element.adds.end());
    mine.removes.insert(element.removes.begin(), element.removes.end());
  }
}

}  // namespace orderless::crdt
