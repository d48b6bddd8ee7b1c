// Property tests for Lemma 6.1 (order-independent convergence) and SEC's
// strong-convergence requirement: random operation sets, applied in random
// permutations with random duplication, must always produce identical
// canonical states.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "common/rng.h"
#include "crdt/leaf_nodes.h"
#include "crdt/object.h"
#include "crdt/sequence_node.h"

namespace orderless::crdt {
namespace {

struct PropertyParams {
  std::uint64_t seed;
  CrdtType type;
  int num_clients;
  int ops_per_client;
};

std::string ParamName(const testing::TestParamInfo<PropertyParams>& info) {
  std::string name = std::string(CrdtTypeName(info.param.type)) + "_s" +
                     std::to_string(info.param.seed) + "_c" +
                     std::to_string(info.param.num_clients) + "_o" +
                     std::to_string(info.param.ops_per_client);
  // gtest parameter names must be alphanumeric/underscore only.
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  return name;
}

// Random operation generator covering every kind the type admits, including
// nested paths for maps.
std::vector<Operation> RandomOps(Rng& rng, CrdtType type, int num_clients,
                                 int ops_per_client) {
  std::vector<Operation> ops;
  const std::vector<std::string> keys = {"a", "b", "c"};
  const std::vector<std::string> subkeys = {"x", "y"};
  for (int client = 1; client <= num_clients; ++client) {
    for (int counter = 1; counter <= ops_per_client; ++counter) {
      Operation op;
      op.object_id = "obj";
      op.object_type = type;
      op.clock = clk::OpClock{static_cast<std::uint64_t>(client),
                              static_cast<std::uint64_t>(counter)};
      op.seq = 0;
      switch (type) {
        case CrdtType::kGCounter:
          op.kind = OpKind::kAddValue;
          op.value_type = CrdtType::kGCounter;
          op.value = Value(rng.NextInRange(1, 10));
          break;
        case CrdtType::kPNCounter:
          op.kind = OpKind::kAddValue;
          op.value_type = CrdtType::kPNCounter;
          op.value = Value(rng.NextInRange(-10, 10));
          break;
        case CrdtType::kMVRegister:
          op.kind = OpKind::kAssignValue;
          op.value_type = CrdtType::kMVRegister;
          op.value = Value(rng.NextInRange(0, 5));
          break;
        case CrdtType::kLWWRegister:
          op.kind = OpKind::kAssignValue;
          op.value_type = CrdtType::kLWWRegister;
          op.value = Value(rng.NextInRange(0, 5));
          break;
        case CrdtType::kORSet:
          op.kind = rng.NextBool(0.6) ? OpKind::kAddValue
                                      : OpKind::kRemoveValue;
          op.value_type = CrdtType::kORSet;
          op.value = Value("e" + std::to_string(rng.NextInRange(0, 3)));
          break;
        case CrdtType::kMap: {
          const double dice = rng.NextDouble();
          const std::string key = keys[rng.NextBelow(keys.size())];
          if (dice < 0.25) {
            op.kind = OpKind::kInsertValue;
            op.path = {key};
            op.value_type = rng.NextBool(0.3)
                                ? CrdtType::kNone  // delete
                                : (rng.NextBool(0.5) ? CrdtType::kMVRegister
                                                     : CrdtType::kMap);
          } else if (dice < 0.55) {
            op.kind = OpKind::kAssignValue;
            op.value_type = CrdtType::kMVRegister;
            op.path = {key};
            op.value = Value(rng.NextInRange(0, 9));
          } else if (dice < 0.8) {
            op.kind = OpKind::kAddValue;
            op.value_type = CrdtType::kGCounter;
            op.path = {key + "cnt"};
            op.value = Value(rng.NextInRange(1, 5));
          } else {
            // Nested: map → map → register.
            op.kind = OpKind::kAssignValue;
            op.value_type = CrdtType::kMVRegister;
            op.path = {key, subkeys[rng.NextBelow(subkeys.size())]};
            op.value = Value(rng.NextInRange(0, 9));
          }
          break;
        }
        case CrdtType::kSequence:
          ADD_FAILURE() << "RandomOps generates no sequence operations";
          break;
        case CrdtType::kNone:
          break;
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

class ConvergenceProperty : public testing::TestWithParam<PropertyParams> {};

TEST_P(ConvergenceProperty, PermutationsConverge) {
  const PropertyParams& params = GetParam();
  Rng rng(params.seed);
  const std::vector<Operation> ops =
      RandomOps(rng, params.type, params.num_clients, params.ops_per_client);

  CrdtObject reference("obj", params.type);
  reference.ApplyOperations(ops);
  const Bytes reference_state = reference.EncodeState();
  const ReadResult reference_read = reference.Read();

  for (int permutation = 0; permutation < 6; ++permutation) {
    std::vector<Operation> shuffled = ops;
    rng.Shuffle(shuffled);
    // Random duplication models gossip re-delivery.
    const std::size_t dup_count = rng.NextBelow(ops.size() + 1);
    for (std::size_t d = 0; d < dup_count; ++d) {
      shuffled.push_back(shuffled[rng.NextBelow(ops.size())]);
    }
    CrdtObject replica("obj", params.type);
    replica.ApplyOperations(shuffled);
    ASSERT_EQ(replica.EncodeState(), reference_state)
        << "diverged on permutation " << permutation;
    // Reads must agree too (the canonical state implies it, but this also
    // exercises the materialization path after shuffled application).
    const ReadResult replica_read = replica.Read();
    EXPECT_EQ(replica_read.counter, reference_read.counter);
    EXPECT_EQ(replica_read.values, reference_read.values);
    EXPECT_EQ(replica_read.keys, reference_read.keys);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ConvergenceProperty,
    testing::Values(
        PropertyParams{1, CrdtType::kGCounter, 3, 8},
        PropertyParams{2, CrdtType::kGCounter, 5, 20},
        PropertyParams{3, CrdtType::kPNCounter, 4, 10},
        PropertyParams{4, CrdtType::kMVRegister, 3, 6},
        PropertyParams{5, CrdtType::kMVRegister, 6, 15},
        PropertyParams{6, CrdtType::kLWWRegister, 4, 10},
        PropertyParams{7, CrdtType::kORSet, 3, 10},
        PropertyParams{8, CrdtType::kORSet, 5, 20},
        PropertyParams{9, CrdtType::kMap, 3, 8},
        PropertyParams{10, CrdtType::kMap, 4, 12},
        PropertyParams{11, CrdtType::kMap, 5, 20},
        PropertyParams{12, CrdtType::kMap, 2, 30},
        PropertyParams{13, CrdtType::kMap, 6, 10},
        PropertyParams{14, CrdtType::kMVRegister, 2, 40},
        PropertyParams{15, CrdtType::kGCounter, 8, 5},
        PropertyParams{16, CrdtType::kMap, 8, 6}),
    ParamName);

// Byzantine clock reuse: the same (client, counter, seq) id with different
// content must still converge on every replica.
TEST(ConvergenceByzantine, OpIdReuseConverges) {
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    Rng rng(seed);
    std::vector<Operation> ops = RandomOps(rng, CrdtType::kMap, 3, 6);
    // Clone some ops with identical ids but altered values.
    const std::size_t n = ops.size();
    for (std::size_t i = 0; i < n; i += 3) {
      Operation evil = ops[i];
      if (evil.value.IsInt()) {
        evil.value = Value(evil.value.AsInt() + 100);
        ops.push_back(std::move(evil));
      }
    }
    CrdtObject a("obj", CrdtType::kMap);
    a.ApplyOperations(ops);
    for (int perm = 0; perm < 4; ++perm) {
      std::vector<Operation> shuffled = ops;
      rng.Shuffle(shuffled);
      CrdtObject b("obj", CrdtType::kMap);
      b.ApplyOperations(shuffled);
      ASSERT_EQ(a.EncodeState(), b.EncodeState()) << "seed " << seed;
    }
  }
}

// Incremental application must agree with batch application (cache update
// path vs. rebuild path).
TEST(ConvergenceIncremental, IncrementalEqualsBatch) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    Rng rng(seed);
    const std::vector<Operation> ops = RandomOps(rng, CrdtType::kMap, 4, 10);
    CrdtObject batch("obj", CrdtType::kMap);
    batch.ApplyOperations(ops);

    CrdtObject incremental("obj", CrdtType::kMap);
    for (const auto& op : ops) {
      incremental.ApplyOperation(op);
      // Interleave reads to force materialization between applications.
      incremental.Read();
    }
    ASSERT_EQ(incremental.EncodeState(), batch.EncodeState()) << seed;
    EXPECT_EQ(incremental.Read().keys, batch.Read().keys);
  }
}

// State-based merge must equal applying the union of operations, in any
// split and order (the FabricCRDT pipeline and replica resync rely on it).
TEST(ConvergenceMerge, MergeEqualsUnion) {
  for (std::uint64_t seed = 300; seed < 308; ++seed) {
    Rng rng(seed);
    const std::vector<Operation> ops = RandomOps(rng, CrdtType::kMap, 4, 10);
    CrdtObject expected("obj", CrdtType::kMap);
    expected.ApplyOperations(ops);

    // Split the ops between two replicas (with some overlap).
    CrdtObject a("obj", CrdtType::kMap);
    CrdtObject b("obj", CrdtType::kMap);
    for (const auto& op : ops) {
      const double dice = rng.NextDouble();
      if (dice < 0.45) {
        a.ApplyOperation(op);
      } else if (dice < 0.9) {
        b.ApplyOperation(op);
      } else {
        a.ApplyOperation(op);
        b.ApplyOperation(op);
      }
    }
    CrdtObject merged_ab = a.CloneObject();
    merged_ab.MergeState(b);
    CrdtObject merged_ba = b.CloneObject();
    merged_ba.MergeState(a);
    ASSERT_EQ(merged_ab.EncodeState(), merged_ba.EncodeState()) << seed;
    ASSERT_EQ(merged_ab.EncodeState(), expected.EncodeState()) << seed;
    // Idempotence: merging again changes nothing.
    CrdtObject twice = merged_ab.CloneObject();
    twice.MergeState(b);
    ASSERT_EQ(twice.EncodeState(), merged_ab.EncodeState()) << seed;
  }
}

// Leaf-type merges.
TEST(ConvergenceMerge, LeafTypesMerge) {
  for (CrdtType type : {CrdtType::kGCounter, CrdtType::kPNCounter,
                        CrdtType::kMVRegister, CrdtType::kLWWRegister,
                        CrdtType::kORSet}) {
    Rng rng(777 + static_cast<std::uint64_t>(type));
    const std::vector<Operation> ops = RandomOps(rng, type, 3, 12);
    CrdtObject expected("obj", type);
    expected.ApplyOperations(ops);
    CrdtObject a("obj", type);
    CrdtObject b("obj", type);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      (i % 2 == 0 ? a : b).ApplyOperation(ops[i]);
    }
    a.MergeState(b);
    ASSERT_EQ(a.EncodeState(), expected.EncodeState())
        << CrdtTypeName(type);
  }
}

// MVRegisterNode's state layout: the count, then each (clock, value) pair.
template <typename Entries>
Bytes EncodeRegisterEntries(const Entries& entries) {
  codec::Writer w;
  w.PutVarint(entries.size());
  for (const auto& [clock, value] : entries) {
    clock.Encode(w);
    value.Encode(w);
  }
  return w.Take();
}

// The MV-register rule by definition: skip an assignment that happened-before
// any candidate, else drop every candidate that happened-before it. It scans
// every candidate twice per assignment; MVRegisterNode::Assign searches only
// the entries clk::Compare can relate, and must agree with this model on
// every state, antichain or not.
struct FullScanRegister {
  std::set<std::pair<clk::OpClock, Value>> candidates;

  void Assign(const Value& v, const clk::OpClock& clock) {
    for (const auto& entry : candidates) {
      if (clk::HappenedBefore(clock, entry.first)) return;
    }
    std::erase_if(candidates, [&](const auto& entry) {
      return clk::HappenedBefore(entry.first, clock);
    });
    candidates.emplace(clock, v);
  }

  Bytes Encode() const { return EncodeRegisterEntries(candidates); }

  std::vector<Value> Read() const {
    std::vector<Value> values;
    for (const auto& entry : candidates) values.push_back(entry.second);
    std::sort(values.begin(), values.end());
    return values;
  }
};

constexpr std::uint64_t kLastClient = std::numeric_limits<std::uint64_t>::max();

// Client 0 at counter 0 is the implicit clock; the top two ids exercise the
// run that has no successor client. Few counters and values make equal
// clocks with different values common.
clk::OpClock RandomRegisterClock(Rng& rng) {
  if (rng.NextBool(0.1)) return clk::OpClock{};
  static constexpr std::uint64_t kClients[] = {0, 1, 2, kLastClient - 1,
                                               kLastClient};
  return clk::OpClock{kClients[rng.NextBelow(5)], rng.NextBelow(4)};
}

Value RandomRegisterValue(Rng& rng) {
  const std::int64_t i = rng.NextInRange(0, 2);
  return rng.NextBool(0.5) ? Value(i) : Value("s" + std::to_string(i));
}

// A random set of up to 6 entries with no antichain invariant, encoded in
// draw order with duplicates, as hostile or legacy state bytes could be.
std::pair<Bytes, FullScanRegister> RandomRegisterState(Rng& rng) {
  FullScanRegister model;
  std::vector<std::pair<clk::OpClock, Value>> entries;
  const std::size_t n = rng.NextBelow(7);
  for (std::size_t i = 0; i < n; ++i) {
    entries.emplace_back(RandomRegisterClock(rng), RandomRegisterValue(rng));
    if (rng.NextBool(0.2)) entries.push_back(entries.back());
    model.candidates.insert(entries.back());
  }
  return {EncodeRegisterEntries(entries), std::move(model)};
}

std::unique_ptr<MVRegisterNode> DecodeRegister(const Bytes& state) {
  codec::Reader r(state);
  return MVRegisterNode::Decode(r);
}

Bytes EncodeNode(const CrdtNode& node) {
  codec::Writer w;
  node.Encode(w);
  return w.Take();
}

void ExpectSameRegister(const MVRegisterNode& node,
                        const FullScanRegister& model) {
  ASSERT_EQ(EncodeNode(node), model.Encode());
  ASSERT_EQ(node.ReadAt({}, 0).values, model.Read());
  ASSERT_EQ(node.OpCount(), model.candidates.size());
}

TEST(MVRegisterReference, RandomStepsMatchFullScan) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto node = std::make_unique<MVRegisterNode>();
    FullScanRegister model;
    for (int step = 0; step < 5000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const double dice = rng.NextDouble();
      if (dice < 0.4) {
        const clk::OpClock clock = RandomRegisterClock(rng);
        const Value v = RandomRegisterValue(rng);
        node->Assign(v, clock);
        model.Assign(v, clock);
      } else if (dice < 0.65) {
        Operation op;
        op.kind = OpKind::kAssignValue;
        op.value_type = CrdtType::kMVRegister;
        op.clock = RandomRegisterClock(rng);
        op.value = RandomRegisterValue(rng);
        // Wrong kinds and non-leaf paths must leave the register alone.
        const bool ignored = rng.NextBool(0.1);
        if (ignored) {
          if (rng.NextBool(0.5)) {
            op.kind = OpKind::kAddValue;
          } else {
            op.path = {"k"};
          }
        }
        ASSERT_EQ(node->Apply(op, 0), !ignored);
        if (!ignored) model.Assign(op.value, op.clock);
      } else if (dice < 0.75) {
        auto [state, decoded] = RandomRegisterState(rng);
        node = DecodeRegister(state);
        ASSERT_NE(node, nullptr);
        model = std::move(decoded);
      } else if (dice < 0.85) {
        std::unique_ptr<CrdtNode> clone = node->Clone();
        node.reset(static_cast<MVRegisterNode*>(clone.release()));
      } else {
        auto [state, other_model] = RandomRegisterState(rng);
        const auto other = DecodeRegister(state);
        ASSERT_NE(other, nullptr);
        for (std::uint64_t i = rng.NextBelow(4); i > 0; --i) {
          const clk::OpClock clock = RandomRegisterClock(rng);
          const Value v = RandomRegisterValue(rng);
          other->Assign(v, clock);
          other_model.Assign(v, clock);
        }
        ASSERT_NO_FATAL_FAILURE(ExpectSameRegister(*other, other_model));
        node->MergeFrom(*other);
        for (const auto& [clock, value] : other_model.candidates) {
          model.Assign(value, clock);
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectSameRegister(*node, model));
    }
  }
}

// The ranges Assign searches, one scripted case each, with the values the
// register must end up holding.
TEST(MVRegisterReference, ScriptedEdgeCases) {
  struct Step {
    clk::OpClock clock;
    Value value;
  };
  struct Script {
    std::vector<Step> steps;
    std::vector<Value> read;
  };
  const std::vector<Script> scripts = {
      // Implicit entries survive each other, then any explicit clock (here
      // the last client id) drops them; an implicit clock is then dominated.
      {{{{0, 0}, 1}, {{0, 0}, "a"}, {{kLastClient, 1}, 2}, {{0, 0}, 3}},
       {2}},
      // The last client id's run: lower counters are dominated, a higher one
      // replaces the run, a neighbouring client stays concurrent.
      {{{{kLastClient, 5}, 1},
        {{kLastClient, 3}, 2},
        {{kLastClient - 1, 9}, 3},
        {{kLastClient, 7}, 4}},
       {3, 4}},
      // Equal clocks with different values coexist until a later counter of
      // the same client replaces both; client 0's run holds the implicit
      // entry too.
      {{{{0, 0}, 0}, {{0, 2}, 1}, {{0, 2}, "b"}, {{0, 1}, 2}, {{0, 3}, 3}},
       {3}},
      // Counter 0 of a non-zero client is explicit, so it drops the implicit
      // front and loses to the same client's counter 1.
      {{{{0, 0}, 1}, {{1, 0}, 2}, {{2, 0}, 3}, {{1, 1}, 4}}, {3, 4}},
  };
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    SCOPED_TRACE("script " + std::to_string(i));
    MVRegisterNode node;
    FullScanRegister model;
    for (const Step& step : scripts[i].steps) {
      node.Assign(step.value, step.clock);
      model.Assign(step.value, step.clock);
      ASSERT_NO_FATAL_FAILURE(ExpectSameRegister(node, model));
    }
    EXPECT_EQ(node.ReadAt({}, 0).values, scripts[i].read);
  }
}

// Every node type absorbs a re-delivered operation without changing its
// state (docs/crdt-semantics.md §2), so CrdtObject hands every delivery to
// its root. The reference below applies each (op id, content digest) once,
// and records it only after the object accepted it; the two must agree on
// every state, including after a decode round trip, which keeps the
// reference's record but not the object's history.

crypto::Digest EncodedDigest(const Operation& op) {
  codec::Writer w;
  op.Encode(w);
  return crypto::Sha256::Hash(BytesView(w.data()));
}

struct ExactlyOnceObject {
  std::unique_ptr<CrdtObject> object;
  std::set<std::pair<OpId, crypto::Digest>> applied;

  void Apply(const Operation& op) {
    auto key = std::make_pair(op.id(), EncodedDigest(op));
    if (applied.contains(key)) return;
    if (object->ApplyOperation(op)) applied.insert(std::move(key));
  }
};

// Small id and value spaces, so fresh draws also collide with earlier ids
// under other content. Client 0 at counter 0 is the implicit clock. A map
// keeps every op it took, so its ops draw from fewer ids: that keeps its
// state, and so the compare after every step, small.
void DrawClock(Rng& rng, CrdtType root, Operation& op) {
  if (root == CrdtType::kMap) {
    op.clock = clk::OpClock{rng.NextBelow(2), rng.NextBelow(2)};
    return;
  }
  op.clock = clk::OpClock{rng.NextBelow(3), rng.NextBelow(3)};
  op.seq = static_cast<std::uint32_t>(rng.NextBelow(2));
}

// An element id in a map's sequence: one of two ids DrawClock makes.
std::string DrawSequenceId(Rng& rng) {
  return std::to_string(rng.NextBelow(2)) + ".1.0";
}

// A map root's children: a register or map under "k" (inserted, deleted or
// reached implicitly), a register and a counter in that nested map, a
// G-counter under "kcnt", and a sequence under "doc".
void DrawMapOp(Rng& rng, Operation& op) {
  const double dice = rng.NextDouble();
  if (dice < 0.15) {
    static constexpr CrdtType kChildren[] = {
        CrdtType::kNone, CrdtType::kMVRegister, CrdtType::kMap,
        CrdtType::kGCounter};
    op.kind = OpKind::kInsertValue;
    op.path = {"k"};
    op.value_type = kChildren[rng.NextBelow(4)];
    if (op.value_type != CrdtType::kMap && rng.NextBool(0.5)) {
      op.value = Value(1);
    }
  } else if (dice < 0.35) {
    op.kind = OpKind::kAssignValue;
    op.value_type = CrdtType::kMVRegister;
    op.path = {"k"};
    op.value = Value(rng.NextInRange(0, 1));
  } else if (dice < 0.5) {
    op.kind = OpKind::kAssignValue;
    op.value_type = CrdtType::kMVRegister;
    op.path = {"k", "x"};
    op.value = Value(rng.NextInRange(0, 1));
  } else if (dice < 0.6) {
    op.kind = OpKind::kAddValue;
    op.value_type = CrdtType::kGCounter;
    op.path = {"k", "n"};
    op.value = Value(rng.NextInRange(1, 2));
  } else if (dice < 0.75) {
    op.kind = OpKind::kAddValue;
    op.value_type = CrdtType::kGCounter;
    op.path = {"kcnt"};
    op.value = Value(rng.NextInRange(1, 2));
  } else {
    op.value_type = CrdtType::kSequence;
    if (rng.NextBool(0.75)) {
      op.kind = OpKind::kInsertValue;
      op.path = {"doc", rng.NextBool(0.3) ? SequenceNode::AnchorRootSegment()
                                          : "a:" + DrawSequenceId(rng)};
      op.value = Value("s");
    } else {
      op.kind = OpKind::kRemoveValue;
      op.path = {"doc", "e:" + DrawSequenceId(rng)};
    }
  }
}

Operation FreshOp(Rng& rng, CrdtType root) {
  Operation op;
  op.object_id = "obj";
  op.object_type = root;
  op.value_type = root;
  DrawClock(rng, root, op);
  switch (root) {
    case CrdtType::kGCounter:
      op.kind = OpKind::kAddValue;
      op.value = Value(rng.NextInRange(1, 3));
      break;
    case CrdtType::kPNCounter:
      op.kind = OpKind::kAddValue;
      op.value = Value(rng.NextInRange(-3, 3));
      break;
    case CrdtType::kMVRegister:
    case CrdtType::kLWWRegister:
      op.kind = OpKind::kAssignValue;
      op.value = Value(rng.NextInRange(0, 3));
      break;
    case CrdtType::kORSet:
      op.kind = rng.NextBool(0.6) ? OpKind::kAddValue : OpKind::kRemoveValue;
      op.value = Value("e" + std::to_string(rng.NextBelow(3)));
      break;
    case CrdtType::kMap:
      DrawMapOp(rng, op);
      break;
    case CrdtType::kNone:
    case CrdtType::kSequence:
      break;
  }
  return op;
}

// The same id with other content, as a Byzantine client could send. Values
// stay within a few of the drawn ones, so variants of variants recur too.
Operation Variant(Rng& rng, Operation op) {
  if (op.value.IsInt()) {
    // v % 3 + 1 != v for every v in [-3, 4], the range the draws cover.
    op.value = Value(op.value.AsInt() % 3 + 1);
  } else if (op.value.IsString()) {
    const std::string& s = op.value.AsString();
    op.value = Value(s.ends_with('\'') ? s.substr(0, s.size() - 1) : s + "'");
  } else {
    op.value = Value(1);
  }
  if (op.kind == OpKind::kRemoveValue && rng.NextBool(0.5)) {
    op.kind = OpKind::kAddValue;
  }
  return op;
}

// An operation some layer must ignore: another object, another root type, a
// kind or value its target does not take, or a path its target cannot
// resolve.
Operation Confused(Rng& rng, CrdtType root) {
  Operation op = FreshOp(rng, root);
  switch (rng.NextBelow(5)) {
    case 0:
      op.object_id = "other";
      break;
    case 1:
      op.object_type = root == CrdtType::kMap ? CrdtType::kGCounter
                                              : CrdtType::kMap;
      break;
    case 2:
      if (root == CrdtType::kMap) {
        op.path.clear();  // a leaf operation aimed at the map itself
      } else {
        op.kind = op.kind == OpKind::kAssignValue ? OpKind::kAddValue
                                                  : OpKind::kInsertValue;
      }
      break;
    case 3:
      if (root == CrdtType::kMap) {
        op.path = {"doc", "a:" + std::to_string(rng.NextBelow(3))};
        op.kind = OpKind::kInsertValue;
        op.value_type = CrdtType::kSequence;
      } else {
        op.path = {"k"};
      }
      break;
    default:
      if (root == CrdtType::kMap) {
        // A register assignment on a counter's path.
        op.path = {"kcnt"};
        op.kind = OpKind::kAssignValue;
        op.value_type = CrdtType::kMVRegister;
      } else if (root == CrdtType::kGCounter && rng.NextBool(0.5)) {
        op.value = Value(-rng.NextInRange(0, 2));
      } else if (root == CrdtType::kGCounter ||
                 root == CrdtType::kPNCounter) {
        op.value = Value("x");
      } else {
        op.kind = root == CrdtType::kORSet ? OpKind::kAssignValue
                                           : OpKind::kRemoveValue;
      }
      break;
  }
  return op;
}

// The root, and for a map every path DrawMapOp writes.
std::vector<std::vector<std::string>> ReadPaths(CrdtType root) {
  if (root != CrdtType::kMap) return {{}};
  return {{}, {"k"}, {"k", "x"}, {"k", "n"}, {"kcnt"}, {"doc"}};
}

void ExpectSameObject(const CrdtObject& actual, const CrdtObject& reference,
                      const std::vector<std::vector<std::string>>& paths) {
  ASSERT_EQ(actual.EncodeState(), reference.EncodeState());
  ASSERT_EQ(actual.root().OpCount(), reference.root().OpCount());
  for (const auto& path : paths) {
    const ReadResult a = actual.Read(path);
    const ReadResult b = reference.Read(path);
    ASSERT_EQ(a.exists, b.exists) << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(a.type, b.type) << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(a.counter, b.counter) << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(a.values, b.values) << a.ToString() << " vs " << b.ToString();
    ASSERT_EQ(a.keys, b.keys) << a.ToString() << " vs " << b.ToString();
  }
}

class ExactlyOnceReference : public testing::TestWithParam<CrdtType> {};

TEST_P(ExactlyOnceReference, EveryDeliveryMatchesOncePerContent) {
  const CrdtType root = GetParam();
  const auto paths = ReadPaths(root);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto actual = std::make_unique<CrdtObject>("obj", root);
    ExactlyOnceObject reference{std::make_unique<CrdtObject>("obj", root), {}};
    std::vector<Operation> delivered;
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const double dice = rng.NextDouble();
      Operation op;
      if (dice < 0.3 && !delivered.empty()) {
        op = delivered[rng.NextBelow(delivered.size())];
      } else if (dice < 0.4 && !delivered.empty()) {
        op = Variant(rng, delivered[rng.NextBelow(delivered.size())]);
      } else if (dice < 0.5) {
        op = Confused(rng, root);
      } else {
        op = FreshOp(rng, root);
      }
      actual->ApplyOperation(op);
      reference.Apply(op);
      delivered.push_back(std::move(op));
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameObject(*actual, *reference.object, paths));
      if ((step + 1) % 500 == 0) {
        actual = CrdtObject::DecodeState("obj", actual->EncodeState());
        reference.object =
            CrdtObject::DecodeState("obj", reference.object->EncodeState());
        ASSERT_NE(actual, nullptr);
        ASSERT_NE(reference.object, nullptr);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRoots, ExactlyOnceReference,
    testing::Values(CrdtType::kGCounter, CrdtType::kPNCounter,
                    CrdtType::kMVRegister, CrdtType::kLWWRegister,
                    CrdtType::kORSet, CrdtType::kMap),
    [](const testing::TestParamInfo<CrdtType>& info) {
      std::string name(CrdtTypeName(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace orderless::crdt
