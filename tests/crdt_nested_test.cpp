// Deeper CRDT map scenarios: multi-level nesting, concurrent insert
// candidates interacting with descendant operations, tombstones over
// subtrees, and read-result merging across concurrent candidates.
#include <gtest/gtest.h>

#include "crdt/object.h"

namespace orderless::crdt {
namespace {

Operation Op(std::vector<std::string> path, OpKind kind, CrdtType value_type,
             Value value, std::uint64_t client, std::uint64_t counter,
             std::uint32_t seq = 0) {
  Operation op;
  op.object_id = "m";
  op.object_type = CrdtType::kMap;
  op.path = std::move(path);
  op.kind = kind;
  op.value_type = value_type;
  op.value = std::move(value);
  op.clock = clk::OpClock{client, counter};
  op.seq = seq;
  return op;
}

TEST(NestedMap, ThreeLevelImplicitCreation) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperation(Op({"region", "store", "sales"}, OpKind::kAddValue,
                        CrdtType::kGCounter, Value(5), 1, 1));
  obj.ApplyOperation(Op({"region", "store", "sales"}, OpKind::kAddValue,
                        CrdtType::kGCounter, Value(3), 2, 1));
  EXPECT_EQ(obj.Read({"region", "store", "sales"}).counter, 8);
  EXPECT_EQ(obj.Read().keys, (std::vector<std::string>{"region"}));
  EXPECT_EQ(obj.Read({"region"}).keys, (std::vector<std::string>{"store"}));
}

TEST(NestedMap, ReinsertResetsWholeSubtree) {
  CrdtObject obj("m", CrdtType::kMap);
  // Build a subtree under "cart", then the same client re-inserts "cart".
  obj.ApplyOperation(Op({"cart"}, OpKind::kInsertValue, CrdtType::kMap,
                        Value(), 1, 1));
  obj.ApplyOperation(Op({"cart", "item1"}, OpKind::kAssignValue,
                        CrdtType::kMVRegister, Value(2), 1, 2));
  obj.ApplyOperation(Op({"cart", "item2"}, OpKind::kAssignValue,
                        CrdtType::kMVRegister, Value(5), 1, 3));
  EXPECT_EQ(obj.Read({"cart"}).keys.size(), 2u);
  // Re-insert: happened-after everything inside — empties the cart.
  obj.ApplyOperation(Op({"cart"}, OpKind::kInsertValue, CrdtType::kMap,
                        Value(), 1, 4));
  EXPECT_TRUE(obj.Read({"cart"}).keys.empty());
  EXPECT_FALSE(obj.Read({"cart", "item1"}).exists);
  // But operations concurrent with the re-insert (other client) survive.
  obj.ApplyOperation(Op({"cart", "item3"}, OpKind::kAssignValue,
                        CrdtType::kMVRegister, Value(1), 2, 1));
  EXPECT_EQ(obj.Read({"cart"}).keys, (std::vector<std::string>{"item3"}));
}

TEST(NestedMap, ConcurrentInsertCandidatesAbsorbLaterOps) {
  // Two clients concurrently insert the same key; a later op from client 1
  // applies to both candidates (it is not happened-before either insert's
  // reset boundary... it is after insert A and concurrent with insert B).
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperation(Op({"doc"}, OpKind::kInsertValue, CrdtType::kMap,
                        Value(), 1, 1));
  obj.ApplyOperation(Op({"doc"}, OpKind::kInsertValue, CrdtType::kMap,
                        Value(), 2, 1));
  obj.ApplyOperation(Op({"doc", "title"}, OpKind::kAssignValue,
                        CrdtType::kMVRegister, Value("draft"), 1, 2));
  const ReadResult title = obj.Read({"doc", "title"});
  ASSERT_TRUE(title.exists);
  EXPECT_EQ(title.values, (std::vector<Value>{Value("draft")}));
}

TEST(NestedMap, TombstoneSuppressesOnlyPriorOps) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperation(Op({"k", "x"}, OpKind::kAssignValue,
                        CrdtType::kMVRegister, Value(1), 1, 1));
  // Client 1 deletes "k" after writing it.
  obj.ApplyOperation(Op({"k"}, OpKind::kInsertValue, CrdtType::kNone,
                        Value(), 1, 2));
  EXPECT_TRUE(obj.Read().keys.empty());
  // A concurrent write from client 2 revives the key.
  obj.ApplyOperation(Op({"k", "y"}, OpKind::kAssignValue,
                        CrdtType::kMVRegister, Value(2), 2, 1));
  EXPECT_EQ(obj.Read().keys, (std::vector<std::string>{"k"}));
  EXPECT_FALSE(obj.Read({"k", "x"}).exists);  // old write stays suppressed
  EXPECT_TRUE(obj.Read({"k", "y"}).exists);
}

TEST(NestedMap, MixedLeafTypesUnderOneMap) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperation(Op({"count"}, OpKind::kAddValue, CrdtType::kGCounter,
                        Value(4), 1, 1));
  obj.ApplyOperation(Op({"name"}, OpKind::kAssignValue, CrdtType::kMVRegister,
                        Value("alice"), 1, 2));
  obj.ApplyOperation(Op({"balance"}, OpKind::kAddValue, CrdtType::kPNCounter,
                        Value(-3), 1, 3));
  obj.ApplyOperation(Op({"tags"}, OpKind::kAddValue, CrdtType::kORSet,
                        Value("vip"), 1, 4));
  EXPECT_EQ(obj.Read({"count"}).counter, 4);
  EXPECT_EQ(obj.Read({"name"}).values, (std::vector<Value>{Value("alice")}));
  EXPECT_EQ(obj.Read({"balance"}).counter, -3);
  EXPECT_EQ(obj.Read({"tags"}).values, (std::vector<Value>{Value("vip")}));
  EXPECT_EQ(obj.Read().keys.size(), 4u);
}

TEST(NestedMap, TypeConfusedOpsIgnoredDeterministically) {
  // An AddValue aimed at an existing register key must not corrupt it, and
  // two replicas receiving the ops in different orders stay identical.
  const std::vector<Operation> ops = {
      Op({"k"}, OpKind::kAssignValue, CrdtType::kMVRegister, Value(1), 1, 1),
      Op({"k"}, OpKind::kAddValue, CrdtType::kGCounter, Value(7), 2, 1),
      Op({"k"}, OpKind::kAssignValue, CrdtType::kMVRegister, Value(2), 1, 2),
  };
  CrdtObject a("m", CrdtType::kMap);
  for (const auto& op : ops) a.ApplyOperation(op);
  CrdtObject b("m", CrdtType::kMap);
  b.ApplyOperation(ops[2]);
  b.ApplyOperation(ops[0]);
  b.ApplyOperation(ops[1]);
  EXPECT_EQ(a.EncodeState(), b.EncodeState());
  a.Read({"k"});
  b.Read({"k"});
  EXPECT_EQ(a.Read({"k"}).values, b.Read({"k"}).values);
}

TEST(NestedMap, OpCountTracksStoredOperations) {
  CrdtObject obj("m", CrdtType::kMap);
  EXPECT_EQ(obj.root().OpCount(), 0u);
  obj.ApplyOperation(Op({"a"}, OpKind::kAssignValue, CrdtType::kMVRegister,
                        Value(1), 1, 1));
  obj.ApplyOperation(Op({"a"}, OpKind::kAssignValue, CrdtType::kMVRegister,
                        Value(2), 2, 1));
  obj.ApplyOperation(Op({"b"}, OpKind::kInsertValue, CrdtType::kMap,
                        Value(), 1, 2));
  EXPECT_EQ(obj.root().OpCount(), 3u);
}

TEST(NestedMap, SerializationPreservesDeepNesting) {
  CrdtObject obj("m", CrdtType::kMap);
  for (std::uint64_t c = 1; c <= 3; ++c) {
    for (std::uint64_t i = 1; i <= 5; ++i) {
      obj.ApplyOperation(Op({"l1-" + std::to_string(c),
                             "l2-" + std::to_string(i), "leaf"},
                            OpKind::kAddValue, CrdtType::kGCounter, Value(1),
                            c, i));
    }
  }
  const Bytes state = obj.EncodeState();
  const auto decoded = CrdtObject::DecodeState("m", BytesView(state));
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(NodesEqual(obj.root(), decoded->root()));
  EXPECT_EQ(decoded->Read({"l1-2", "l2-3", "leaf"}).counter, 1);
  EXPECT_EQ(decoded->Read({"l1-1"}).keys.size(), 5u);
}

TEST(ReadResultTest, MergeCombinesAndDedups) {
  ReadResult a;
  a.exists = true;
  a.type = CrdtType::kMVRegister;
  a.values = {Value(1), Value(3)};
  ReadResult b;
  b.exists = true;
  b.type = CrdtType::kMVRegister;
  b.values = {Value(2), Value(3)};
  a.MergeFrom(b);
  EXPECT_EQ(a.values, (std::vector<Value>{Value(1), Value(2), Value(3)}));

  ReadResult missing;
  ReadResult c = a;
  c.MergeFrom(missing);  // merging a non-existent result is a no-op
  EXPECT_EQ(c.values, a.values);
}

TEST(ReadResultTest, ToStringForms) {
  ReadResult missing;
  EXPECT_EQ(missing.ToString(), "<missing>");
  ReadResult counter;
  counter.exists = true;
  counter.type = CrdtType::kGCounter;
  counter.counter = 42;
  EXPECT_EQ(counter.ToString(), "G-Counter{42}");
}

}  // namespace
}  // namespace orderless::crdt
