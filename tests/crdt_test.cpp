#include <gtest/gtest.h>

#include <limits>

#include "crdt/leaf_nodes.h"
#include "crdt/map_node.h"
#include "crdt/object.h"

namespace orderless::crdt {
namespace {

// --- helpers ---------------------------------------------------------------

Operation Op(std::string object, CrdtType object_type,
             std::vector<std::string> path, OpKind kind, CrdtType value_type,
             Value value, std::uint64_t client, std::uint64_t counter,
             std::uint32_t seq = 0) {
  Operation op;
  op.object_id = std::move(object);
  op.object_type = object_type;
  op.path = std::move(path);
  op.kind = kind;
  op.value_type = value_type;
  op.value = std::move(value);
  op.clock = clk::OpClock{client, counter};
  op.seq = seq;
  return op;
}

Operation Add(std::string object, std::int64_t amount, std::uint64_t client,
              std::uint64_t counter, std::uint32_t seq = 0) {
  return Op(std::move(object), CrdtType::kGCounter, {}, OpKind::kAddValue,
            CrdtType::kGCounter, Value(amount), client, counter, seq);
}

Operation AssignReg(std::string object, Value v, std::uint64_t client,
                    std::uint64_t counter) {
  return Op(std::move(object), CrdtType::kMVRegister, {}, OpKind::kAssignValue,
            CrdtType::kMVRegister, std::move(v), client, counter);
}

Operation MapAssign(std::string object, std::vector<std::string> path, Value v,
                    std::uint64_t client, std::uint64_t counter,
                    std::uint32_t seq = 0) {
  return Op(std::move(object), CrdtType::kMap, std::move(path),
            OpKind::kAssignValue, CrdtType::kMVRegister, std::move(v), client,
            counter, seq);
}

Operation MapInsert(std::string object, std::vector<std::string> path_with_key,
                    CrdtType child, std::uint64_t client,
                    std::uint64_t counter, Value init = {}) {
  return Op(std::move(object), CrdtType::kMap, std::move(path_with_key),
            OpKind::kInsertValue, child, std::move(init), client, counter);
}

// --- G-Counter ---------------------------------------------------------------

TEST(GCounter, SumsContributions) {
  CrdtObject obj("c", CrdtType::kGCounter);
  obj.ApplyOperations({Add("c", 5, 1, 1), Add("c", 7, 2, 1), Add("c", 1, 1, 2)});
  EXPECT_EQ(obj.Read().counter, 13);
}

TEST(GCounter, DuplicateOperationIsIdempotent) {
  CrdtObject obj("c", CrdtType::kGCounter);
  const Operation op = Add("c", 5, 1, 1);
  obj.ApplyOperations({op, op, op});
  EXPECT_EQ(obj.Read().counter, 5);
  EXPECT_EQ(obj.root().OpCount(), 1u);
}

TEST(GCounter, RejectsNonPositive) {
  CrdtObject obj("c", CrdtType::kGCounter);
  EXPECT_FALSE(obj.ApplyOperation(Add("c", -5, 1, 1)));
  EXPECT_FALSE(obj.ApplyOperation(Add("c", 0, 1, 2)));
  EXPECT_EQ(obj.Read().counter, 0);
}

TEST(GCounter, SameClockDifferentSeqBothCount) {
  // One proposal may carry several ops on the same object.
  CrdtObject obj("c", CrdtType::kGCounter);
  obj.ApplyOperations({Add("c", 5, 1, 1, 0), Add("c", 6, 1, 1, 1)});
  EXPECT_EQ(obj.Read().counter, 11);
}

TEST(GCounter, IgnoresWrongObjectAndType) {
  CrdtObject obj("c", CrdtType::kGCounter);
  EXPECT_FALSE(obj.ApplyOperation(Add("other", 5, 1, 1)));
  Operation wrong_type = Add("c", 5, 1, 2);
  wrong_type.object_type = CrdtType::kMap;
  EXPECT_FALSE(obj.ApplyOperation(wrong_type));
  EXPECT_EQ(obj.Read().counter, 0);
}

// --- PN-Counter --------------------------------------------------------------

TEST(PNCounter, AllowsDecrements) {
  CrdtObject obj("p", CrdtType::kPNCounter);
  auto pn = [](std::int64_t v, std::uint64_t client, std::uint64_t counter) {
    return Op("p", CrdtType::kPNCounter, {}, OpKind::kAddValue,
              CrdtType::kPNCounter, Value(v), client, counter);
  };
  obj.ApplyOperations({pn(10, 1, 1), pn(-4, 2, 1), pn(-7, 1, 2)});
  EXPECT_EQ(obj.Read().counter, -1);
}

// --- Counter state decoding --------------------------------------------------

struct Contribution {
  std::uint64_t client;
  std::uint64_t counter;
  std::int64_t amount;
};

// CrdtObject::EncodeState bytes of a counter listing `entries` as given, in
// that order and with seq 0: the canonical layout, but hand-built so it can
// hold what no replica would write.
Bytes CounterState(CrdtType type, const std::vector<Contribution>& entries) {
  codec::Writer w;
  w.PutU8(static_cast<std::uint8_t>(type));
  w.PutVarint(entries.size());
  for (const Contribution& c : entries) {
    w.PutVarint(c.client);
    w.PutVarint(c.counter);
    w.PutU32(0);
    w.PutI64(c.amount);
  }
  return w.Take();
}

TEST(CounterDecode, RepeatedContributionCountsOnce) {
  for (const CrdtType type : {CrdtType::kGCounter, CrdtType::kPNCounter}) {
    SCOPED_TRACE(CrdtTypeName(type));
    const auto decoded = CrdtObject::DecodeState(
        "c", CounterState(type, {{7, 3, 5}, {7, 3, 5}}));
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->Read().counter, 5);
    // Same state bytes as a replica that applied the operation once.
    CrdtObject once("c", type);
    ASSERT_TRUE(once.ApplyOperation(
        Op("c", type, {}, OpKind::kAddValue, type, Value(5), 7, 3)));
    EXPECT_EQ(decoded->EncodeState(), once.EncodeState());
    EXPECT_EQ(once.Read().counter, 5);
  }
}

bool Decodes(CrdtType type, const std::vector<Contribution>& entries) {
  return CrdtObject::DecodeState("c", CounterState(type, entries)) != nullptr;
}

TEST(CounterDecode, GrowOnlyRejectsNonPositiveAmounts) {
  EXPECT_FALSE(Decodes(CrdtType::kGCounter, {{7, 3, -100}}));
  EXPECT_FALSE(Decodes(CrdtType::kGCounter, {{7, 3, 4}, {7, 4, 0}}));
  const auto pn = CrdtObject::DecodeState(
      "c", CounterState(CrdtType::kPNCounter, {{7, 3, -100}}));
  ASSERT_NE(pn, nullptr);
  EXPECT_EQ(pn->Read().counter, -100);
}

TEST(CounterDecode, RejectsTotalsOutsideInt64) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const CrdtType type : {CrdtType::kGCounter, CrdtType::kPNCounter}) {
    SCOPED_TRACE(CrdtTypeName(type));
    EXPECT_FALSE(Decodes(type, {{1, 1, kMax}, {2, 1, 1}}));
    const auto at_max = CrdtObject::DecodeState(
        "c", CounterState(type, {{1, 1, kMax - 1}, {2, 1, 1}}));
    ASSERT_NE(at_max, nullptr);
    EXPECT_EQ(at_max->Read().counter, kMax);
  }
  EXPECT_FALSE(Decodes(CrdtType::kPNCounter, {{1, 1, kMin}, {2, 1, -1}}));
}

// --- MV-Register (Fig. 4) ----------------------------------------------------

TEST(MVRegister, HappenedBeforeOverwrites) {
  CrdtObject obj("r", CrdtType::kMVRegister);
  obj.ApplyOperations({AssignReg("r", Value(true), 1, 1),
                       AssignReg("r", Value(false), 1, 2)});
  const ReadResult r = obj.Read();
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(false));
}

TEST(MVRegister, ConcurrentKeepsBothValues) {
  CrdtObject obj("r", CrdtType::kMVRegister);
  obj.ApplyOperations({AssignReg("r", Value(true), 1, 1),
                       AssignReg("r", Value(false), 2, 1)});
  const ReadResult r = obj.Read();
  ASSERT_EQ(r.values.size(), 2u);  // stores all concurrent values (Fig. 4)
}

TEST(MVRegister, LateOldOpDoesNotResurrect) {
  CrdtObject obj("r", CrdtType::kMVRegister);
  obj.ApplyOperations({AssignReg("r", Value(2), 1, 2)});
  obj.ApplyOperations({AssignReg("r", Value(1), 1, 1)});  // stale arrival
  const ReadResult r = obj.Read();
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(2));
}

TEST(MVRegister, EqualClockDifferentValueKeepsBothDeterministically) {
  // A Byzantine client reusing a clock must not cause replica divergence.
  CrdtObject a("r", CrdtType::kMVRegister);
  CrdtObject b("r", CrdtType::kMVRegister);
  const Operation x = AssignReg("r", Value(1), 1, 1);
  const Operation y = AssignReg("r", Value(2), 1, 1);
  a.ApplyOperations({x, y});
  b.ApplyOperations({y, x});
  EXPECT_EQ(a.Read().values, b.Read().values);
  EXPECT_EQ(a.Read().values.size(), 2u);
}

// --- LWW-Register ------------------------------------------------------------

TEST(LWWRegister, HighestCounterWins) {
  CrdtObject obj("l", CrdtType::kLWWRegister);
  auto lww = [](Value v, std::uint64_t client, std::uint64_t counter) {
    return Op("l", CrdtType::kLWWRegister, {}, OpKind::kAssignValue,
              CrdtType::kLWWRegister, std::move(v), client, counter);
  };
  obj.ApplyOperations({lww(Value("a"), 1, 5), lww(Value("b"), 2, 3)});
  ASSERT_EQ(obj.Read().values.size(), 1u);
  EXPECT_EQ(obj.Read().values[0], Value("a"));
  // Tie on counter: higher client id wins deterministically.
  obj.ApplyOperations({lww(Value("c"), 3, 5)});
  EXPECT_EQ(obj.Read().values[0], Value("c"));
}

// --- OR-Set ------------------------------------------------------------------

TEST(ORSet, AddThenObservedRemove) {
  CrdtObject obj("s", CrdtType::kORSet);
  auto setop = [](OpKind kind, Value v, std::uint64_t client,
                  std::uint64_t counter) {
    return Op("s", CrdtType::kORSet, {}, kind, CrdtType::kORSet, std::move(v),
              client, counter);
  };
  obj.ApplyOperations({setop(OpKind::kAddValue, Value("x"), 1, 1)});
  EXPECT_EQ(obj.Read().values.size(), 1u);
  obj.ApplyOperations({setop(OpKind::kRemoveValue, Value("x"), 1, 2)});
  EXPECT_TRUE(obj.Read().values.empty());
  // A concurrent add (different client) survives the remove: add-wins.
  obj.ApplyOperations({setop(OpKind::kAddValue, Value("x"), 2, 1)});
  EXPECT_EQ(obj.Read().values.size(), 1u);
}

// --- CRDT Map (Fig. 3) -------------------------------------------------------

TEST(Map, InsertHappenedBeforeReplaces) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperations(
      {MapInsert("m", {"voter1"}, CrdtType::kMVRegister, 1, 1),
       MapInsert("m", {"voter1"}, CrdtType::kMVRegister, 1, 2)});
  const ReadResult r = obj.Read();
  ASSERT_EQ(r.keys.size(), 1u);
  // The replacing insert resets the register: it reads empty.
  EXPECT_TRUE(obj.Read({"voter1"}).values.empty());
}

TEST(Map, ConcurrentInsertsBothKept) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperations(
      {MapInsert("m", {"voter1"}, CrdtType::kMVRegister, 1, 1),
       MapInsert("m", {"voter1"}, CrdtType::kMVRegister, 2, 1)});
  // Both candidates live under the key (Fig. 3, no happened-before case).
  EXPECT_EQ(obj.Read().keys.size(), 1u);
  EXPECT_TRUE(obj.Read({"voter1"}).exists);
}

TEST(Map, ImplicitPathCreation) {
  // Assigning through a never-inserted key creates the location (Alg. 1
  // line 3).
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperations({MapAssign("m", {"voter7"}, Value(true), 1, 1)});
  const ReadResult r = obj.Read({"voter7"});
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(true));
}

TEST(Map, DeleteTombstone) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperations({MapAssign("m", {"k"}, Value(1), 1, 1)});
  EXPECT_EQ(obj.Read().keys.size(), 1u);
  // InsertValue with null value deletes (Table 1).
  obj.ApplyOperations({MapInsert("m", {"k"}, CrdtType::kNone, 1, 2)});
  EXPECT_TRUE(obj.Read().keys.empty());
  EXPECT_FALSE(obj.Read({"k"}).exists);
}

TEST(Map, WriteAfterDeleteRevives) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperations({MapInsert("m", {"k"}, CrdtType::kNone, 1, 1)});
  obj.ApplyOperations({MapAssign("m", {"k"}, Value(5), 1, 2)});
  const ReadResult r = obj.Read({"k"});
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(5));
}

TEST(Map, NestedMapsAndCounters) {
  CrdtObject obj("m", CrdtType::kMap);
  auto add = [](std::vector<std::string> path, std::int64_t v,
                std::uint64_t client, std::uint64_t counter) {
    return Op("m", CrdtType::kMap, std::move(path), OpKind::kAddValue,
              CrdtType::kGCounter, Value(v), client, counter);
  };
  obj.ApplyOperations({add({"sensor1", "violations"}, 1, 1, 1),
                       add({"sensor1", "violations"}, 1, 2, 1),
                       add({"sensor2", "violations"}, 1, 3, 1)});
  EXPECT_EQ(obj.Read({"sensor1", "violations"}).counter, 2);
  EXPECT_EQ(obj.Read({"sensor2", "violations"}).counter, 1);
  EXPECT_EQ(obj.Read().keys,
            (std::vector<std::string>{"sensor1", "sensor2"}));
}

TEST(Map, VotingScenarioFig5) {
  // TS_Vote1 then TS_Vote2 from the same voter: only the second vote counts,
  // in any processing order.
  const std::vector<Operation> vote1 = {
      MapAssign("party1", {"voter1"}, Value(true), 9, 1, 0),
  };
  const std::vector<Operation> vote1b = {
      MapAssign("party2", {"voter1"}, Value(false), 9, 1, 1),
  };
  const std::vector<Operation> vote2 = {
      MapAssign("party1", {"voter1"}, Value(false), 9, 2, 0),
  };
  const std::vector<Operation> vote2b = {
      MapAssign("party2", {"voter1"}, Value(true), 9, 2, 1),
  };

  for (const bool reversed : {false, true}) {
    CrdtObject party1("party1", CrdtType::kMap);
    CrdtObject party2("party2", CrdtType::kMap);
    if (!reversed) {
      party1.ApplyOperations(vote1);
      party2.ApplyOperations(vote1b);
      party1.ApplyOperations(vote2);
      party2.ApplyOperations(vote2b);
    } else {
      party1.ApplyOperations(vote2);
      party2.ApplyOperations(vote2b);
      party1.ApplyOperations(vote1);
      party2.ApplyOperations(vote1b);
    }
    EXPECT_EQ(party1.Read({"voter1"}).values,
              (std::vector<Value>{Value(false)}));
    EXPECT_EQ(party2.Read({"voter1"}).values,
              (std::vector<Value>{Value(true)}));
  }
}

// --- Object-level ------------------------------------------------------------

TEST(Object, StateSerializationRoundtrip) {
  CrdtObject obj("m", CrdtType::kMap);
  obj.ApplyOperations({MapAssign("m", {"a"}, Value(1), 1, 1),
                       MapInsert("m", {"b"}, CrdtType::kMVRegister, 2, 1),
                       MapAssign("m", {"b"}, Value("x"), 2, 2)});
  const Bytes state = obj.EncodeState();
  const auto decoded = CrdtObject::DecodeState("m", BytesView(state));
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(NodesEqual(obj.root(), decoded->root()));
  EXPECT_EQ(decoded->Read({"a"}).values, obj.Read({"a"}).values);
}

TEST(Object, CloneIsDeepAndEqual) {
  CrdtObject obj("c", CrdtType::kGCounter);
  obj.ApplyOperations({Add("c", 5, 1, 1)});
  CrdtObject copy = obj.CloneObject();
  EXPECT_TRUE(NodesEqual(obj.root(), copy.root()));
  copy.ApplyOperations({Add("c", 3, 1, 2)});
  EXPECT_EQ(obj.Read().counter, 5);
  EXPECT_EQ(copy.Read().counter, 8);
}

TEST(Object, OperationEncodeDecodeRoundtrip) {
  const Operation op =
      Op("obj", CrdtType::kMap, {"a", "b"}, OpKind::kInsertValue,
         CrdtType::kGCounter, Value(std::int64_t{7}), 3, 9, 2);
  codec::Writer w;
  op.Encode(w);
  codec::Reader r{BytesView(w.data())};
  const auto decoded = Operation::Decode(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, op);
}

TEST(Object, WriteSetEncodeDecodeRoundtrip) {
  std::vector<Operation> ops = {Add("c", 5, 1, 1, 0), Add("c", 7, 1, 1, 1)};
  codec::Writer w;
  EncodeOperations(ops, w);
  codec::Reader r{BytesView(w.data())};
  const auto decoded = DecodeOperations(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ops);
}

}  // namespace
}  // namespace orderless::crdt
