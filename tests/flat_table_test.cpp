// FlatTable: lookups across index growth, insertion-order iteration, full-key
// compare behind a partial hash, reference stability and reuse after clear.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "crypto/sha256.h"

namespace orderless {
namespace {

// The table mixes the hash itself, so an identity hash must do.
struct IdentityHash {
  std::size_t operator()(std::uint64_t key) const { return key; }
};

using IntTable = FlatTable<std::uint64_t, std::uint64_t, IdentityHash>;

TEST(FlatTable, FindsEveryKeyAfterManyDoublings) {
  // More than 2^14 distinct keys (about 26k) take the index from 8 to at
  // least 2^16 slots: 13 doublings.
  IntTable table;
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  Rng rng(7);
  for (std::uint64_t i = 0; i < 60000; ++i) {
    // Multiples of 1024: an identity hash leaves the low bits all zero.
    const std::uint64_t key = rng.NextBelow(30000) * 1024;
    const auto [value, inserted] = table.FindOrInsert(key);
    const bool fresh = reference.emplace(key, i).second;
    ASSERT_EQ(inserted, fresh) << "key " << key;
    if (inserted) {
      EXPECT_EQ(value, 0u);
      value = i;
    }
    ASSERT_EQ(value, reference.at(key));
  }
  ASSERT_GT(reference.size(), 1u << 14);
  EXPECT_EQ(table.size(), reference.size());
  for (const auto& [key, value] : reference) {
    const std::uint64_t* found = table.Find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value);
  }
  for (std::uint64_t key = 30000 * 1024; key < 31000 * 1024; key += 1024) {
    EXPECT_EQ(table.Find(key), nullptr) << "key " << key;
    EXPECT_EQ(table.Find(key + 1), nullptr) << "key " << key + 1;
  }
}

TEST(FlatTable, IteratesInInsertionOrder) {
  IntTable table;
  std::vector<std::uint64_t> order;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.Next();
    if (table.FindOrInsert(key).second) {
      table.FindOrInsert(key).first = key ^ 0xabcdef;
      order.push_back(key);
    }
    table.FindOrInsert(order[rng.NextBelow(order.size())]);  // re-finds
  }
  ASSERT_EQ(table.size(), order.size());
  std::vector<std::uint64_t> seen;
  table.ForEach([&seen](const IntTable::Entry& entry) {
    EXPECT_EQ(entry.value, entry.key ^ 0xabcdef);
    seen.push_back(entry.key);
  });
  EXPECT_EQ(seen, order);
}

TEST(FlatTable, DigestsSharingAPrefixStayDistinct) {
  // DigestHash reads only the first 8 bytes, so all 1000 keys share one
  // hash; lookups must still tell them apart by their later bytes.
  FlatTable<crypto::Digest, int, crypto::DigestHash> table;
  std::vector<crypto::Digest> keys(1000);
  for (int i = 0; i < 1000; ++i) {
    for (std::size_t b = 0; b < 8; ++b) keys[i].bytes[b] = 0x5a;
    keys[i].bytes[8 + i % 24] = static_cast<std::uint8_t>(1 + i / 24);
    ASSERT_EQ(keys[i].Prefix64(), keys[0].Prefix64());
  }
  for (int i = 0; i < 1000; ++i) {
    const auto [value, inserted] = table.FindOrInsert(keys[i]);
    ASSERT_TRUE(inserted) << "key " << i;
    value = i;
  }
  EXPECT_EQ(table.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    const int* found = table.Find(keys[i]);
    ASSERT_NE(found, nullptr) << "key " << i;
    EXPECT_EQ(*found, i);
    const auto [value, inserted] = table.FindOrInsert(keys[i]);
    EXPECT_FALSE(inserted) << "key " << i;
    EXPECT_EQ(value, i);
  }
  crypto::Digest absent = keys[0];
  absent.bytes[31] = 0xff;
  EXPECT_EQ(table.Find(absent), nullptr);
}

TEST(FlatTable, ReferencesSurviveLaterInserts) {
  IntTable table;
  std::vector<std::uint64_t*> refs;
  for (std::uint64_t key = 0; key < 100; ++key) {
    std::uint64_t& value = table.FindOrInsert(key).first;
    value = key + 1;
    refs.push_back(&value);
  }
  for (std::uint64_t key = 100; key < 20000; ++key) {
    table.FindOrInsert(key).first = key + 1;
  }
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(table.Find(key), refs[key]) << "key " << key;
    EXPECT_EQ(*refs[key], key + 1);
    *refs[key] = 7 * key;  // writes through an old reference land
  }
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(*table.Find(key), 7 * key);
  }
}

TEST(FlatTable, CopiesAreIndependentAndKeepStableReferences) {
  // 300 entries end partway into the first full-size segment.
  IntTable original;
  for (std::uint64_t key = 0; key < 300; ++key) {
    original.FindOrInsert(key).first = key;
  }
  IntTable copy = original;
  const std::uint64_t* last = &copy.FindOrInsert(299).first;
  for (std::uint64_t key = 300; key < 600; ++key) {
    copy.FindOrInsert(key).first = key;
  }
  EXPECT_EQ(copy.Find(299), last) << "a copy's entries moved on insert";
  copy.FindOrInsert(0).first = 1000;
  EXPECT_EQ(*original.Find(0), 0u);
  EXPECT_EQ(original.size(), 300u);
  EXPECT_EQ(original.Find(300), nullptr);
  EXPECT_EQ(copy.size(), 600u);
  for (std::uint64_t key = 1; key < 600; ++key) {
    ASSERT_NE(copy.Find(key), nullptr) << "key " << key;
    EXPECT_EQ(*copy.Find(key), key);
  }
  original = copy;
  EXPECT_EQ(original.size(), 600u);
  EXPECT_EQ(*original.Find(0), 1000u);
}

TEST(FlatTable, ClearThenReuse) {
  IntTable table;
  for (std::uint64_t key = 0; key < 3000; ++key) {
    table.FindOrInsert(key).first = key;
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  table.ForEach([](const IntTable::Entry& entry) {
    ADD_FAILURE() << "cleared table holds key " << entry.key;
  });
  EXPECT_EQ(table.Find(5), nullptr);
  for (std::uint64_t key = 2000; key < 2100; ++key) {
    const auto [value, inserted] = table.FindOrInsert(key);
    EXPECT_TRUE(inserted) << "key " << key;
    EXPECT_EQ(value, 0u);
    value = key * 3;
  }
  EXPECT_EQ(table.size(), 100u);
  EXPECT_EQ(table.Find(5), nullptr);
  ASSERT_NE(table.Find(2099), nullptr);
  EXPECT_EQ(*table.Find(2099), 2099u * 3);
  std::uint64_t expected = 2000;
  table.ForEach([&expected](const IntTable::Entry& entry) {
    EXPECT_EQ(entry.key, expected);
    EXPECT_EQ(entry.value, expected * 3);
    ++expected;
  });
  EXPECT_EQ(expected, 2100u);
}

}  // namespace
}  // namespace orderless
