#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

#include "codec/codec.h"
#include "common/rng.h"
#include "ledger/bloom.h"
#include "ledger/minilevel.h"
#include "ledger/sstable.h"
#include "ledger/wal.h"

namespace orderless::ledger {
namespace {

namespace fs = std::filesystem;

// A temp path no other fixture or process uses. `ctest -j` runs each test
// in its own process, and those processes can share the gtest seed and,
// under ASan's deterministic heap, every address, so neither tells them
// apart; the process id and a per-process counter do.
fs::path UniqueTempPath(const std::string& stem) {
  static int next = 0;
  return fs::temp_directory_path() /
         (stem + "_" + std::to_string(getpid()) + "_" +
          std::to_string(next++));
}

// Replaces the one-byte bloom word count (after the 4-byte hash count at
// the footer's bloom offset) with a varint of 2^62: a table that claims far
// more bloom words than its bytes could hold.
void SpliceHostileBloomCount(const fs::path& path) {
  Bytes file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GE(file.size(), 32u);
  codec::Reader footer(BytesView(file.data() + file.size() - 32, 32));
  ASSERT_TRUE(footer.GetU64().has_value());  // index offset
  const auto bloom_offset = footer.GetU64();
  ASSERT_TRUE(bloom_offset.has_value());
  const std::size_t count_at = static_cast<std::size_t>(*bloom_offset) + 4;
  ASSERT_LT(count_at, file.size() - 32);
  ASSERT_LT(file[count_at], 0x80) << "count is not a one-byte varint";
  codec::Writer hostile;
  hostile.PutVarint(std::uint64_t{1} << 62);
  file.erase(file.begin() + static_cast<std::ptrdiff_t>(count_at));
  file.insert(file.begin() + static_cast<std::ptrdiff_t>(count_at),
              hostile.data().begin(), hostile.data().end());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
}

class MiniLevelTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = UniqueTempPath("minilevel_test");
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

TEST_F(MiniLevelTest, PutGetDelete) {
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok()) << db.message();
  auto& kv = *db.value();
  ASSERT_TRUE(kv.Put("k1", ToBytes("v1")).ok());
  ASSERT_TRUE(kv.Put("k2", ToBytes("v2")).ok());
  EXPECT_EQ(kv.Get("k1"), ToBytes("v1"));
  ASSERT_TRUE(kv.Put("k1", ToBytes("v1b")).ok());
  EXPECT_EQ(kv.Get("k1"), ToBytes("v1b"));
  ASSERT_TRUE(kv.Delete("k1").ok());
  EXPECT_FALSE(kv.Get("k1").has_value());
  EXPECT_EQ(kv.Get("k2"), ToBytes("v2"));
}

TEST_F(MiniLevelTest, PersistsAcrossReopen) {
  {
    auto db = MiniLevel::Open(dir());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put("durable", ToBytes("yes")).ok());
  }
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->Get("durable"), ToBytes("yes"));
}

TEST_F(MiniLevelTest, FlushCreatesSstablesAndReadsBack) {
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  auto& kv = *db.value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        kv.Put("key" + std::to_string(i), ToBytes("value" + std::to_string(i)))
            .ok());
  }
  ASSERT_TRUE(kv.Flush().ok());
  EXPECT_GE(kv.sstable_count(), 1u);
  EXPECT_EQ(kv.memtable_entries(), 0u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(kv.Get("key" + std::to_string(i)),
              ToBytes("value" + std::to_string(i)));
  }
  EXPECT_FALSE(kv.Get("key100").has_value());
}

TEST_F(MiniLevelTest, NewerTablesShadowOlder) {
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  auto& kv = *db.value();
  ASSERT_TRUE(kv.Put("k", ToBytes("old")).ok());
  ASSERT_TRUE(kv.Flush().ok());
  ASSERT_TRUE(kv.Put("k", ToBytes("new")).ok());
  ASSERT_TRUE(kv.Flush().ok());
  EXPECT_EQ(kv.Get("k"), ToBytes("new"));
  // Tombstone in a newer table shadows older tables too.
  ASSERT_TRUE(kv.Delete("k").ok());
  ASSERT_TRUE(kv.Flush().ok());
  EXPECT_FALSE(kv.Get("k").has_value());
}

TEST_F(MiniLevelTest, CompactionMergesAndDropsTombstones) {
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  auto& kv = *db.value();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(kv.Put("k" + std::to_string(i),
                         ToBytes("r" + std::to_string(round)))
                      .ok());
    }
    ASSERT_TRUE(kv.Delete("k0").ok());
    ASSERT_TRUE(kv.Flush().ok());
  }
  ASSERT_GE(kv.sstable_count(), 3u);
  ASSERT_TRUE(kv.Compact().ok());
  EXPECT_EQ(kv.sstable_count(), 1u);
  EXPECT_FALSE(kv.Get("k0").has_value());
  EXPECT_EQ(kv.Get("k1"), ToBytes("r2"));
  // Reopen after compaction: manifest points at the merged table.
}

TEST_F(MiniLevelTest, ScanPrefixMergesSources) {
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  auto& kv = *db.value();
  ASSERT_TRUE(kv.Put("op/a/1", ToBytes("1")).ok());
  ASSERT_TRUE(kv.Put("op/a/2", ToBytes("2")).ok());
  ASSERT_TRUE(kv.Flush().ok());
  ASSERT_TRUE(kv.Put("op/a/2", ToBytes("2b")).ok());  // memtable shadows
  ASSERT_TRUE(kv.Put("op/b/1", ToBytes("3")).ok());
  ASSERT_TRUE(kv.Delete("op/a/1").ok());

  std::map<std::string, std::string> seen;
  kv.ScanPrefix("op/a/", [&seen](std::string_view key, BytesView value) {
    seen[std::string(key)] =
        std::string(reinterpret_cast<const char*>(value.data()), value.size());
    return true;
  });
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen["op/a/2"], "2b");
}

TEST_F(MiniLevelTest, WalReplayAfterCrash) {
  {
    auto db = MiniLevel::Open(dir());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put("crash", ToBytes("survives")).ok());
    // No flush: destructor only syncs the WAL; data lives in the log.
  }
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->Get("crash"), ToBytes("survives"));
}

TEST_F(MiniLevelTest, TornWalTailIsIgnored) {
  {
    auto db = MiniLevel::Open(dir());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put("good", ToBytes("1")).ok());
  }
  // Append garbage to simulate a torn write.
  {
    std::ofstream wal(dir() + "/wal.log", std::ios::binary | std::ios::app);
    wal.write("\x50\x00\x00\x00garbage", 11);
  }
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value()->Get("good"), ToBytes("1"));
}

// Mid-compaction crash injection: Compact() aborts exactly where a process
// death would, and a reopen must come up consistent either way.
TEST_F(MiniLevelTest, CompactCrashAfterTableWriteReopensOnOldTables) {
  MiniLevelOptions crashy;
  crashy.compact_crash_point =
      MiniLevelOptions::CompactCrashPoint::kAfterTableWrite;
  std::size_t tables_before = 0;
  {
    auto db = MiniLevel::Open(dir(), crashy);
    ASSERT_TRUE(db.ok()) << db.message();
    auto& kv = *db.value();
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(kv.Put("k" + std::to_string(i),
                           ToBytes("r" + std::to_string(round)))
                        .ok());
      }
      ASSERT_TRUE(kv.Delete("k39").ok());
      ASSERT_TRUE(kv.Flush().ok());
    }
    tables_before = kv.sstable_count();
    ASSERT_GE(tables_before, 3u);
    // Memtable-only row at crash time: must ride the WAL across the crash.
    ASSERT_TRUE(kv.Put("fresh", ToBytes("wal")).ok());
    const Status crashed = kv.Compact();
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(crashed.message().find("after-table-write"), std::string::npos);
  }
  // Reopen: the manifest still lists the old tables; the orphan merged table
  // must be ignored and every row read back from the old tables + WAL.
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok()) << db.message();
  auto& kv = *db.value();
  EXPECT_EQ(kv.sstable_count(), tables_before);
  for (int i = 0; i < 39; ++i) {
    EXPECT_EQ(kv.Get("k" + std::to_string(i)), ToBytes("r2")) << i;
  }
  EXPECT_FALSE(kv.Get("k39").has_value());
  EXPECT_EQ(kv.Get("fresh"), ToBytes("wal"));
  // A clean compaction still succeeds after the aborted one.
  ASSERT_TRUE(kv.Compact().ok());
  EXPECT_EQ(kv.sstable_count(), 1u);
  EXPECT_EQ(kv.Get("k0"), ToBytes("r2"));
}

TEST_F(MiniLevelTest, CompactCrashAfterManifestLoadsMergedTable) {
  MiniLevelOptions crashy;
  crashy.compact_crash_point =
      MiniLevelOptions::CompactCrashPoint::kAfterManifest;
  {
    auto db = MiniLevel::Open(dir(), crashy);
    ASSERT_TRUE(db.ok()) << db.message();
    auto& kv = *db.value();
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(kv.Put("k" + std::to_string(i),
                           ToBytes("r" + std::to_string(round)))
                        .ok());
      }
      ASSERT_TRUE(kv.Delete("k39").ok());
      ASSERT_TRUE(kv.Flush().ok());
    }
    ASSERT_GE(kv.sstable_count(), 3u);
    const Status crashed = kv.Compact();
    ASSERT_FALSE(crashed.ok());
    EXPECT_NE(crashed.message().find("after-manifest"), std::string::npos);
  }
  // The old tables were never deleted, but the manifest already points at the
  // merged table: a reopen loads only it and simply never touches the dead
  // files.
  std::size_t files_on_disk = 0;
  for (const auto& entry : fs::directory_iterator(dir())) {
    if (entry.path().extension() == ".mlt") ++files_on_disk;
  }
  EXPECT_GE(files_on_disk, 2u);  // merged + dead old tables
  auto db = MiniLevel::Open(dir());
  ASSERT_TRUE(db.ok()) << db.message();
  auto& kv = *db.value();
  EXPECT_EQ(kv.sstable_count(), 1u);
  for (int i = 0; i < 39; ++i) {
    EXPECT_EQ(kv.Get("k" + std::to_string(i)), ToBytes("r2")) << i;
  }
  EXPECT_FALSE(kv.Get("k39").has_value());  // tombstone folded by the merge
}

TEST_F(MiniLevelTest, RandomizedModelCheck) {
  MiniLevelOptions options;
  options.memtable_flush_bytes = 2048;  // force frequent flushes
  options.compaction_trigger = 3;
  auto db = MiniLevel::Open(dir(), options);
  ASSERT_TRUE(db.ok());
  auto& kv = *db.value();

  std::map<std::string, Bytes> model;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(rng.NextBelow(200));
    if (rng.NextBool(0.25)) {
      ASSERT_TRUE(kv.Delete(key).ok());
      model.erase(key);
    } else {
      const Bytes value = ToBytes("v" + std::to_string(i));
      ASSERT_TRUE(kv.Put(key, BytesView(value)).ok());
      model[key] = value;
    }
    if (i % 97 == 0) {
      const std::string probe = "k" + std::to_string(rng.NextBelow(200));
      const auto it = model.find(probe);
      const auto got = kv.Get(probe);
      if (it == model.end()) {
        EXPECT_FALSE(got.has_value()) << probe;
      } else {
        EXPECT_EQ(got, it->second) << probe;
      }
    }
  }
  for (const auto& [key, value] : model) {
    EXPECT_EQ(kv.Get(key), value) << key;
  }
}

TEST(Sstable, WriteAndPointLookups) {
  const fs::path path = UniqueTempPath("sstable_unit");
  std::vector<SstRecord> records;
  for (int i = 0; i < 100; ++i) {
    SstRecord rec;
    rec.key = "key" + std::to_string(1000 + i);  // sorted by construction
    rec.value = ToBytes("value" + std::to_string(i));
    records.push_back(std::move(rec));
  }
  ASSERT_TRUE(WriteSstable(path.string(), records).ok());
  auto reader = SstableReader::Open(path.string());
  ASSERT_TRUE(reader.ok()) << reader.message();
  EXPECT_EQ(reader.value()->record_count(), 100u);
  for (int i = 0; i < 100; i += 7) {
    const auto rec = reader.value()->Get("key" + std::to_string(1000 + i));
    ASSERT_TRUE(rec.has_value()) << i;
    EXPECT_EQ(rec->value, ToBytes("value" + std::to_string(i)));
  }
  EXPECT_FALSE(reader.value()->Get("key0000").has_value());
  EXPECT_FALSE(reader.value()->Get("zzz").has_value());
  fs::remove(path);
}

TEST(Sstable, CorruptFooterRejected) {
  const fs::path path = UniqueTempPath("sstable_corrupt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("not a real sstable with at least 32 bytes of junk....", 53);
  }
  EXPECT_FALSE(SstableReader::Open(path.string()).ok());
  fs::remove(path);
}

TEST(Sstable, HostileBloomCountRejected) {
  const fs::path path = UniqueTempPath("sstable_bloom");
  std::vector<SstRecord> records;
  for (int i = 0; i < 3; ++i) {
    SstRecord rec;
    rec.key = "key" + std::to_string(i);
    rec.value = ToBytes("value");
    records.push_back(std::move(rec));
  }
  ASSERT_TRUE(WriteSstable(path.string(), records).ok());
  ASSERT_TRUE(SstableReader::Open(path.string()).ok());
  SpliceHostileBloomCount(path);
  EXPECT_FALSE(SstableReader::Open(path.string()).ok());
  fs::remove(path);
}

TEST(Sstable, HostileBloomHashCountRejected) {
  // A 3-key table whose bloom claims 2^32 - 1 probes over all-ones words:
  // every probe hits, so each lookup would run all of them. The writer only
  // ever records BloomFilter::kNumHashes, so the reader refuses the table.
  const fs::path path = UniqueTempPath("sstable_hashes");
  std::vector<SstRecord> records;
  for (int i = 0; i < 3; ++i) {
    SstRecord rec;
    rec.key = "key" + std::to_string(i);
    rec.value = ToBytes("value");
    records.push_back(std::move(rec));
  }
  ASSERT_TRUE(WriteSstable(path.string(), records).ok());
  ASSERT_TRUE(SstableReader::Open(path.string()).ok());
  Bytes file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  codec::Reader footer(BytesView(file.data() + file.size() - 32, 32));
  ASSERT_TRUE(footer.GetU64().has_value());  // index offset
  const auto bloom_offset = footer.GetU64();
  ASSERT_TRUE(bloom_offset.has_value());
  // u32 hash count, one-byte varint word count, then the words up to the
  // footer.
  const std::size_t count_at = static_cast<std::size_t>(*bloom_offset);
  ASSERT_LT(file[count_at + 4], 0x80) << "word count is not one byte";
  std::fill(file.begin() + static_cast<std::ptrdiff_t>(count_at),
            file.begin() + static_cast<std::ptrdiff_t>(count_at + 4), 0xff);
  std::fill(file.begin() + static_cast<std::ptrdiff_t>(count_at + 5),
            file.end() - 32, 0xff);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(file.data()),
              static_cast<std::streamsize>(file.size()));
  }
  EXPECT_FALSE(SstableReader::Open(path.string()).ok());
  fs::remove(path);
}

// The restart path: the corrupt table is reached through the manifest, and
// the reopen reports it as an error instead of throwing.
TEST_F(MiniLevelTest, CorruptTableFailsReopenWithStatus) {
  {
    auto db = MiniLevel::Open(dir());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db.value()->Put("k", ToBytes("v")).ok());
    ASSERT_TRUE(db.value()->Flush().ok());
    ASSERT_EQ(db.value()->sstable_count(), 1u);
  }
  std::vector<fs::path> tables;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".mlt") tables.push_back(entry.path());
  }
  ASSERT_EQ(tables.size(), 1u);
  SpliceHostileBloomCount(tables[0]);
  EXPECT_FALSE(MiniLevel::Open(dir()).ok());
}

TEST(Bloom, NoFalseNegativesAndLowFalsePositives) {
  BloomFilter bloom(1000);
  for (int i = 0; i < 1000; ++i) bloom.Add("member" + std::to_string(i));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("member" + std::to_string(i)));
  }
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  EXPECT_LT(false_positives, 300);  // ~1% design target, generous bound
}

}  // namespace
}  // namespace orderless::ledger
