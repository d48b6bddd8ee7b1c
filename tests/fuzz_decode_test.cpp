// Decoder robustness: Byzantine peers can hand us arbitrary bytes. Every
// decoder (operations, write-sets, CRDT states, proposals, transactions,
// vector clocks, values, checkpoints and their attestations, and the
// MiniLevel WAL, SSTable and MANIFEST files) must reject mutated or
// truncated input gracefully
// — no crashes, no exceptions, no allocation sized by an unread count — and
// where decoding "succeeds" after mutation, re-encoding must still be
// internally consistent.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <new>

#include "common/rng.h"
#include "clock/vector_clock.h"
#include "core/checkpoint.h"
#include "core/transaction.h"
#include "crdt/object.h"
#include "ledger/minilevel.h"

// The largest single heap request made while g_track_allocs is set, so a
// test can check that a hostile count prefix does not size an allocation.
namespace {
std::atomic<bool> g_track_allocs{false};
std::atomic<std::size_t> g_largest_alloc{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_track_allocs.load(std::memory_order_relaxed)) {
    std::size_t largest = g_largest_alloc.load(std::memory_order_relaxed);
    while (size > largest &&
           !g_largest_alloc.compare_exchange_weak(largest, size,
                                                  std::memory_order_relaxed)) {
    }
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC would otherwise see free() on memory from operator new
// and warn about a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace orderless {
namespace {

/// Runs `decode` and returns the largest single allocation it requested.
template <typename Decode>
std::size_t LargestAllocDuring(Decode decode) {
  g_largest_alloc.store(0, std::memory_order_relaxed);
  g_track_allocs.store(true, std::memory_order_relaxed);
  decode();
  g_track_allocs.store(false, std::memory_order_relaxed);
  return g_largest_alloc.load(std::memory_order_relaxed);
}

Bytes EncodeSampleOps(Rng& rng) {
  std::vector<crdt::Operation> ops;
  for (int i = 0; i < 8; ++i) {
    crdt::Operation op;
    op.object_id = "obj" + std::to_string(i % 3);
    op.object_type = crdt::CrdtType::kMap;
    op.path = {"k" + std::to_string(i), "sub"};
    op.kind = static_cast<crdt::OpKind>(rng.NextBelow(4));
    op.value_type = crdt::CrdtType::kMVRegister;
    op.value = crdt::Value(rng.NextInRange(-5, 5));
    op.clock = clk::OpClock{1 + rng.NextBelow(4), 1 + rng.NextBelow(10)};
    op.seq = static_cast<std::uint32_t>(i);
    ops.push_back(std::move(op));
  }
  codec::Writer w;
  crdt::EncodeOperations(ops, w);
  return w.Take();
}

template <typename T>
Bytes EncodeOf(const T& value) {
  codec::Writer w;
  value.Encode(w);
  return w.Take();
}

void MutateBytes(Rng& rng, Bytes& bytes, std::size_t max_mutations) {
  const std::size_t mutations = 1 + rng.NextBelow(max_mutations);
  for (std::size_t m = 0; m < mutations; ++m) {
    bytes[rng.NextBelow(bytes.size())] = static_cast<std::uint8_t>(rng.Next());
  }
}

/// A checkpoint sealed by org 0 over six covered ids and three PN-counter
/// states, with attestations from orgs 1-3 (a 3-of-4 quorum).
struct AttestedCheckpoint {
  AttestedCheckpoint() {
    std::vector<crypto::PrivateKey> orgs;
    for (int i = 0; i < 4; ++i) {
      orgs.push_back(pki.Generate("org" + std::to_string(i)));
      org_ids.insert(orgs.back().id());
    }
    ckpt.seq = 3;
    ckpt.origin = orgs[0].id();
    ckpt.chain_height = 17;
    ckpt.chain_head = crypto::Sha256::Hash(std::string_view("head"));
    for (int i = 0; i < 6; ++i) {
      const crypto::Digest id =
          crypto::Sha256::Hash(std::string_view("tx" + std::to_string(i)));
      ckpt.covered.push_back({id, i % 3 != 0});
      if (i % 3 != 0) {
        ++ckpt.valid_count;
        ckpt.valid_xor ^= id.Prefix64();
      }
    }
    std::sort(ckpt.covered.begin(), ckpt.covered.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    for (std::uint64_t o = 0; o < 3; ++o) {
      const std::string object_id = "obj" + std::to_string(o);
      crdt::CrdtObject obj(object_id, crdt::CrdtType::kPNCounter);
      for (std::uint64_t c = 1; c <= 2 + 2 * o; ++c) {
        crdt::Operation op;
        op.object_id = object_id;
        op.object_type = crdt::CrdtType::kPNCounter;
        op.kind = crdt::OpKind::kAddValue;
        op.value_type = crdt::CrdtType::kPNCounter;
        op.value = crdt::Value(static_cast<std::int64_t>(c) - 3);
        op.clock = clk::OpClock{c, c};
        obj.ApplyOperation(op);
      }
      ckpt.objects.emplace_back(object_id, obj.EncodeState());
    }
    ckpt.Seal(orgs[0]);
    attestations.ckpt_digest = ckpt.digest;
    for (int i = 1; i < 4; ++i) {
      attestations.attestations.push_back(core::CheckpointAttestation{
          orgs[i].id(),
          orgs[i].Sign(core::kCheckpointAttestContext, ckpt.digest)});
    }
  }

  crypto::Pki pki;
  std::set<crypto::KeyId> org_ids;
  core::Checkpoint ckpt;
  core::AttestationSet attestations;
};

TEST(FuzzDecode, MutatedWriteSetsNeverCrash) {
  Rng rng(31337);
  for (int round = 0; round < 300; ++round) {
    Bytes encoded = EncodeSampleOps(rng);
    // Mutate 1..8 random bytes.
    const std::size_t mutations = 1 + rng.NextBelow(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      encoded[rng.NextBelow(encoded.size())] =
          static_cast<std::uint8_t>(rng.Next());
    }
    codec::Reader r{BytesView(encoded)};
    const auto decoded = crdt::DecodeOperations(r);
    if (decoded) {
      // If it happens to parse, the ops must re-encode and apply safely.
      crdt::CrdtObject obj("obj0", crdt::CrdtType::kMap);
      obj.ApplyOperations(*decoded);
      codec::Writer w;
      crdt::EncodeOperations(*decoded, w);
    }
  }
}

TEST(FuzzDecode, TruncatedWriteSetsNeverCrash) {
  Rng rng(99);
  const Bytes encoded = EncodeSampleOps(rng);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    const auto decoded = crdt::DecodeOperations(r);
    if (cut < encoded.size()) {
      // Usually fails; occasionally a prefix is self-consistent, which is
      // fine — it must just never fault.
      (void)decoded;
    }
  }
}

TEST(FuzzDecode, HostileCountsDoNotSizeAllocations) {
  // 0x80 0x80 0x40 is 2^20 operations, the most DecodeOperations accepts,
  // with nothing behind the count.
  const Bytes ops_prefix = {0x80, 0x80, 0x40};
  const std::size_t ops_alloc = LargestAllocDuring([&] {
    codec::Reader r{BytesView(ops_prefix)};
    EXPECT_FALSE(crdt::DecodeOperations(r).has_value());
  });
  EXPECT_LE(ops_alloc, 64u * 1024);

  // One operation: object id "o", a valid type tag, then a path count of
  // 1024 segments that never follow.
  const Bytes path_prefix = {0x01, 'o',
                             static_cast<std::uint8_t>(crdt::CrdtType::kMap),
                             0x80, 0x08};
  const std::size_t path_alloc = LargestAllocDuring([&] {
    codec::Reader r{BytesView(path_prefix)};
    EXPECT_FALSE(crdt::Operation::Decode(r).has_value());
  });
  EXPECT_LE(path_alloc, 4u * 1024);

  // An honest checkpoint and attestation set with one count overwritten by
  // 2^32 - 1: whatever the decoders reserve must fit in the bytes given.
  const AttestedCheckpoint honest;
  const auto with_hostile_count = [](Bytes bytes, std::size_t offset) {
    for (std::size_t i = 0; i < 4; ++i) bytes[offset + i] = 0xff;
    return bytes;
  };
  const Bytes ckpt = EncodeOf(honest.ckpt);
  // seq, origin, chain height (8 each), chain head (32), valid count and
  // xor (8 each), then the covered count; 33 bytes per covered entry, then
  // the object count.
  const std::size_t covered_at = 3 * 8 + 32 + 2 * 8;
  const std::size_t objects_at = covered_at + 4 + 33 * honest.ckpt.covered.size();
  for (const std::size_t offset : {covered_at, objects_at}) {
    const Bytes hostile = with_hostile_count(ckpt, offset);
    const std::size_t alloc = LargestAllocDuring([&] {
      codec::Reader r{BytesView(hostile)};
      EXPECT_EQ(core::Checkpoint::Decode(r), nullptr);
    });
    EXPECT_LE(alloc, hostile.size()) << "count at " << offset;
  }
  // The attestation count follows the 32-byte checkpoint digest.
  const Bytes hostile_set =
      with_hostile_count(EncodeOf(honest.attestations), 32);
  const std::size_t set_alloc = LargestAllocDuring([&] {
    codec::Reader r{BytesView(hostile_set)};
    core::AttestationSet out;
    EXPECT_FALSE(core::AttestationSet::Decode(r, out));
  });
  EXPECT_LE(set_alloc, hostile_set.size());
}

// Checkpoints and attestations arrive from peers during catch-up. Mutated
// and truncated bytes must never crash the three decoders, and a mutated
// checkpoint that still verifies must re-encode to the original bytes, so
// its covered ids, counters and object states are the original's: the
// seal covers every field.
TEST(FuzzDecode, MutatedCheckpointsNeverCrash) {
  const AttestedCheckpoint honest;
  ASSERT_TRUE(honest.ckpt.Verify(honest.pki, honest.org_ids));
  ASSERT_TRUE(honest.attestations.HasQuorum(honest.pki, honest.org_ids, 3));
  const Bytes ckpt = EncodeOf(honest.ckpt);
  const Bytes set = EncodeOf(honest.attestations);
  const Bytes one = EncodeOf(honest.attestations.attestations[0]);
  {
    codec::Reader r{BytesView(ckpt)};
    const auto copy = core::Checkpoint::Decode(r);
    ASSERT_NE(copy, nullptr);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(EncodeOf(*copy), ckpt);
  }

  Rng rng(2718);
  int decoded_checkpoints = 0;
  int decoded_sets = 0;
  for (int round = 0; round < 300; ++round) {
    Bytes mutated = ckpt;
    MutateBytes(rng, mutated, 8);
    codec::Reader r{BytesView(mutated)};
    if (const auto decoded = core::Checkpoint::Decode(r)) {
      ++decoded_checkpoints;
      (void)decoded->WireSizeBytes();
      if (decoded->Verify(honest.pki, honest.org_ids)) {
        // Only a mutation that left every byte as it was may verify.
        EXPECT_EQ(EncodeOf(*decoded), ckpt) << "round " << round;
      }
    }

    Bytes mutated_set = set;
    MutateBytes(rng, mutated_set, 4);
    codec::Reader set_reader{BytesView(mutated_set)};
    core::AttestationSet out;
    if (core::AttestationSet::Decode(set_reader, out)) {
      ++decoded_sets;
      EXPECT_LE(out.CountValid(honest.pki, honest.org_ids), 3u);
    }

    Bytes mutated_one = one;
    MutateBytes(rng, mutated_one, 4);
    codec::Reader one_reader{BytesView(mutated_one)};
    core::CheckpointAttestation attestation;
    if (core::CheckpointAttestation::Decode(one_reader, attestation)) {
      (void)attestation.Verify(honest.pki, honest.ckpt.digest);
    }
  }
  // Most mutations land in ids, states or signatures and still decode.
  EXPECT_GT(decoded_checkpoints, 0);
  EXPECT_GT(decoded_sets, 0);

  // Every field is length-checked, and the digest and signature (or the
  // last attestation) come last, so no strict prefix decodes.
  for (std::size_t cut = 0; cut < ckpt.size(); ++cut) {
    codec::Reader r{BytesView(ckpt.data(), cut)};
    EXPECT_EQ(core::Checkpoint::Decode(r), nullptr) << "cut " << cut;
  }
  for (std::size_t cut = 0; cut < set.size(); ++cut) {
    codec::Reader r{BytesView(set.data(), cut)};
    core::AttestationSet out;
    EXPECT_FALSE(core::AttestationSet::Decode(r, out)) << "cut " << cut;
  }
  for (std::size_t cut = 0; cut < one.size(); ++cut) {
    codec::Reader r{BytesView(one.data(), cut)};
    core::CheckpointAttestation out;
    EXPECT_FALSE(core::CheckpointAttestation::Decode(r, out)) << "cut " << cut;
  }
}

TEST(FuzzDecode, MutatedTransactionsNeverCrash) {
  crypto::Pki pki;
  const crypto::PrivateKey client = pki.Generate("client");
  std::vector<crypto::PrivateKey> orgs;
  std::set<crypto::KeyId> org_ids;
  for (int i = 0; i < 4; ++i) {
    orgs.push_back(pki.Generate("org" + std::to_string(i)));
    org_ids.insert(orgs.back().id());
  }
  const core::EndorsementPolicy policy{3, 4};

  core::Proposal proposal;
  proposal.client = client.id();
  proposal.contract = "synthetic";
  proposal.function = "Modify";
  proposal.args = {crdt::Value("obj1"), crdt::Value(std::int64_t{5}),
                   crdt::Value(2.5), crdt::Value(true)};
  proposal.clock = clk::OpClock{client.id(), 9};
  std::vector<crdt::Operation> ops;
  for (int i = 0; i < 3; ++i) {
    crdt::Operation op;
    op.object_id = "obj" + std::to_string(i);
    op.object_type = crdt::CrdtType::kMap;
    op.path = {"k" + std::to_string(i)};
    op.kind = crdt::OpKind::kAssignValue;
    op.value_type = crdt::CrdtType::kMVRegister;
    op.value = crdt::Value("v" + std::to_string(i));
    op.clock = proposal.clock;
    op.seq = static_cast<std::uint32_t>(i);
    ops.push_back(std::move(op));
  }
  const crypto::Digest message = core::EndorsementMessage(
      proposal.Digest(), core::WriteSetDigest(ops));
  std::vector<core::Endorsement> endorsements;
  for (const crypto::PrivateKey& org : orgs) {
    endorsements.push_back(
        core::Endorsement{org.id(), org.Sign(core::kEndorseContext, message)});
  }
  const auto tx = core::Transaction::Assemble(proposal, ops,
                                              std::move(endorsements), client);
  ASSERT_EQ(core::ValidateTransaction(*tx, pki, org_ids, policy),
            core::TxVerdict::kValid);
  codec::Writer w;
  tx->Encode(w);
  const Bytes encoded = w.Take();

  // The unmutated bytes round-trip exactly. The wire size is the proposal
  // and write-set as encoded, 40 bytes per endorsement and 80 more.
  {
    codec::Reader r{BytesView(encoded)};
    const auto copy = core::Transaction::Decode(r);
    ASSERT_NE(copy, nullptr);
    EXPECT_TRUE(r.AtEnd());
    copy->Seal();
    codec::Writer again;
    copy->Encode(again);
    EXPECT_EQ(again.data(), encoded);
    EXPECT_EQ(copy->WireSize(), tx->WireSize());
    EXPECT_EQ(copy->ProposalDigest(), tx->ProposalDigest());
    EXPECT_EQ(copy->OpsDigest(), tx->OpsDigest());
    EXPECT_EQ(core::ValidateTransaction(*copy, pki, org_ids, policy),
              core::TxVerdict::kValid);
    codec::Writer fields;
    proposal.Encode(fields);
    crdt::EncodeOperations(ops, fields);
    EXPECT_EQ(tx->WireSize(), fields.size() + 4 * 40 + 80);
  }

  // Whatever still decodes must seal, re-encode, size and validate without
  // faulting, its re-encoding must be stable, and its cached verdict must
  // equal ValidateTransaction on the first and on a cached call. Mutated
  // again in place and invalidated, it must get a fresh verdict.
  int refreshed = 0;  // mutants whose fresh verdict differs from the first
  const auto exercise = [&](core::Transaction& decoded) {
    decoded.Seal();
    codec::Writer first;
    decoded.Encode(first);
    (void)decoded.WireSize();
    const core::TxVerdict reference =
        core::ValidateTransaction(decoded, pki, org_ids, policy);
    EXPECT_EQ(decoded.Verdict(pki, org_ids, policy), reference);
    EXPECT_EQ(decoded.Verdict(pki, org_ids, policy), reference);
    codec::Reader r{BytesView(first.data())};
    const auto again = core::Transaction::Decode(r);
    ASSERT_NE(again, nullptr);
    codec::Writer second;
    again->Encode(second);
    EXPECT_EQ(second.data(), first.data());
    EXPECT_EQ(again->WireSize(), decoded.WireSize());

    decoded.id.bytes[0] ^= 0x01;  // no longer binds the contents
    decoded.InvalidateCache();
    decoded.Seal();
    const core::TxVerdict fresh =
        core::ValidateTransaction(decoded, pki, org_ids, policy);
    EXPECT_EQ(fresh, core::TxVerdict::kIdMismatch);
    EXPECT_EQ(decoded.Verdict(pki, org_ids, policy), fresh);
    if (fresh != reference) ++refreshed;
  };
  Rng rng(4242);
  int decoded_count = 0;
  for (int round = 0; round < 300; ++round) {
    Bytes mutated = encoded;
    const std::size_t mutations = 1 + rng.NextBelow(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<std::uint8_t>(rng.Next());
    }
    codec::Reader r{BytesView(mutated)};
    const auto decoded = core::Transaction::Decode(r);
    if (decoded) {
      ++decoded_count;
      exercise(*decoded);
    }
  }
  EXPECT_GT(decoded_count, 0);  // some mutations land in signatures or values
  EXPECT_GT(refreshed, 0);  // some mutants first failed on other than the id
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    // The id is the last field, so no strict prefix decodes.
    EXPECT_EQ(core::Transaction::Decode(r), nullptr) << "cut " << cut;
  }
}

TEST(FuzzDecode, MutatedCrdtStatesNeverCrash) {
  Rng rng(555);
  // Build a real state with all node types nested.
  crdt::CrdtObject obj("obj", crdt::CrdtType::kMap);
  for (int i = 0; i < 30; ++i) {
    crdt::Operation op;
    op.object_id = "obj";
    op.object_type = crdt::CrdtType::kMap;
    op.kind = i % 3 == 0 ? crdt::OpKind::kInsertValue
                         : (i % 3 == 1 ? crdt::OpKind::kAssignValue
                                       : crdt::OpKind::kAddValue);
    op.value_type = i % 3 == 0 ? crdt::CrdtType::kMap
                               : (i % 3 == 1 ? crdt::CrdtType::kMVRegister
                                             : crdt::CrdtType::kGCounter);
    op.path = {"k" + std::to_string(i % 5)};
    op.value = i % 3 == 2 ? crdt::Value(std::int64_t{1})
                          : crdt::Value("v" + std::to_string(i));
    op.clock = clk::OpClock{1 + static_cast<std::uint64_t>(i % 3),
                            1 + static_cast<std::uint64_t>(i)};
    obj.ApplyOperation(op);
  }
  const Bytes state = obj.EncodeState();
  for (int round = 0; round < 300; ++round) {
    Bytes mutated = state;
    const std::size_t mutations = 1 + rng.NextBelow(6);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBelow(mutated.size())] =
          static_cast<std::uint8_t>(rng.Next());
    }
    const auto decoded = crdt::CrdtObject::DecodeState("obj",
                                                       BytesView(mutated));
    if (decoded) {
      (void)decoded->Read();  // materialization must be safe too
      (void)decoded->EncodeState();
    }
  }
}

TEST(FuzzDecode, MutatedProposalsNeverCrash) {
  Rng rng(777);
  core::Proposal proposal;
  proposal.client = 42;
  proposal.contract = "voting";
  proposal.function = "Vote";
  proposal.args = {crdt::Value("e1"), crdt::Value(std::int64_t{1}),
                   crdt::Value(3.5), crdt::Value(true)};
  proposal.clock = clk::OpClock{42, 7};
  codec::Writer w;
  proposal.Encode(w);
  const Bytes encoded = w.Take();
  for (int round = 0; round < 300; ++round) {
    Bytes mutated = encoded;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<std::uint8_t>(rng.Next());
    codec::Reader r{BytesView(mutated)};
    const auto decoded = core::Proposal::Decode(r);
    if (decoded) (void)decoded->Digest();
  }
  // Truncations.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    codec::Reader r{BytesView(encoded.data(), cut)};
    (void)core::Proposal::Decode(r);
  }
}

TEST(FuzzDecode, MutatedVectorClocksNeverCrash) {
  Rng rng(888);
  clk::VectorClock vc;
  for (int i = 0; i < 10; ++i) vc.Tick(rng.NextBelow(5));
  codec::Writer w;
  vc.Encode(w);
  const Bytes encoded = w.Take();
  for (int round = 0; round < 200; ++round) {
    Bytes mutated = encoded;
    mutated[rng.NextBelow(mutated.size())] =
        static_cast<std::uint8_t>(rng.Next());
    codec::Reader r{BytesView(mutated)};
    const auto decoded = clk::VectorClock::Decode(r);
    if (decoded) (void)decoded->ToString();
  }
}

// ---------------------------------------------------------------------------
// MiniLevel files. A torn write or a flipped bit on disk is hostile input
// too: whatever the WAL, an SSTable or the MANIFEST holds, Open must return
// an error Status or a store whose every read completes, and no allocation
// may exceed the largest file in the store.

namespace fs = std::filesystem;

Bytes ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

/// Writes `bytes` over the start of an existing file without truncating it
/// first, so rewriting a file of the same size stays cheap.
void OverwriteFile(const fs::path& path, BytesView bytes) {
  std::fstream out(path, std::ios::in | std::ios::out | std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string SampleKey(int i) {
  std::string key = std::to_string(i);
  return "k/" + std::string(4 - key.size(), '0') + key;
}

/// Two flushed SSTables of ~10 KiB each (larger than a file stream's
/// buffer, so the allocation bound below is the files' and not the
/// stream's), the MANIFEST listing them, and a WAL tail holding a
/// rewrite, a delete and fresh keys: every MiniLevel file kind.
class MiniLevelFiles {
 public:
  static constexpr int kKeys = 300;

  // The process id keeps the stores of parallel test processes apart.
  MiniLevelFiles()
      : dir_(fs::temp_directory_path() /
             ("fuzz_minilevel_" + std::to_string(getpid()))) {
    fs::remove_all(dir_);
    ledger::MiniLevelOptions options;
    options.memtable_flush_bytes = 12 * 1024;
    options.compaction_trigger = 100;
    {
      auto db = ledger::MiniLevel::Open(dir_.string(), options);
      EXPECT_TRUE(db.ok()) << db.message();
      for (int i = 0; i < kKeys; ++i) {
        const std::string value(60, static_cast<char>('a' + i % 26));
        EXPECT_TRUE(db.value()->Put(SampleKey(i), ToBytes(value)).ok());
      }
      EXPECT_TRUE(db.value()->Put(SampleKey(3), ToBytes("rewritten")).ok());
      EXPECT_TRUE(db.value()->Delete(SampleKey(4)).ok());
      EXPECT_GE(db.value()->sstable_count(), 2u);
      EXPECT_GT(db.value()->memtable_entries(), 0u);
    }
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files_[entry.path().filename().string()] = ReadFile(entry.path());
    }
  }
  ~MiniLevelFiles() { fs::remove_all(dir_); }

  const std::map<std::string, Bytes>& files() const { return files_; }
  fs::path path(const std::string& name) const { return dir_ / name; }

  /// The largest file in the store while `name` holds `size` bytes.
  std::size_t LargestFile(const std::string& name, std::size_t size) const {
    for (const auto& [other, contents] : files_) {
      if (other != name) size = std::max(size, contents.size());
    }
    return size;
  }

  /// Opens the store as the files now stand and reads every source. Returns
  /// the largest allocation the open and the reads made.
  std::size_t OpenAndRead() const {
    return LargestAllocDuring([&] {
      auto db = ledger::MiniLevel::Open(dir_.string());
      if (!db.ok()) {
        EXPECT_FALSE(db.message().empty());
        return;
      }
      const ledger::MiniLevel& store = *db.value();
      for (int i = 0; i < kKeys + 10; i += 7) (void)store.Get(SampleKey(i));
      const auto visit = [](std::string_view, BytesView) { return true; };
      store.ScanPrefix("", visit);
      store.ScanPrefix("k/01", visit);
      (void)store.ApproximateCount();
    });
  }

 private:
  fs::path dir_;
  std::map<std::string, Bytes> files_;
};

TEST(FuzzDecode, MiniLevelFilesNeverCrashOrHang) {
  MiniLevelFiles store;
  ASSERT_FALSE(HasFailure());
  std::size_t sstables = 0;
  for (const auto& [name, bytes] : store.files()) {
    if (name.rfind("sst_", 0) == 0) {
      ++sstables;
      EXPECT_GT(bytes.size(), 8u * 1024) << name;
    }
  }
  ASSERT_GE(sstables, 2u);
  ASSERT_TRUE(store.files().contains("MANIFEST"));
  ASSERT_FALSE(store.files().at("wal.log").empty());

  Rng rng(4242);
  for (const auto& [name, pristine] : store.files()) {
    const fs::path path = store.path(name);
    const std::size_t largest = store.LargestFile(name, pristine.size());
    for (int round = 0; round < 60; ++round) {
      Bytes mutated = pristine;
      MutateBytes(rng, mutated, 8);
      OverwriteFile(path, BytesView(mutated));
      EXPECT_LE(store.OpenAndRead(), largest) << name << " round " << round;
    }
    OverwriteFile(path, BytesView(pristine));
    // Every truncation, longest first, so each one only shrinks the file.
    for (std::size_t cut = pristine.size(); cut-- > 0;) {
      fs::resize_file(path, cut);
      EXPECT_LE(store.OpenAndRead(), store.LargestFile(name, cut))
          << name << " cut " << cut;
    }
    {
      std::ofstream restore(path, std::ios::binary | std::ios::trunc);
      restore.write(reinterpret_cast<const char*>(pristine.data()),
                    static_cast<std::streamsize>(pristine.size()));
    }
  }
}

}  // namespace
}  // namespace orderless
