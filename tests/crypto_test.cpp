#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/pki.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace orderless::crypto {
namespace {

// Deterministic test-local generator (no <random> to keep runs identical
// across standard libraries).
std::uint64_t SplitMix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(Sha256, KnownVectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(Sha256::Hash(std::string_view("")).Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::Hash(std::string_view("abc")).Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      Sha256::Hash(std::string_view(
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .Hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finalize().Hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog multiple times, enough to "
      "cross several 64-byte block boundaries in the compression function";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(std::string_view(data).substr(0, split));
    h.Update(std::string_view(data).substr(split));
    EXPECT_EQ(h.Finalize(), Sha256::Hash(std::string_view(data)));
  }
}

TEST(Sha256, DigestOrderingAndPrefix) {
  const Digest a = Sha256::Hash(std::string_view("a"));
  const Digest b = Sha256::Hash(std::string_view("b"));
  EXPECT_NE(a, b);
  EXPECT_NE(a.Prefix64(), b.Prefix64());
  EXPECT_EQ(Digest::FromHexOrZero(a.Hex()), a);
}

TEST(Pki, SignAndVerify) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const Bytes message = ToBytes("transfer 10 coins");
  const Signature sig = alice.Sign("ctx", BytesView(message));
  EXPECT_TRUE(pki.Verify(alice.id(), "ctx", BytesView(message), sig));
}

TEST(Pki, RejectsWrongSigner) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const PrivateKey bob = pki.Generate("bob");
  const Bytes message = ToBytes("hello");
  const Signature sig = alice.Sign("ctx", BytesView(message));
  EXPECT_FALSE(pki.Verify(bob.id(), "ctx", BytesView(message), sig));
}

TEST(Pki, RejectsTamperedMessage) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const Bytes message = ToBytes("pay 10");
  const Bytes tampered = ToBytes("pay 99");
  const Signature sig = alice.Sign("ctx", BytesView(message));
  EXPECT_FALSE(pki.Verify(alice.id(), "ctx", BytesView(tampered), sig));
}

TEST(Pki, RejectsWrongContext) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const Bytes message = ToBytes("msg");
  const Signature sig = alice.Sign("endorse", BytesView(message));
  EXPECT_FALSE(pki.Verify(alice.id(), "commit", BytesView(message), sig));
}

TEST(Pki, RejectsUnknownSigner) {
  Pki pki;
  Pki other;
  const PrivateKey mallory = other.Generate("mallory");
  const Bytes message = ToBytes("msg");
  const Signature sig = mallory.Sign("ctx", BytesView(message));
  EXPECT_FALSE(pki.Verify(mallory.id(), "ctx", BytesView(message), sig));
}

TEST(Pki, ForgedSignatureFails) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const Bytes message = ToBytes("msg");
  Signature forged = alice.Sign("ctx", BytesView(message));
  forged.bytes[0] ^= 0x01;
  EXPECT_FALSE(pki.Verify(alice.id(), "ctx", BytesView(message), forged));
}

TEST(Pki, NamesAreTracked) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  EXPECT_EQ(pki.NameOf(alice.id()), "alice");
  EXPECT_EQ(pki.NameOf(9999), "<unknown>");
  EXPECT_EQ(pki.size(), 1u);
}

// ---------------------------------------------------------------------------
// Padding boundaries: 55 bytes is the longest single-block message, 56 forces
// the length word into a second block, 64 is an exact block, 65 spills one
// byte. Expected digests are from the FIPS 180-4 reference implementation.

TEST(Sha256, PaddingBoundaryVectors) {
  const struct {
    std::size_t len;
    const char* hex;
  } kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
  };
  for (const auto& v : kVectors) {
    const std::string input(v.len, 'a');
    EXPECT_EQ(Sha256::Hash(std::string_view(input)).Hex(), v.hex)
        << "length " << v.len;
  }
}

// The SHA-NI kernel must compress exactly like the portable scalar one:
// random chaining states (not just the IV) over 1-5 consecutive blocks, so
// multi-block calls that keep the state in registers are covered too. The
// FIPS vectors above run on whichever kernel this CPU selects.
TEST(Sha256, ShaNiCompressionMatchesScalar) {
#if defined(__x86_64__) || defined(_M_X64)
  if (!batch::CpuHasShaNi()) GTEST_SKIP() << "CPU has no SHA-NI";
  std::uint64_t rng = 0x5eed;
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t scalar[8];
    for (auto& word : scalar) word = static_cast<std::uint32_t>(SplitMix(rng));
    std::uint32_t sha_ni[8];
    std::memcpy(sha_ni, scalar, sizeof scalar);
    const std::size_t nblocks = 1 + static_cast<std::size_t>(trial % 5);
    Bytes blocks(64 * nblocks);
    for (auto& b : blocks) b = static_cast<std::uint8_t>(SplitMix(rng));
    internal::CompressScalar(scalar, blocks.data(), nblocks);
    internal::CompressShaNi(sha_ni, blocks.data(), nblocks);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(sha_ni[i], scalar[i])
          << "trial " << trial << " blocks " << nblocks << " word " << i;
    }
  }
#else
  GTEST_SKIP() << "SHA-NI kernel is x86-64 only";
#endif
}

TEST(Pki, VerifyBatchMatchesScalarVerify) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const PrivateKey bob = pki.Generate("bob");
  Pki other;
  const PrivateKey mallory = other.Generate("mallory");

  const Bytes m1 = ToBytes("endorse tx 1");
  const Bytes m2 = ToBytes("endorse tx 2");
  const Bytes m3 = ToBytes("endorse tx 3");

  Signature tampered = bob.Sign("endorse", BytesView(m2));
  tampered.bytes[4] ^= 0x10;

  const std::vector<Pki::BatchItem> items = {
      {alice.id(), "endorse", BytesView(m1), alice.Sign("endorse",
                                                        BytesView(m1))},
      {bob.id(), "endorse", BytesView(m2), tampered},
      {bob.id(), "endorse", BytesView(m3), bob.Sign("endorse", BytesView(m3))},
      // Unknown signer: rejected without hashing. (`other` numbers its keys
      // from 1 as well, so mallory.id() would name alice here.)
      {9999, "endorse", BytesView(m1), mallory.Sign("endorse", BytesView(m1))},
      // Wrong context.
      {alice.id(), "commit", BytesView(m1), alice.Sign("endorse",
                                                       BytesView(m1))},
  };

  std::vector<bool> expected;
  for (const auto& item : items) {
    expected.push_back(pki.Verify(item.signer, item.context, item.message,
                                  item.signature));
  }
  std::vector<std::uint8_t> got(items.size(), 0xAA);
  const bool all = pki.VerifyBatch(items.data(), items.size(),
                                   reinterpret_cast<bool*>(got.data()));
  EXPECT_FALSE(all);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(got[i]), expected[i]) << "item " << i;
  }
}

// The benchmark's crypto.verify_sigs_per_tx and crypto.hashes_per_tx, and
// the verdict-table tests' call counts, read these tallies: one batch per
// call, every item a signature, one keyed hash per known signer (a bad
// signature is still hashed; an unknown signer is not). Counting off adds
// nothing.
TEST(Pki, VerifyBatchTalliesCallsItemsAndKnownSignerHashes) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  const PrivateKey bob = pki.Generate("bob");
  const KeyId unknown = 9999;  // never issued by `pki`
  const Bytes m = ToBytes("endorse tx");
  Signature bad = bob.Sign("endorse", BytesView(m));
  bad.bytes[0] ^= 0x01;
  const std::vector<Pki::BatchItem> items = {
      {alice.id(), "endorse", BytesView(m), alice.Sign("endorse", BytesView(m))},
      {bob.id(), "endorse", BytesView(m), bad},
      {bob.id(), "endorse", BytesView(m), bob.Sign("endorse", BytesView(m))},
      {unknown, "endorse", BytesView(m), alice.Sign("endorse", BytesView(m))},
  };
  bool valid[4];

  batch::SetCountDispatch(true);
  const batch::DispatchCounts before = batch::Counts();
  EXPECT_FALSE(pki.VerifyBatch(items.data(), items.size(), valid));
  const batch::DispatchCounts after = batch::Counts();
  batch::SetCountDispatch(false);
  EXPECT_EQ(after.verify_batches - before.verify_batches, 1u);
  EXPECT_EQ(after.verify_sigs - before.verify_sigs, 4u);
  EXPECT_EQ(after.hashes - before.hashes, 3u);
  EXPECT_TRUE(valid[0]);
  EXPECT_FALSE(valid[1]);
  EXPECT_TRUE(valid[2]);
  EXPECT_FALSE(valid[3]);

  pki.VerifyBatch(items.data(), items.size(), valid);
  const batch::DispatchCounts off = batch::Counts();
  EXPECT_EQ(off.verify_batches, after.verify_batches);
  EXPECT_EQ(off.verify_sigs, after.verify_sigs);
  EXPECT_EQ(off.hashes, after.hashes);
}

TEST(Pki, VerifyBatchAllValid) {
  Pki pki;
  const PrivateKey alice = pki.Generate("alice");
  std::vector<Bytes> messages;
  std::vector<Pki::BatchItem> items;
  for (int i = 0; i < 9; ++i) {
    messages.push_back(ToBytes("message " + std::to_string(i)));
  }
  for (int i = 0; i < 9; ++i) {
    items.push_back({alice.id(), "ctx", BytesView(messages[i]),
                     alice.Sign("ctx", BytesView(messages[i]))});
  }
  std::vector<std::uint8_t> got(items.size(), 0);
  EXPECT_TRUE(pki.VerifyBatch(items.data(), items.size(),
                              reinterpret_cast<bool*>(got.data())));
  for (const auto v : got) EXPECT_TRUE(static_cast<bool>(v));
}

TEST(Pki, VerifyBatchEmpty) {
  Pki pki;
  EXPECT_TRUE(pki.VerifyBatch(nullptr, 0, nullptr));
}

}  // namespace
}  // namespace orderless::crypto
