#include "core/checkpoint.h"

#include <algorithm>

namespace orderless::core {

namespace {

/// Encodes everything the digest covers — all fields except the digest and
/// signature — in one canonical order. Encode() and ComputeDigest() both go
/// through here so the bytes hashed are exactly the bytes shipped.
void EncodeSignedFields(const Checkpoint& ckpt, codec::Writer& w) {
  w.PutU64(ckpt.seq);
  w.PutU64(ckpt.origin);
  w.PutU64(ckpt.chain_height);
  w.PutRaw(ckpt.chain_head.View());
  w.PutU64(ckpt.valid_count);
  w.PutU64(ckpt.valid_xor);
  w.PutU32(static_cast<std::uint32_t>(ckpt.covered.size()));
  for (const Checkpoint::CoveredTx& tx : ckpt.covered) {
    w.PutRaw(tx.id.View());
    w.PutBool(tx.valid);
  }
  w.PutU32(static_cast<std::uint32_t>(ckpt.objects.size()));
  for (const auto& [object_id, state] : ckpt.objects) {
    w.PutString(object_id);
    w.PutBytes(BytesView(state));
  }
}

bool GetDigest(codec::Reader& r, crypto::Digest& out) {
  for (std::size_t i = 0; i < out.bytes.size(); ++i) {
    const auto b = r.GetU8();
    if (!b) return false;
    out.bytes[i] = *b;
  }
  return true;
}

}  // namespace

void Checkpoint::Encode(codec::Writer& w) const {
  EncodeSignedFields(*this, w);
  w.PutRaw(digest.View());
  w.PutRaw(signature.View());
}

std::shared_ptr<Checkpoint> Checkpoint::Decode(codec::Reader& r) {
  auto ckpt = std::make_shared<Checkpoint>();
  const auto seq = r.GetU64();
  const auto origin = r.GetU64();
  const auto chain_height = r.GetU64();
  if (!seq || !origin || !chain_height) return nullptr;
  ckpt->seq = *seq;
  ckpt->origin = *origin;
  ckpt->chain_height = *chain_height;
  if (!GetDigest(r, ckpt->chain_head)) return nullptr;
  const auto valid_count = r.GetU64();
  const auto valid_xor = r.GetU64();
  const auto covered_count = r.GetU32();
  if (!valid_count || !valid_xor || !covered_count) return nullptr;
  ckpt->valid_count = *valid_count;
  ckpt->valid_xor = *valid_xor;
  // Reserve guard: a flipped count byte must not drive a huge allocation.
  // Each covered entry occupies at least 33 wire bytes (digest + verdict),
  // so the remaining buffer bounds any honest count.
  ckpt->covered.reserve(
      std::min<std::size_t>(*covered_count, r.remaining() / 33));
  for (std::uint32_t i = 0; i < *covered_count; ++i) {
    CoveredTx tx;
    if (!GetDigest(r, tx.id)) return nullptr;
    const auto valid = r.GetBool();
    if (!valid) return nullptr;
    tx.valid = *valid;
    ckpt->covered.push_back(tx);
  }
  const auto object_count = r.GetU32();
  if (!object_count) return nullptr;
  // No reservation: an entry can be two wire bytes (two empty lengths) but
  // is a (string, Bytes) pair in memory, so a count-based reserve could
  // outgrow the buffer. The vector grows only with entries actually read.
  for (std::uint32_t i = 0; i < *object_count; ++i) {
    auto object_id = r.GetString();
    auto state = r.GetBytes();
    if (!object_id || !state) return nullptr;
    ckpt->objects.emplace_back(std::move(*object_id), std::move(*state));
  }
  if (!GetDigest(r, ckpt->digest)) return nullptr;
  if (!GetDigest(r, ckpt->signature)) return nullptr;
  return ckpt;
}

crypto::Digest Checkpoint::ComputeDigest() const {
  codec::Writer w;
  EncodeSignedFields(*this, w);
  return crypto::Sha256::Hash(BytesView(w.data()));
}

void Checkpoint::Seal(const crypto::PrivateKey& key) {
  digest = ComputeDigest();
  signature = key.Sign(kCheckpointContext, digest);
}

bool Checkpoint::Verify(
    const crypto::Pki& pki,
    const std::set<crypto::KeyId>& organization_keys) const {
  if (!organization_keys.contains(origin)) return false;
  if (ComputeDigest() != digest) return false;
  return pki.Verify(origin, kCheckpointContext, digest, signature);
}

std::size_t Checkpoint::WireSizeBytes() const {
  // Fixed header + digest + signature, 33 bytes per covered id, and the
  // object snapshots at their encoded size.
  std::size_t size = 64 + 32 + 32 + 32 + covered.size() * 33;
  for (const auto& [object_id, state] : objects) {
    size += 8 + object_id.size() + state.size();
  }
  return size;
}

void CheckpointAttestation::Encode(codec::Writer& w) const {
  w.PutU64(attester);
  w.PutRaw(signature.View());
}

bool CheckpointAttestation::Decode(codec::Reader& r,
                                   CheckpointAttestation& out) {
  const auto attester = r.GetU64();
  if (!attester) return false;
  out.attester = *attester;
  return GetDigest(r, out.signature);
}

bool CheckpointAttestation::Verify(const crypto::Pki& pki,
                                   const crypto::Digest& digest) const {
  return pki.Verify(attester, kCheckpointAttestContext, digest, signature);
}

void AttestationSet::Encode(codec::Writer& w) const {
  w.PutRaw(ckpt_digest.View());
  w.PutU32(static_cast<std::uint32_t>(attestations.size()));
  for (const CheckpointAttestation& a : attestations) a.Encode(w);
}

bool AttestationSet::Decode(codec::Reader& r, AttestationSet& out) {
  if (!GetDigest(r, out.ckpt_digest)) return false;
  const auto count = r.GetU32();
  if (!count) return false;
  // Reserve guard: each attestation is 40 wire bytes, so the remaining
  // buffer bounds any honest count (flipped count bytes cannot force a
  // multi-gigabyte allocation).
  out.attestations.clear();
  out.attestations.reserve(
      std::min<std::size_t>(*count, r.remaining() / 40));
  for (std::uint32_t i = 0; i < *count; ++i) {
    CheckpointAttestation a;
    if (!CheckpointAttestation::Decode(r, a)) return false;
    out.attestations.push_back(a);
  }
  return true;
}

std::size_t AttestationSet::CountValid(
    const crypto::Pki& pki,
    const std::set<crypto::KeyId>& organization_keys) const {
  std::vector<std::pair<crypto::KeyId, crypto::Signature>> sigs;
  sigs.reserve(attestations.size());
  for (const CheckpointAttestation& a : attestations) {
    sigs.emplace_back(a.attester, a.signature);
  }
  return pki.CountValidDistinct(kCheckpointAttestContext, ckpt_digest, sigs,
                                organization_keys);
}

}  // namespace orderless::core
