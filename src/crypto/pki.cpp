#include "crypto/pki.h"

#include <cstring>

namespace orderless::crypto {

namespace {
Signature KeyedHash(const Digest& secret, std::string_view context,
                    BytesView message) {
  // Protocol signatures are secret (32) + separators (2) + a short context
  // + a digest, so they fit a stack buffer and hash as one update instead of
  // five (each incremental Update pays block-boundary bookkeeping). Larger
  // inputs stream. Identical byte stream, identical digest.
  constexpr std::size_t kStackLimit = 160;
  const std::size_t total =
      secret.bytes.size() + 2 + context.size() + message.size();
  if (total <= kStackLimit) {
    std::uint8_t buf[kStackLimit];
    std::uint8_t* p = buf;
    std::memcpy(p, secret.bytes.data(), secret.bytes.size());
    p += secret.bytes.size();
    *p++ = 0x1f;
    if (!context.empty()) {
      std::memcpy(p, context.data(), context.size());
      p += context.size();
    }
    *p++ = 0x1f;
    if (!message.empty()) std::memcpy(p, message.data(), message.size());
    return Sha256::Hash(BytesView(buf, total));
  }
  Sha256 h;
  h.Update(secret.View());
  h.Update("\x1f");
  h.Update(context);
  h.Update("\x1f");
  h.Update(message);
  return h.Finalize();
}
}  // namespace

Signature PrivateKey::Sign(std::string_view context, BytesView message) const {
  return KeyedHash(secret_, context, message);
}

Signature PrivateKey::Sign(std::string_view context, const Digest& digest) const {
  return KeyedHash(secret_, context, digest.View());
}

PrivateKey Pki::Generate(const std::string& name) {
  const KeyId id = next_id_++;
  // Derive the secret deterministically from the registry's sequence so that
  // simulations are reproducible; within the simulation the secret is still
  // unguessable by protocol code, which never sees this derivation.
  Sha256 h;
  h.Update("orderless-pki-secret");
  std::uint8_t id_bytes[8];
  for (int i = 0; i < 8; ++i) id_bytes[i] = static_cast<std::uint8_t>(id >> (8 * i));
  h.Update(BytesView(id_bytes, 8));
  h.Update(name);
  const Digest secret = h.Finalize();
  keys_.emplace(id, Entry{secret, name});
  return PrivateKey(id, secret);
}

bool Pki::Verify(KeyId signer, std::string_view context, BytesView message,
                 const Signature& signature) const {
  const auto it = keys_.find(signer);
  if (it == keys_.end()) return false;
  const Signature expected = KeyedHash(it->second.secret, context, message);
  return ConstantTimeEqual(expected.View(), signature.View());
}

bool Pki::Verify(KeyId signer, std::string_view context, const Digest& digest,
                 const Signature& signature) const {
  return Verify(signer, context, digest.View(), signature);
}

bool Pki::VerifyBatch(const BatchItem* items, std::size_t n,
                      bool* valid_out) const {
  bool all = true;
  std::size_t hashes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const BatchItem& item = items[i];
    const auto it = keys_.find(item.signer);
    bool ok = false;
    if (it != keys_.end()) {
      ++hashes;
      ok = ConstantTimeEqual(
          KeyedHash(it->second.secret, item.context, item.message).View(),
          item.signature.View());
    }
    valid_out[i] = ok;
    all = all && ok;
  }
  if (n > 0) batch::TallyVerify(n, hashes);  // no-op unless counting
  return all;
}

std::size_t Pki::CountValidDistinct(
    std::string_view context, const Digest& digest,
    const std::vector<std::pair<KeyId, Signature>>& signatures,
    const std::set<KeyId>& allowed) const {
  // The allowed/duplicate filters don't depend on verification outcomes,
  // so pre-filter, verify the survivors in one VerifyBatch call, and
  // count. Each allowed signer's first entry decides: a later entry for the
  // same signer is never verified, so [(A, bad), (A, good)] counts 0.
  std::set<KeyId> seen;
  std::vector<BatchItem> items;
  items.reserve(signatures.size());
  for (const auto& [signer, signature] : signatures) {
    if (!allowed.contains(signer)) continue;
    if (!seen.insert(signer).second) continue;
    items.push_back(BatchItem{signer, context, digest.View(), signature});
  }
  std::unique_ptr<bool[]> valid(new bool[items.size()]());
  VerifyBatch(items.data(), items.size(), valid.get());
  std::size_t count = 0;
  for (std::size_t i = 0; i < items.size(); ++i) count += valid[i] ? 1 : 0;
  return count;
}

const std::string& Pki::NameOf(KeyId id) const {
  static const std::string kUnknown = "<unknown>";
  const auto it = keys_.find(id);
  return it == keys_.end() ? kUnknown : it->second.name;
}

}  // namespace orderless::crypto
