// Simulated Public Key Infrastructure.
//
// The paper authenticates all messages with a standard PKI (X.509 + ECDSA).
// Running fully offline we substitute a keyed-hash scheme:
//
//   signature = SHA256(secret ‖ context ‖ message)
//
// Verification goes through a Pki registry that owns every secret — a
// "trusted certificate authority oracle". Unforgeability holds inside the
// simulation because adversarial code in this repository only ever holds its
// *own* PrivateKey; there is no API to extract another identity's secret.
// Every protocol code path (hash, sign, attach, verify, reject-on-mismatch)
// is identical to what a real signature scheme would exercise.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace orderless::crypto {

/// Stable identity of a key pair within one network.
using KeyId = std::uint64_t;

/// A signature is a 32-byte keyed hash.
using Signature = Digest;

/// The private half of an identity. Holders can sign; nobody else can.
class PrivateKey {
 public:
  PrivateKey() = default;
  KeyId id() const { return id_; }

  /// Signs `message` bound to a domain-separation `context` string.
  Signature Sign(std::string_view context, BytesView message) const;
  Signature Sign(std::string_view context, const Digest& digest) const;

 private:
  friend class Pki;
  PrivateKey(KeyId id, Digest secret) : id_(id), secret_(secret) {}
  KeyId id_ = 0;
  Digest secret_;
};

/// Key registry: generates identities and verifies signatures.
class Pki {
 public:
  Pki() = default;
  Pki(const Pki&) = delete;
  Pki& operator=(const Pki&) = delete;

  /// Creates a new identity; `name` only aids debugging.
  PrivateKey Generate(const std::string& name);

  /// Verifies that `signature` was produced by `signer` over (context,
  /// message). Unknown signers verify as false.
  bool Verify(KeyId signer, std::string_view context, BytesView message,
              const Signature& signature) const;
  bool Verify(KeyId signer, std::string_view context, const Digest& digest,
              const Signature& signature) const;

  /// One signature check of a batch verification; `message` must stay alive
  /// until VerifyBatch returns.
  struct BatchItem {
    KeyId signer = 0;
    std::string_view context;
    BytesView message;
    Signature signature;
  };

  /// Verifies `n` independent signatures, writing each item's verdict to
  /// valid_out[i]. Accept/reject decisions are exactly those of calling
  /// Verify() per item — unknown signers are false without hashing. Tallies
  /// the call in batch::Counts(). Returns true iff every item verified.
  bool VerifyBatch(const BatchItem* items, std::size_t n,
                   bool* valid_out) const;

  /// Counts the distinct signers drawn from `allowed` whose signature
  /// verifies over (context, digest). Each signer's first entry decides:
  /// later entries for the same signer are never verified, so a bad first
  /// signature is not rescued by a good duplicate. The q-of-n primitive
  /// behind quorum attestation: duplicate entries, unknown keys and invalid
  /// signatures all contribute zero.
  std::size_t CountValidDistinct(
      std::string_view context, const Digest& digest,
      const std::vector<std::pair<KeyId, Signature>>& signatures,
      const std::set<KeyId>& allowed) const;

  const std::string& NameOf(KeyId id) const;
  std::size_t size() const { return keys_.size(); }

 private:
  struct Entry {
    Digest secret;
    std::string name;
  };
  KeyId next_id_ = 1;
  std::unordered_map<KeyId, Entry> keys_;
};

}  // namespace orderless::crypto
