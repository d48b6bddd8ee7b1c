#include "core/transaction.h"

#include <algorithm>
#include <unordered_set>

namespace orderless::core {

void Proposal::Encode(codec::Writer& w) const {
  w.PutU64(client);
  w.PutString(contract);
  w.PutString(function);
  w.PutVarint(args.size());
  for (const auto& arg : args) arg.Encode(w);
  clock.Encode(w);
  w.PutBool(read_only);
}

std::optional<Proposal> Proposal::Decode(codec::Reader& r) {
  Proposal p;
  const auto client = r.GetU64();
  auto contract = r.GetString();
  auto function = r.GetString();
  const auto n_args = r.GetVarint();
  if (!client || !contract || !function || !n_args || *n_args > 4096) {
    return std::nullopt;
  }
  p.client = *client;
  p.contract = std::move(*contract);
  p.function = std::move(*function);
  for (std::uint64_t i = 0; i < *n_args; ++i) {
    auto v = crdt::Value::Decode(r);
    if (!v) return std::nullopt;
    p.args.push_back(std::move(*v));
  }
  const auto clock = clk::OpClock::Decode(r);
  const auto read_only = r.GetBool();
  if (!clock || !read_only) return std::nullopt;
  p.clock = *clock;
  p.read_only = *read_only;
  return p;
}

crypto::Digest Proposal::Digest() const {
  if (cached_) return cached_digest_;
  codec::Writer w;
  w.Reserve(32 + contract.size() + function.size() + args.size() * 16);
  Encode(w);
  cached_digest_ = crypto::Sha256::Hash(BytesView(w.data()));
  cached_wire_size_ = w.size();
  cached_ = true;
  return cached_digest_;
}

std::size_t Proposal::WireSize() const {
  if (!cached_) (void)Digest();  // one encode stamps both digest and size
  return cached_wire_size_;
}

crypto::Digest WriteSetDigest(const std::vector<crdt::Operation>& ops) {
  codec::Writer w;
  w.Reserve(16 + ops.size() * 64);
  crdt::EncodeOperations(ops, w);
  return crypto::Sha256::Hash(BytesView(w.data()));
}

crypto::Digest EndorsementMessage(const crypto::Digest& proposal_digest,
                                  const crypto::Digest& writeset_digest) {
  crypto::Sha256 h;
  h.Update(proposal_digest.View());
  h.Update(writeset_digest.View());
  return h.Finalize();
}

crypto::Digest Transaction::ComputeId(const crypto::Digest& proposal_digest,
                                      const crypto::Digest& writeset_digest) {
  crypto::Sha256 h;
  h.Update("orderless.txid");
  h.Update(proposal_digest.View());
  h.Update(writeset_digest.View());
  return h.Finalize();
}

std::shared_ptr<Transaction> Transaction::Assemble(
    Proposal proposal, std::vector<crdt::Operation> ops,
    std::vector<Endorsement> endorsements,
    const crypto::PrivateKey& client_key) {
  auto tx = std::make_shared<Transaction>();
  tx->proposal = std::move(proposal);
  tx->ops = std::move(ops);
  tx->endorsements = std::move(endorsements);
  tx->id = ComputeId(tx->ProposalDigest(), tx->OpsDigest());
  tx->client_signature = client_key.Sign(kTxContext, tx->id);
  // The client still holds the only reference: one Transaction object is
  // shared across the q commit recipients (and re-shared by gossip), so
  // seal it before it leaves this lane.
  tx->Seal();
  return tx;
}

void Transaction::Seal() const {
  (void)EncodedBody();
  (void)ProposalDigest();
  (void)OpsDigest();
}

void Transaction::Encode(codec::Writer& w) const {
  w.PutRaw(EncodedBody());
}

BytesView Transaction::EncodedBody() const {
  if (!cached_encoding_) {
    codec::Writer w;
    w.Reserve(proposal.WireSize() + ops.size() * 64 +
              endorsements.size() * 48 + 96);
    proposal.Encode(w);
    crdt::EncodeOperations(ops, w);
    // The simulated wire size counts the proposal and write-set as encoded,
    // 40 bytes per endorsement (org id + signature) and 80 for the client
    // signature, the id and framing.
    cached_wire_size_ = w.size() + endorsements.size() * 40 + 32 + 32 + 16;
    w.PutVarint(endorsements.size());
    for (const Endorsement& endorsement : endorsements) {
      w.PutU64(endorsement.org);
      w.PutBytes(endorsement.signature.View());
    }
    w.PutBytes(client_signature.View());
    w.PutBytes(id.View());
    cached_encoding_ = std::make_shared<const Bytes>(w.Take());
  }
  return BytesView(*cached_encoding_);
}

std::shared_ptr<const Bytes> Transaction::SharedEncoding() const {
  (void)EncodedBody();
  return cached_encoding_;
}

crypto::Digest Transaction::ProposalDigest() const { return proposal.Digest(); }

crypto::Digest Transaction::OpsDigest() const {
  if (!ops_digest_cached_) {
    cached_ops_digest_ = WriteSetDigest(ops);
    ops_digest_cached_ = true;
  }
  return cached_ops_digest_;
}

namespace {
bool ReadDigest(codec::Reader& r, crypto::Digest& out) {
  const auto bytes = r.GetBytes();
  if (!bytes || bytes->size() != out.bytes.size()) return false;
  std::copy(bytes->begin(), bytes->end(), out.bytes.begin());
  return true;
}
}  // namespace

std::shared_ptr<Transaction> Transaction::Decode(codec::Reader& r) {
  auto tx = std::make_shared<Transaction>();
  auto proposal = Proposal::Decode(r);
  if (!proposal) return nullptr;
  tx->proposal = std::move(*proposal);
  auto ops = crdt::DecodeOperations(r);
  if (!ops) return nullptr;
  tx->ops = std::move(*ops);
  const auto n_endorsements = r.GetVarint();
  if (!n_endorsements || *n_endorsements > 4096) return nullptr;
  for (std::uint64_t i = 0; i < *n_endorsements; ++i) {
    Endorsement endorsement;
    const auto org = r.GetU64();
    if (!org || !ReadDigest(r, endorsement.signature)) return nullptr;
    endorsement.org = *org;
    tx->endorsements.push_back(endorsement);
  }
  if (!ReadDigest(r, tx->client_signature) || !ReadDigest(r, tx->id)) {
    return nullptr;
  }
  return tx;
}

std::size_t Transaction::WireSize() const {
  (void)EncodedBody();  // the single encode records the wire size
  return cached_wire_size_;
}

std::string_view TxVerdictName(TxVerdict v) {
  switch (v) {
    case TxVerdict::kValid:
      return "valid";
    case TxVerdict::kBadClientSignature:
      return "bad-client-signature";
    case TxVerdict::kInsufficientEndorsements:
      return "insufficient-endorsements";
    case TxVerdict::kUnknownEndorser:
      return "unknown-endorser";
    case TxVerdict::kDuplicateEndorser:
      return "duplicate-endorser";
    case TxVerdict::kBadEndorsementSignature:
      return "bad-endorsement-signature";
    case TxVerdict::kIdMismatch:
      return "id-mismatch";
  }
  return "?";
}

TxVerdict ValidateTransaction(const Transaction& tx, const crypto::Pki& pki,
                              const std::set<crypto::KeyId>& organization_keys,
                              const EndorsementPolicy& policy) {
  // The transaction id must really bind this proposal and write-set; a
  // tampered write-set changes the digest and voids everything below.
  const crypto::Digest proposal_digest = tx.ProposalDigest();
  const crypto::Digest ws_digest = tx.OpsDigest();
  if (Transaction::ComputeId(proposal_digest, ws_digest) != tx.id) {
    return TxVerdict::kIdMismatch;
  }
  const crypto::Digest message = EndorsementMessage(proposal_digest, ws_digest);

  // Verify the client signature and every endorsement in one VerifyBatch
  // call, then report the first failure in endorsement order.
  // The structural checks (unknown signer, duplicate) don't depend on
  // signature outcomes, so they are scanned first: a signature failure wins
  // only if it sits at an earlier index than the first structural failure,
  // and endorsements past that failure are never verified.
  const std::size_t n = tx.endorsements.size();
  std::size_t structural_pos = n;
  TxVerdict structural_verdict = TxVerdict::kValid;
  std::unordered_set<crypto::KeyId> seen;
  seen.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!organization_keys.contains(tx.endorsements[i].org)) {
      structural_pos = i;
      structural_verdict = TxVerdict::kUnknownEndorser;
      break;
    }
    if (!seen.insert(tx.endorsements[i].org).second) {
      structural_pos = i;
      structural_verdict = TxVerdict::kDuplicateEndorser;
      break;
    }
  }
  std::vector<crypto::Pki::BatchItem> items;
  items.reserve(1 + structural_pos);
  items.push_back(crypto::Pki::BatchItem{tx.proposal.client, kTxContext,
                                         tx.id.View(), tx.client_signature});
  for (std::size_t i = 0; i < structural_pos; ++i) {
    items.push_back(crypto::Pki::BatchItem{tx.endorsements[i].org,
                                           kEndorseContext, message.View(),
                                           tx.endorsements[i].signature});
  }
  std::unique_ptr<bool[]> valid(new bool[items.size()]());
  pki.VerifyBatch(items.data(), items.size(), valid.get());
  if (!valid[0]) return TxVerdict::kBadClientSignature;
  for (std::size_t i = 0; i < structural_pos; ++i) {
    if (!valid[1 + i]) return TxVerdict::kBadEndorsementSignature;
  }
  if (structural_pos < n) return structural_verdict;
  if (n < policy.q) return TxVerdict::kInsufficientEndorsements;
  return TxVerdict::kValid;
}

crypto::Digest Receipt::SignedMessage(const crypto::Digest& tx_id, bool valid,
                                      const crypto::Digest& block_hash) {
  crypto::Sha256 h;
  h.Update(tx_id.View());
  h.Update(valid ? "1" : "0");
  h.Update(block_hash.View());
  return h.Finalize();
}

Receipt Receipt::Make(const crypto::Digest& tx_id, bool valid,
                      const crypto::Digest& block_hash,
                      const crypto::PrivateKey& org_key) {
  Receipt r;
  r.tx_id = tx_id;
  r.valid = valid;
  r.org = org_key.id();
  r.block_hash = block_hash;
  r.signature = org_key.Sign(kReceiptContext,
                             SignedMessage(tx_id, valid, block_hash));
  return r;
}

bool Receipt::Verify(const crypto::Pki& pki) const {
  return pki.Verify(org, kReceiptContext,
                    SignedMessage(tx_id, valid, block_hash), signature);
}

}  // namespace orderless::core
