#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>

#include "codec/codec.h"
#include "common/rng.h"
#include "core/transaction.h"
#include "crypto/pki.h"
#include "crypto/sha256.h"
#include "ledger/kvstore.h"
#include "obs/timeline.h"
#include "workload.h"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace orderless::bench {

namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

class TimedContract final : public core::SmartContract {
 public:
  TimedContract(std::shared_ptr<const core::SmartContract> inner,
                ContractTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}

  const std::string& name() const override { return inner_->name(); }

  core::ContractResult Invoke(const core::ReadContext& state,
                              const std::string& function,
                              const core::Invocation& in) const override {
    const Clock::time_point start = Clock::now();
    core::ContractResult result = inner_->Invoke(state, function, in);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start)
                        .count();
    tally_.ns.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
    tally_.invokes.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

 private:
  std::shared_ptr<const core::SmartContract> inner_;
  ContractTally& tally_;
};

/// Replays are short and other tenants of the host only ever add time, so
/// each replay timing is the best of a few passes; every pass builds its
/// own inputs, so no cache from an earlier pass carries over.
constexpr int kReplayPasses = 3;

template <typename Pass>
double BestUs(Pass&& pass) {
  double best = pass();
  for (int i = 1; i < kReplayPasses; ++i) best = std::min(best, pass());
  return best;
}

std::vector<std::shared_ptr<core::Transaction>> DecodeAll(
    const std::vector<Bytes>& encoded) {
  std::vector<std::shared_ptr<core::Transaction>> txs;
  txs.reserve(encoded.size());
  for (const Bytes& bytes : encoded) {
    codec::Reader reader{BytesView(bytes)};
    txs.push_back(core::Transaction::Decode(reader));
  }
  return txs;
}

}  // namespace

const char* KernelName(crypto::batch::Kernel kernel) {
  switch (kernel) {
    case crypto::batch::Kernel::kAuto:
      return "auto";
    case crypto::batch::Kernel::kScalar:
      return "scalar";
    case crypto::batch::Kernel::kShaNi:
      return "sha_ni";
    case crypto::batch::Kernel::kWide4:
      return "wide4";
    case crypto::batch::Kernel::kWide8:
      return "wide8";
  }
  return "?";
}

void SetAllocCounting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t AllocCount() {
  return g_allocs.load(std::memory_order_relaxed);
}

std::shared_ptr<const core::SmartContract> TimeContract(
    std::shared_ptr<const core::SmartContract> inner, ContractTally& tally) {
  return std::make_shared<TimedContract>(std::move(inner), tally);
}

std::uint32_t CriticalPathKindMask() {
  using K = obs::EventKind;
  std::uint32_t mask = 0;
  for (const K kind :
       {K::kTxSubmit, K::kProposalSend, K::kEndorseExec, K::kEndorseReply,
        K::kWriteSetMatch, K::kCommitSend, K::kPipeAdmit, K::kValidate,
        K::kLedgerAppend, K::kReceipt, K::kTxOutcome}) {
    mask |= 1u << static_cast<unsigned>(kind);
  }
  return mask;
}

void AddCriticalPathLegs(const obs::Tracer& tracer, RepResult& out) {
  const obs::TimelineAnalysis analysis =
      obs::Analyze(obs::BuildTimelines(tracer.events()), /*slowest_n=*/0);
  for (std::size_t s = 0;
       s < static_cast<std::size_t>(obs::Segment::kSegmentCount); ++s) {
    const auto segment = static_cast<obs::Segment>(s);
    double mean = 0;
    double share = 0;
    for (const obs::PhaseStat& phase : analysis.phases) {
      if (phase.segment == segment) {
        mean = phase.dist.avg_ms;
        share = phase.critical_share;
      }
    }
    const std::string leg = "leg." + std::string(obs::SegmentName(segment));
    out.values[leg + ".mean_ms"] = mean;
    out.values[leg + ".critical_share"] = share;
  }
}

void ReplayLayers(const ReplayInputs& in, RepResult& out) {
  const std::vector<Bytes>& committed = *in.committed;
  const std::size_t n = committed.size();
  if (n == 0) {
    out.failures.push_back("replay: the observed org committed nothing");
    return;
  }
  const double txs = static_cast<double>(n);
  const auto decoded = DecodeAll(committed);
  if (std::any_of(decoded.begin(), decoded.end(),
                  [](const auto& tx) { return tx == nullptr; })) {
    out.failures.push_back("replay: a committed transaction did not decode");
    return;
  }

  // codec: decode, then encode cache-free decoded copies.
  const double decode_us = BestUs([&] {
    const Clock::time_point start = Clock::now();
    const auto copies = DecodeAll(committed);
    return UsSince(start);
  });
  std::vector<Bytes> reencoded(n);
  const double encode_us = BestUs([&] {
    const auto copies = DecodeAll(committed);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      codec::Writer w;
      copies[i]->Encode(w);
      reencoded[i] = w.Take();
    }
    return UsSince(start);
  });
  if (reencoded != committed) {
    out.failures.push_back("replay: re-encoding changed a transaction's bytes");
  }
  std::size_t bytes = 0;
  for (const Bytes& b : committed) bytes += b.size();
  out.values["codec.tx_bytes"] = static_cast<double>(bytes) / txs;
  out.values["codec.decode_us_per_tx"] = decode_us / txs;
  out.values["codec.encode_us_per_tx"] = encode_us / txs;

  // validate: fresh decoded copies, so no digest cache is warm.
  std::size_t valid = 0;
  const double validate_us = BestUs([&] {
    const auto copies = DecodeAll(committed);
    valid = 0;
    const Clock::time_point start = Clock::now();
    for (const auto& tx : copies) {
      valid += core::ValidateTransaction(*tx, *in.pki, in.org_keys,
                                         in.policy) == core::TxVerdict::kValid;
    }
    return UsSince(start);
  });
  out.values["validate.us_per_tx"] = validate_us / txs;
  out.values["validate.valid_ratio"] = static_cast<double>(valid) / txs;
  if (valid != n) {
    out.failures.push_back("replay: " + std::to_string(n - valid) +
                           " committed transactions no longer validate");
  }

  // crypto: the signature checks validation makes, one VerifyBatch per
  // transaction (client signature + every endorsement).
  std::vector<crypto::Digest> messages(n);
  std::vector<crypto::Pki::BatchItem> items;
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const core::Transaction& tx = *decoded[i];
    messages[i] = core::EndorsementMessage(tx.ProposalDigest(), tx.OpsDigest());
    first[i] = items.size();
    items.push_back({tx.proposal.client, core::kTxContext, tx.id.View(),
                     tx.client_signature});
    for (const core::Endorsement& e : tx.endorsements) {
      items.push_back(
          {e.org, core::kEndorseContext, messages[i].View(), e.signature});
    }
  }
  first[n] = items.size();
  std::unique_ptr<bool[]> ok(new bool[items.size()]());
  bool all_ok = true;
  const double verify_us = BestUs([&] {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      all_ok &= in.pki->VerifyBatch(items.data() + first[i],
                                    first[i + 1] - first[i],
                                    ok.get() + first[i]);
    }
    return UsSince(start);
  });
  out.values["crypto.verify_us_per_sig"] =
      verify_us / static_cast<double>(items.size());
  out.texts["crypto.kernel"] =
      KernelName(crypto::batch::ActiveKernel(1 + in.policy.q));
  if (!all_ok) {
    out.failures.push_back("replay: a committed signature no longer verifies");
  }

  // crdt: apply in commit order, then read every touched object.
  std::set<std::string> touched;
  std::size_t ops = 0;
  for (const auto& tx : decoded) {
    ops += tx->ops.size();
    for (const crdt::Operation& op : tx->ops) touched.insert(op.object_id);
  }
  std::unique_ptr<ledger::CrdtCache> in_order;
  const double apply_us = BestUs([&] {
    in_order = std::make_unique<ledger::CrdtCache>();
    const Clock::time_point start = Clock::now();
    for (const auto& tx : decoded) in_order->Apply(tx->ops);
    return UsSince(start);
  });
  // Enough reads to time even a one-object workload.
  const std::size_t rounds =
      std::max<std::size_t>(1, 1000 / std::max<std::size_t>(1, touched.size()));
  const double read_us = BestUs([&] {
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const std::string& id : touched) (void)in_order->Read(id);
    }
    return UsSince(start);
  });
  out.values["crdt.ops_per_tx"] = static_cast<double>(ops) / txs;
  out.values["crdt.apply_us_per_op"] =
      ops == 0 ? 0 : apply_us / static_cast<double>(ops);
  out.values["crdt.read_us_per_object"] =
      touched.empty()
          ? 0
          : read_us / static_cast<double>(rounds * touched.size());

  // Strong eventual consistency against a reference: the observed org's
  // state must equal any order of applying the same commits.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(in.seed ^ 0x5eedc0ffee15bad5ULL);
  rng.Shuffle(order);
  ledger::CrdtCache permuted;
  for (const std::size_t i : order) permuted.Apply(decoded[i]->ops);
  std::size_t diverged = 0;
  for (const std::string& id : touched) {
    const Bytes state = in.observed->EncodeObjectState(id);
    diverged += state != in_order->EncodeObjectState(id) ||
                state != permuted.EncodeObjectState(id);
  }
  if (diverged > 0) {
    out.failures.push_back("replay: " + std::to_string(diverged) +
                           " objects differ from the in-order or permuted "
                           "replay of the observed org's commits");
  }

  // ledger: the run's options on a fresh in-memory store. Self time is the
  // same commits without operations: everything Commit does but the CRDT
  // apply (a difference of two timings would drown in their noise).
  const auto commit_all = [&](bool with_ops) {
    static const std::vector<crdt::Operation> kNoOps;
    ledger::Ledger ledger(std::make_shared<ledger::MemKvStore>(),
                          in.ledger_options);
    const Clock::time_point start = Clock::now();
    for (const auto& tx : decoded) {
      ledger.Commit(tx->id, true, with_ops ? tx->ops : kNoOps);
    }
    return UsSince(start);
  };
  out.values["ledger.commit_us_per_tx"] =
      BestUs([&] { return commit_all(true); }) / txs;
  out.values["ledger.self_us_per_tx"] =
      BestUs([&] { return commit_all(false); }) / txs;
}

}  // namespace orderless::bench
