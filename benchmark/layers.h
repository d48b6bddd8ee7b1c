// Per-layer measurement from outside the program: timing probes around the
// calls the benchmark makes into each layer's public functions, and replays
// of a run's committed transactions through the codec, crypto, validation,
// CRDT and ledger layers. Used only by traced repetitions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "core/contract.h"
#include "core/policy.h"
#include "crypto/sha256.h"
#include "ledger/cache.h"
#include "ledger/ledger.h"
#include "obs/trace.h"

namespace orderless::crypto {
class Pki;
}

namespace orderless::bench {

struct RepResult;

/// This binary replaces the global operator new with a counting one;
/// counting stays off except around a traced run phase.
void SetAllocCounting(bool on);
std::uint64_t AllocCount();

/// Contract invocations and their host time. Organization lanes invoke
/// concurrently in parallel runs, hence relaxed atomics rather than a lock.
struct ContractTally {
  std::atomic<std::uint64_t> invokes{0};
  std::atomic<std::uint64_t> ns{0};
};

/// Wraps `inner` so every Invoke (including the CRDT reads it makes through
/// its ReadContext) is counted and timed into `tally`.
std::shared_ptr<const core::SmartContract> TimeContract(
    std::shared_ptr<const core::SmartContract> inner, ContractTally& tally);

const char* KernelName(crypto::batch::Kernel kernel);

/// The event kinds critical-path reconstruction needs (what a traced run
/// keeps when recording every kind overflows the tracer).
std::uint32_t CriticalPathKindMask();

/// leg.<segment>.mean_ms and leg.<segment>.critical_share for every
/// obs::Segment, from the traced buffer's timelines (0 for a leg no
/// timeline has evidence of). Means rather than medians: several legs are
/// fixed service times whose median never moves, while the mean carries
/// the queueing in front of them.
void AddCriticalPathLegs(const obs::Tracer& tracer, RepResult& out);

struct ReplayInputs {
  /// Canonical encodings of the observed org's commits, in commit order.
  const std::vector<Bytes>* committed = nullptr;
  const crypto::Pki* pki = nullptr;
  std::set<crypto::KeyId> org_keys;
  core::EndorsementPolicy policy;
  ledger::LedgerOptions ledger_options;
  /// The observed org's final CRDT state.
  const ledger::CrdtCache* observed = nullptr;
  std::uint64_t seed = 0;  // draws the permutation replay's order
};

/// Adds the codec, crypto (replay half), validate, crdt and ledger values.
/// Output checks: every transaction decodes, re-encodes to the same bytes,
/// re-validates as kValid and re-verifies; and the observed org's state of
/// every touched object equals both an in-order and a seeded-permutation
/// replay of its commits.
void ReplayLayers(const ReplayInputs& in, RepResult& out);

}  // namespace orderless::bench
