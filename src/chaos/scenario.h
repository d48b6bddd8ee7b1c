// Deterministic chaos scenarios: from a single 64-bit seed this module
// derives a complete randomized fault script — partitions that form and heal
// mid-run, global and per-link drop/duplicate/corrupt windows, organization
// crash-and-restart, Byzantine organization/client phases (paper §8/§9), and
// client churn. The same seed always derives the same scenario, and the
// runner replays it bit-identically (FoundationDB-style simulation testing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/org.h"
#include "sim/time.h"

namespace orderless::chaos {

enum class FaultKind : std::uint8_t {
  kPartitionSplit,     // assign every org/client a partition group
  kPartitionHeal,      // all groups merge back
  kLinkFaults,         // set global drop/duplicate/corrupt rates
  kLinkFaultsClear,    // restore a fault-free network
  kLinkFaultPair,      // degrade one org↔org pair (both directions)
  kLinkFaultPairClear,
  kOrgCrash,           // tear the organization down (ledger store survives)
  kOrgRestart,         // rebuild it from its persisted ledger and rejoin
  kOrgByzantineOn,     // enable a ByzantineOrgBehavior phase
  kOrgByzantineOff,
  kClientByzantineOn,  // enable a ByzantineClientBehavior phase
  kClientByzantineOff,
  kClientPause,        // churn: the client stops submitting
  kClientResume,
  kOverloadBurst,      // flood one org with synthetic proposals (admission
                       // control must shed; answers go to a dummy node)
};

std::string_view FaultKindName(FaultKind kind);

/// One step of the fault script. Only the fields relevant to `kind` are
/// meaningful; the rest stay at their defaults.
struct FaultEvent {
  sim::SimTime at = 0;
  FaultKind kind = FaultKind::kLinkFaultsClear;
  std::uint32_t target = 0;            // org or client index
  std::uint32_t peer = 0;              // second org of a link pair
  std::vector<std::uint32_t> groups;   // partition group per org, then client
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  core::ByzantineOrgBehavior org_behavior;
  core::ByzantineClientBehavior client_behavior;
  std::uint32_t burst_txs = 0;         // kOverloadBurst: proposals injected
  sim::SimTime burst_window = 0;       // kOverloadBurst: spread over this span

  std::string Describe() const;
};

/// Envelope the generator draws scenarios from.
struct ScenarioLimits {
  std::uint32_t min_orgs = 4;
  std::uint32_t max_orgs = 8;
  std::uint32_t num_clients = 6;
  std::uint32_t tx_count = 48;
  sim::SimTime duration = sim::Sec(12);   // submission window; faults end here
  sim::SimTime quiesce = sim::Sec(30);    // repair window before invariants
  std::uint32_t max_partition_windows = 2;
  std::uint32_t max_crash_windows = 2;
  std::uint32_t max_link_fault_windows = 2;
  bool allow_partitions = true;
  bool allow_crashes = true;
  bool allow_byzantine_orgs = true;
  bool allow_byzantine_clients = true;
  bool allow_client_churn = true;
  bool allow_overload_bursts = true;
  std::uint32_t max_overload_bursts = 2;
};

/// A fully-derived scenario: network shape, policy, and the fault script.
struct Scenario {
  std::uint64_t seed = 0;
  std::uint32_t num_orgs = 4;
  std::uint32_t num_clients = 6;
  core::EndorsementPolicy policy{2, 4};
  /// Byzantine-organization budget `f` the script respects. Safe scenarios
  /// keep q >= f+1 and n-q >= f (Theorem 8.1); the unsafe demo violates it.
  std::uint32_t byzantine_budget = 0;
  sim::SimTime duration = sim::Sec(12);
  sim::SimTime quiesce = sim::Sec(30);
  std::uint32_t tx_count = 48;
  /// Enable signed CRDT checkpoints + O(delta) catch-up on every org.
  /// Uniform per network: delta-only sync replies assume the requester can
  /// verify and install the checkpoint. Install requires q-of-n signed
  /// attestations from distinct organization keys, which keeps installs
  /// safe with up to f = n-q Byzantine organizations — so the generator can
  /// (and does) enable checkpoints in Byzantine-drawing scenarios.
  bool checkpoints = false;
  sim::SimTime checkpoint_interval = sim::Ms(1500);
  std::vector<FaultEvent> events;  // sorted by `at`
  /// Set when the script contains no disruption that can legitimately defeat
  /// a bounded-retry client (partitions, crashes, link faults, churn): then
  /// Theorem 8.1 liveness applies and every honest proposal must commit.
  bool liveness_checkable = true;

  /// Human-readable fault script (what `chaos_explorer` prints on failure).
  std::string Describe() const;
};

/// Derives the full scenario for `seed` within `limits`.
Scenario GenerateScenario(std::uint64_t seed, const ScenarioLimits& limits = {});

/// A deliberately mis-configured scenario: EP:{1 of 4} against f=1 Byzantine
/// organization that endorses incorrectly, violating q >= f+1. The safety
/// invariant checker must detect the resulting Byzantine-only commits.
Scenario MakeUnsafeScenario(std::uint64_t seed);

/// Checkpoint preset: one org spends most of the run partitioned away while
/// the rest commit the whole workload, then the partition heals late. With
/// checkpoints on, the isolated org must catch up via snapshot transfer +
/// delta replay — the O(delta) assertion compares its sync traffic against a
/// checkpoint-free run of the same scenario.
Scenario MakeLongPartitionScenario(std::uint64_t seed);

/// Checkpoint preset: one org crashes early and restarts late while clients
/// keep submitting. The restarted org recovers from its pruned ledger
/// (checkpoint-seeded, O(delta) replay) and then catches up over gossip.
Scenario MakeCrashRestartScenario(std::uint64_t seed);

/// Byzantine-catch-up preset: EP{3 of 6} with f = n-q = 2 actively hostile
/// organizations attacking the checkpoint layer (forged/equivocating
/// digests, dishonest attestation, stale-checkpoint replay, withheld
/// attestations, corrupted deltas) while one honest org spends most of the
/// run partitioned away. With quorum attestation on, the healed org must
/// still catch up in O(delta) via an honestly-attested checkpoint and no
/// honest org may ever install a forgery.
Scenario MakeByzantineCatchupScenario(std::uint64_t seed);

}  // namespace orderless::chaos
