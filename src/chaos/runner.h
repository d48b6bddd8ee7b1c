// Executes one chaos scenario: builds an OrderlessNet from the scenario's
// shape, schedules the fault script and a randomized mixed workload on the
// simulator, checks invariants continuously and at quiescence, and distills
// the whole run into an order-sensitive fingerprint so a seed can be checked
// for bit-identical replay.
#pragma once

#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/scenario.h"

namespace orderless::chaos {

struct ChaosRunResult {
  std::uint64_t seed = 0;
  // Workload accounting (never-Byzantine clients only feed liveness checks,
  // but all submissions are counted here).
  std::uint32_t submitted = 0;
  std::uint32_t committed = 0;
  std::uint32_t rejected = 0;
  std::uint32_t failed = 0;
  std::uint32_t unresolved = 0;  // no outcome by end of quiescence
  std::uint64_t commits_observed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t events_processed = 0;
  /// Digest over event/message totals and every organization's commit
  /// counters and chain head. Chain heads are order-sensitive, so two runs
  /// with the same fingerprint executed the same commit sequence.
  std::uint64_t fingerprint = 0;
  /// Hex hash-chain head per organization, in org order — the raw material
  /// behind `fingerprint`, kept separately so tests can pinpoint *where* two
  /// runs diverged instead of just that they did.
  std::vector<std::string> org_chain_heads;
  /// Checkpoint / catch-up counters per organization (empty mirrors of zeros
  /// when the scenario runs without checkpoints). The O(delta) assertions
  /// compare these across checkpoint-on and checkpoint-off replays.
  std::vector<core::CatchupStats> org_catchup;
  /// Overload, retry and catch-up counters summed over every organization
  /// and client (catch-up all zero without checkpoints).
  harness::RobustnessStats robustness;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string Summary() const;
};

/// Host-side execution knobs that must never change a run's outcome.
struct RunOptions {
  /// Optional observability hook (not owned). Recording is append-only and
  /// outcome-neutral: the determinism test replays the same scenario traced
  /// and untraced and asserts equal fingerprints and chain heads.
  obs::Tracer* tracer = nullptr;
  /// Simulation worker threads. Any value must yield the same fingerprint:
  /// the parallel determinism test replays scenarios at 1/2/4 threads and
  /// asserts identical fingerprints and chain heads.
  unsigned threads = 1;
};

/// The object ids the workload touches (what quiescent convergence covers).
std::vector<std::string> WorkloadObjects();

/// Runs `scenario` to completion on a fresh simulated network.
ChaosRunResult RunScenario(const Scenario& scenario);
ChaosRunResult RunScenario(const Scenario& scenario,
                           const RunOptions& options);

}  // namespace orderless::chaos
