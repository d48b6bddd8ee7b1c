// Deterministic, simulation-time-stamped tracing of the execute–commit–
// gossip pipeline.
//
// Every event carries a sim::SimTime timestamp (never wall clock), an actor
// (the sim::NodeId of the organization or client that emitted it) and a
// 64-bit transaction key (the Prefix64 of the proposal digest before the
// transaction is assembled, of the transaction id after). Recording appends
// a fixed-size POD record to a pre-reserved buffer: no RNG, no simulator
// events, no protocol decisions — so a traced run is bit-identical to an
// untraced one (enforced by tests/obs_determinism_test).
//
// Tracing is wired through sim::Simulation: components reach the tracer via
// `simulation.tracer()`, which is nullptr when tracing is disabled. The
// disabled hot path is a single pointer load and branch — zero heap
// allocations (asserted by bench/perf_hotpath's A/B alloc counter).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace orderless::obs {

/// One record kind per step of the transaction lifecycle (paper Fig. 1 plus
/// the gossip dissemination path).
enum class EventKind : std::uint8_t {
  kTxSubmit = 0,     // client: proposal submitted          (instant)
  kProposalSend,     // client → org, aux = org node        (instant)
  kEndorseExec,      // org: arrival → endorsement sent     (span)
  kEndorseReply,     // client, aux = org node              (instant)
  kWriteSetMatch,    // client: q matching write-sets; tx = tx id,
                     // aux = proposal-digest prefix (the link between the
                     // submit-phase key and the commit-phase key)
  kCommitSend,       // client → org, aux = org node        (instant)
  kValidate,         // org: signature validation, aux = 1 valid / 0 invalid
                     //                                     (span)
  kLedgerAppend,     // org: block appended, aux = valid    (instant)
  kCrdtApply,        // org: CRDT cache apply, aux = 32-bit FNV-1a of the
                     // first op's object id (0 = op-less)   (span)
  kGossipSend,       // org → peer, aux = peer node         (instant, flow out)
  kGossipRecv,       // org, aux = sender node              (instant, flow in)
  kReceipt,          // client: valid receipt, aux = org    (instant)
  kTxOutcome,        // client: submit → outcome, dur = latency,
                     // aux = TxStatus                      (span)
  kConverge,         // org: local apply of a tx first committed elsewhere,
                     // aux = lag in µs since the first apply anywhere
  kCkptSeal,         // org: checkpoint sealed; tx = digest prefix,
                     // aux = covered-tx count               (instant)
  kCkptSend,         // org → peer snapshot transfer; tx = digest prefix,
                     // aux = recipient node                 (instant)
  kCkptInstall,      // org: external checkpoint merged; tx = digest prefix,
                     // aux = origin key id                  (instant)
  kCkptPrune,        // org: storage reclaimed behind the frontier;
                     // tx = digest prefix, aux = rows pruned (instant)
  kCkptAttest,       // org: attestation signed for an announced checkpoint;
                     // tx = digest prefix, aux = origin key id (instant)
  kCkptReject,       // org: checkpoint refused; tx = digest prefix,
                     // aux = reason (1 = bad seal / missing attestation
                     // quorum at install, 2 = announce claims did not
                     // reproduce against local state)     (instant)
  kPipeAdmit,        // org: commit admitted into the intra-org commit
                     // stages (post-shedding), once per id until it
                     // finishes; aux = 0.                  (instant)
  kPipeDedup,        // org: dedup/admission stage service slice,
                     // aux = outcome (0 = fresh, 1 = already committed,
                     // 2 = already in flight)              (span)
  kKindCount,
};

/// aux values of kTxOutcome.
enum class TxStatus : std::uint64_t {
  kFailed = 0,
  kCommitted = 1,
  kRejected = 2,
  kRead = 3,
};

/// Lower-case stable name, used by exporters and `--trace-filter`.
std::string_view EventKindName(EventKind kind);

/// Fixed-size POD trace record (40 bytes).
struct TraceEvent {
  sim::SimTime ts = 0;   // span start for spans, event time for instants
  sim::SimTime dur = 0;  // 0 for instants
  std::uint64_t tx = 0;  // digest Prefix64 (0 = not tx-scoped)
  std::uint64_t aux = 0;
  std::uint32_t actor = 0;  // sim::NodeId
  EventKind kind = EventKind::kTxSubmit;
};

struct TracerConfig {
  /// Hard cap on buffered events; past it, records are counted but dropped
  /// (the exporters report the drop count). Bounds memory on long runs.
  std::size_t max_events = 4u << 20;
  /// Bitmask over EventKind; bit k set = record kind k. Defaults to all.
  std::uint32_t kind_mask = ~0u;
};

/// Parses a comma-separated `--trace-filter` list of kind names (e.g.
/// "gossip_send,validate,tx_outcome") into a kind mask. Unknown names are
/// ignored; an empty string yields the all-kinds mask.
std::uint32_t ParseKindMask(const std::string& filter);

/// Per-actor convergence-lag accumulator: the time from a transaction's
/// first CRDT apply anywhere in the network to its apply at this actor.
struct ConvergenceStats {
  std::uint64_t applies = 0;    // local applies observed
  std::uint64_t lag_sum_us = 0; // total lag over non-first applies
  std::uint64_t lag_max_us = 0;
  double AvgLagMs() const {
    return applies == 0 ? 0.0
                        : static_cast<double>(lag_sum_us) / 1000.0 /
                              static_cast<double>(applies);
  }
};

/// Mean/min/max/count of one lifecycle phase across every traced tx
/// (derived by scanning the event buffer — tooling-side, never hot path).
struct PhaseSummary {
  EventKind kind = EventKind::kTxSubmit;
  std::uint64_t count = 0;
  double avg_ms = 0;
  double max_ms = 0;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  bool WantsKind(EventKind kind) const {
    return (config_.kind_mask >> static_cast<unsigned>(kind)) & 1u;
  }

  /// Instant event at `now`.
  void Instant(EventKind kind, sim::SimTime now, std::uint32_t actor,
               std::uint64_t tx, std::uint64_t aux = 0) {
    Append(kind, now, 0, actor, tx, aux);
  }

  /// Span [start, end] (end >= start; callers pass simulation.now() as end).
  void Span(EventKind kind, sim::SimTime start, sim::SimTime end,
            std::uint32_t actor, std::uint64_t tx, std::uint64_t aux = 0) {
    Append(kind, start, end - start, actor, tx, aux);
  }

  /// Convergence-lag bookkeeping: call when `actor` applies committed tx
  /// `tx` at `now`. Records a kConverge event with the lag (0 for the first
  /// apply anywhere) and feeds the per-actor ConvergenceStats. Shards (see
  /// NewShard) cannot see other lanes' applies, so they record a raw
  /// kConverge with aux = 0 and the parent computes the lag at absorb time.
  void CommitApplied(sim::SimTime now, std::uint32_t actor, std::uint64_t tx);

  /// Creates a per-lane shard for the parallel simulation engine: same kind
  /// mask plus kConverge (always needed to rebuild convergence stats at the
  /// merge), uncapped (the parent's cap applies at absorb), and a tiny
  /// initial reservation (one shard per lane; the parent's 64 K reservation
  /// would multiply across hundreds of lanes).
  std::unique_ptr<Tracer> NewShard() const;

  /// Merges the shards' buffers into this tracer in the canonical
  /// deterministic order — record creation time (ts + dur: spans are
  /// recorded when they end), ties broken by shard index then in-shard
  /// position, which is exactly the sequential engine's append order —
  /// recomputing convergence lags chronologically, then clears the shards.
  /// Called at every epoch barrier, before the harness lane records again,
  /// so the buffer stays globally ordered and byte-identical to a
  /// sequential run's (tests/parallel_determinism_test).
  void AbsorbShards(const std::vector<Tracer*>& shards);

  /// Names a track in the exported trace ("org-0", "client-3", ...).
  void SetActorName(std::uint32_t actor, std::string name);
  const std::string& ActorName(std::uint32_t actor) const;

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  /// Peak buffered-event count ever reached — the buffer's high-water mark.
  /// Together with `dropped()` it answers "how close to max_events did this
  /// run get" without replaying the trace (`trace.hwm` in --metrics-json).
  std::uint64_t high_water() const { return high_water_; }
  const std::unordered_map<std::uint32_t, ConvergenceStats>& convergence()
      const {
    return convergence_;
  }

  /// Per-phase latency breakdown over the whole buffer: spans aggregate
  /// their durations, kConverge aggregates lag. Instant kinds are counted
  /// with zero duration.
  std::vector<PhaseSummary> Phases() const;

  /// Every event touching `tx` (matched against both the tx field and the
  /// aux link of kWriteSetMatch), in record order — chaos-triage helper.
  std::vector<TraceEvent> EventsForTx(std::uint64_t tx) const;

  /// The last `n` events in record order (chaos-triage tail dump).
  std::vector<TraceEvent> Tail(std::size_t n) const;

  /// One-line render of an event for terminal dumps.
  std::string Render(const TraceEvent& event) const;

  void Clear();

 private:
  struct ShardTag {};
  Tracer(TracerConfig config, ShardTag);

  void Append(EventKind kind, sim::SimTime ts, sim::SimTime dur,
              std::uint32_t actor, std::uint64_t tx, std::uint64_t aux);

  TracerConfig config_;
  bool shard_ = false;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t high_water_ = 0;
  std::unordered_map<std::uint32_t, std::string> actor_names_;
  // First CRDT apply time per tx key (the convergence-lag reference point).
  std::unordered_map<std::uint64_t, sim::SimTime> first_apply_;
  std::unordered_map<std::uint32_t, ConvergenceStats> convergence_;
};

}  // namespace orderless::obs
