// Host-side profiler for the parallel simulation engine.
//
// Where the tracer answers "what did the *simulated* system do", the
// profiler answers "what did the *host* spend running it": per-lane epoch
// utilization (busy vs wall time on the worker pool), barrier-wait time and
// signature-verification counts. All timestamps here are
// std::chrono::steady_clock — host time, never sim::SimTime — so profiler
// output varies by machine while the simulated results stay bit-identical
// with or without it (bench/perf_hotpath cross-checks, same A/B proof as
// tracing).
//
// Cost model: every engine hook is gated on a single `if (profiler_)`
// pointer test, so a run without a profiler attached executes zero
// profiler instructions and zero extra heap allocations (enforced by the
// perf_hotpath alloc gate). With one attached, lanes write plain (non-
// atomic) per-lane slots: the epoch barrier's mutex/condition-variable
// hand-off establishes happens-before between a lane's slice writes and
// the single-threaded reader, so no synchronization is added on the
// worker hot path (TSan-clean by the same argument as the trace shards).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace orderless::obs {

/// Signature-verification snapshot (mirrors crypto::batch::DispatchCounts;
/// duplicated as a plain struct so obs never links the crypto library —
/// the harness copies the fields across).
struct CryptoSnapshot {
  std::uint64_t hashes = 0;
  std::uint64_t verify_batches = 0;
  std::uint64_t verify_sigs = 0;
};

// The methods sim::Simulation calls (BeginLanes, OnLaneSlice, OnEpoch) are
// defined inline: the engine keeps its pointer-only,
// no-link relationship with obs (same pattern as the tracer), while the
// read-out side (Fill, RenderText) lives in prof.cpp inside orderless_obs.
class Profiler {
 public:
  /// Pre-sizes the per-lane slots. Must be called single-threadedly before
  /// the first OnLaneSlice (the engine does, at run start); only grows.
  void BeginLanes(std::size_t lanes) {
    if (lanes > lanes_.size()) lanes_.resize(lanes);
  }

  /// One lane's work slice inside an epoch (or one sequential event):
  /// `events` executed over `busy_ns` of host time. Called from worker
  /// threads — writes only this lane's slot (see the header comment for
  /// why that is race-free).
  void OnLaneSlice(std::size_t lane, std::uint64_t events,
                   std::uint64_t busy_ns) {
    if (lane >= lanes_.size()) return;  // BeginLanes missed: drop, not UB
    LaneStat& s = lanes_[lane];
    s.events += events;
    s.busy_ns += busy_ns;
    ++s.slices;
  }

  /// One parallel epoch, observed single-threadedly by the coordinator:
  /// total wall time, the coordinator's wait on the completion barrier,
  /// how many lanes had work and the pool width executing them.
  void OnEpoch(std::uint64_t wall_ns, std::uint64_t barrier_wait_ns,
               std::size_t active_lanes, std::size_t pool_width) {
    ++epochs_;
    wall_ns_ += wall_ns;
    barrier_wait_ns_ += barrier_wait_ns;
    active_lane_sum_ += active_lanes;
    pool_width_ns_ += wall_ns * static_cast<std::uint64_t>(pool_width);
  }

  /// Cumulative-counter snapshot (overwrite semantics).
  void SetCrypto(const CryptoSnapshot& crypto) { crypto_ = crypto; }

  // --- Read-out (single-threaded, after the run). ---

  std::uint64_t epochs() const { return epochs_; }
  std::uint64_t total_busy_ns() const;
  std::uint64_t total_events() const;
  std::uint64_t epoch_wall_ns() const { return wall_ns_; }
  std::uint64_t barrier_wait_ns() const { return barrier_wait_ns_; }
  const CryptoSnapshot& crypto() const { return crypto_; }

  /// Worker-pool utilization over all epochs: busy lane time divided by
  /// (epoch wall time x pool width). 0 when nothing ran in parallel.
  double Utilization() const;

  /// prof.* metrics for --metrics-json.
  void Fill(MetricsRegistry& registry) const;

  /// Terminal summary: utilization, busiest lanes and crypto.
  std::string RenderText() const;

  void Reset();

 private:
  struct LaneStat {
    std::uint64_t events = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t slices = 0;
  };

  std::vector<LaneStat> lanes_;
  std::uint64_t epochs_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::uint64_t barrier_wait_ns_ = 0;
  std::uint64_t active_lane_sum_ = 0;
  std::uint64_t pool_width_ns_ = 0;  // sum(wall_ns x pool width) per epoch
  CryptoSnapshot crypto_;
};

}  // namespace orderless::obs
