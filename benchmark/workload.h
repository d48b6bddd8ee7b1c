// The benchmark's four workloads, their seeded input plans, and one
// repetition of a workload against a fresh simulated network.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace orderless::bench {

/// One workload: a network shape plus an open-loop submission mix for the
/// synthetic contract. Every workload drives kClients clients.
struct WorkloadSpec {
  std::string name;
  std::uint32_t orgs = 16;
  std::uint32_t q = 4;
  double tps = 3000;             // fixed arrival rate, simulated tx/s
  double submit_s = 1;           // simulated submission window
  double modify_fraction = 0.5;  // share of Modify submissions
  std::int64_t modify_objects = 1;
  std::int64_t ops_per_object = 1;
  std::int64_t read_objects = 1;
  std::string crdt_type = "g-counter";
  unsigned threads = 1;
  bool byzantine_org0 = false;  // org 0 misbehaves; clients avoid + retry
};

inline constexpr std::uint32_t kClients = 1000;
/// Seed of the simulated deployment itself, independent of the inputs.
inline constexpr std::uint64_t kDeploymentSeed = 1;
/// Simulated drain after the submission window, so every submission reaches
/// its outcome before the run ends.
inline constexpr sim::SimTime kDrain = sim::Sec(20);

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// One scheduled submission; latency is measured from `due`.
struct Submission {
  sim::SimTime due = 0;
  std::uint32_t client = 0;
  bool read = false;
};

/// Open-loop arrivals, drawn up front from `seed`: submission i is due at
/// (i + U[0,1)) / tps, with a uniformly drawn client and read/modify class.
std::vector<Submission> MakePlan(const WorkloadSpec& spec, std::uint64_t seed);

/// SHA-256 (hex) over the workload shape and every planned submission.
std::string InputsDigest(const WorkloadSpec& spec,
                         const std::vector<Submission>& plan);

/// Everything one repetition reports. Plain values only: a repetition runs
/// in a forked child and crosses back to the parent as text.
struct RepResult {
  std::map<std::string, double> values;
  std::map<std::string, std::string> texts;  // fingerprint, kernel name
  std::vector<std::string> failures;         // failed output checks

  /// The value or text under `key`; 0 or "" when a failed repetition
  /// never reported it.
  double at(const std::string& key) const;
  std::string text(const std::string& key) const;
  std::string Serialize() const;
  static bool Parse(const std::string& text, RepResult& out);
};

enum class Trace {
  kOff,
  kAllKinds,
  kCriticalPath,  // only the kinds critical-path reconstruction reads
};

/// Builds a network for `spec`, runs the plan to the end of the drain, and
/// checks that every submission got exactly one outcome. Untraced runs
/// report host and simulated end-to-end values plus a fingerprint of the
/// simulated outputs (events, per-org chain heads, network counters and
/// every latency sample). A traced run attaches the tracer, the profiler,
/// the timing probes and the allocation counter, captures the last org's
/// commits, and adds the per-layer values and their replays; its
/// fingerprint must equal the untraced one.
///
/// The run phase goes in kRunSlices slices of simulated time. `pause` is
/// called before the first slice, between slices and after the last; the
/// host time it takes is left out of the run phase's wall and CPU time.
inline constexpr int kRunSlices = 8;
RepResult RunRep(const WorkloadSpec& spec, std::uint64_t seed, Trace trace,
                 const std::function<void()>& pause);

}  // namespace orderless::bench
