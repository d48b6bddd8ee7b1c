// Overload sweep (robustness figure): arrival rates from 1x to 5x the
// saturation point, once with the overload-protection layer enabled
// (bounded admission + Busy backpressure + backoffed client retries) and
// once with the seed's unprotected behaviour. Expected shape: the protected
// system holds goodput near the capacity plateau with a bounded p99, while
// the unprotected system's queues grow without bound past 1x and goodput
// collapses as every endorsement times out. Emits BENCH_overload.json.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"

namespace {

using namespace orderless;
using namespace orderless::bench;

// Service times chosen so the knee sits at a sweepable scale: with 8 orgs,
// EP {2 of 8}, endorse 2ms / commit 1ms on 4 cores, the endorsement path
// saturates each organization near 1x.
constexpr double kSaturationTps = 4000;

ExperimentConfig OverloadConfigAt(double multiplier, bool protected_mode,
                                  std::uint64_t seed) {
  ExperimentConfig config;
  config.system = SystemKind::kOrderless;
  config.app = AppKind::kSynthetic;
  config.num_orgs = 8;
  config.policy = core::EndorsementPolicy{2, 8};
  config.workload.arrival_tps = kSaturationTps * multiplier;
  config.workload.duration = BenchSeconds(sim::Sec(5));
  config.workload.drain = sim::Sec(15);
  config.workload.modify_fraction = 0.5;
  config.workload.num_clients = 400;
  config.seed = seed;
  config.org_timing.endorse_base = sim::Ms(2);
  config.org_timing.commit_base = sim::Ms(1);
  // Both modes share the same client patience: a commit that arrives after
  // the client already gave up is not goodput. The unprotected system's
  // queues push latency past this deadline at high load, which is exactly
  // the collapse this figure exists to show.
  config.client_timing.endorse_timeout = sim::Sec(1);
  config.client_timing.commit_timeout = sim::Sec(2);
  if (protected_mode) {
    config.org_timing.overload.enabled = true;
    config.client_timing.max_attempts = 4;
    config.client_timing.backoff_base = sim::Ms(50);
    config.client_timing.backoff_cap = sim::Sec(1);
    config.client_timing.org_retry_budget = 2;
    config.client_timing.breaker_threshold = 8;
    config.client_timing.breaker_cooldown = sim::Ms(500);
  }
  return config;
}

struct Point {
  double multiplier = 0;
  bool protected_mode = false;
  double goodput_tps = 0;
  double p99_ms = 0;
  double failed_fraction = 0;
  harness::RobustnessStats robustness;
};

Point RunPoint(double multiplier, bool protected_mode) {
  const ExperimentConfig config = OverloadConfigAt(multiplier, protected_mode,
                                                   /*seed=*/7);
  const harness::ExperimentResult r = RunExperiment(config);
  Point p;
  p.multiplier = multiplier;
  p.protected_mode = protected_mode;
  // Goodput = commits per second during the submission window only. The
  // drain window exists so in-flight work can finish, but commits landing
  // there are backlog being worked off, not sustainable throughput —
  // counting them would hide the very collapse this figure measures.
  double in_window = 0;
  for (const double tps : r.throughput_per_second) in_window += tps;
  p.goodput_tps = r.throughput_per_second.empty()
                      ? 0
                      : in_window /
                            static_cast<double>(r.throughput_per_second.size());
  p.p99_ms = r.metrics.combined_latency.PercentileMs(99);
  const double submitted =
      static_cast<double>(r.metrics.submitted == 0 ? 1 : r.metrics.submitted);
  p.failed_fraction = static_cast<double>(r.metrics.failed) / submitted;
  p.robustness = r.metrics.robustness;
  return p;
}

void WriteJson(const std::vector<Point>& points) {
  // Shared emitter (obs/json.h): every BENCH_*.json carries the same
  // top-level shape and run-metadata header bench_regress keys on.
  orderless::obs::JsonBench json("overload");
  json.Scalar("saturation_tps", kSaturationTps, 0);
  for (const Point& p : points) {
    const char* mode = p.protected_mode ? "protected" : "unprotected";
    json.Point(std::to_string(static_cast<int>(p.multiplier)) + "x_" + mode);
    json.Field("multiplier", p.multiplier, 0);
    json.Field("mode", std::string(mode));
    json.Field("goodput_tps", p.goodput_tps, 1);
    json.Field("p99_ms", p.p99_ms, 2);
    json.Field("failed_fraction", p.failed_fraction, 4);
    json.Field("shed", p.robustness.overload.TotalShed());
    json.Field("busy_sent", p.robustness.overload.busy_sent);
    json.Field("retries", p.robustness.retry.retries);
    json.Field("breaker_opens", p.robustness.retry.breaker_opens);
  }
  json.Write();
}

}  // namespace

int main() {
  PrintBanner("Overload — goodput under 1x..5x saturation",
              "Synthetic app, 8 orgs, EP {2 of 8}, R50M50. Protected = "
              "bounded admission + Busy backpressure + backoffed retries; "
              "unprotected = the unbounded seed behaviour. Expected shape: "
              "protected goodput plateaus at capacity with bounded p99; "
              "unprotected goodput collapses once queueing delay passes the "
              "endorsement timeout.");
  TablePrinter table({"load", "mode", "goodput(tps)", "p99(ms)", "fail%",
                      "shed", "busy", "retries"});
  std::vector<Point> points;
  for (double m = 1; m <= 5; m += 1) {
    for (const bool protected_mode : {true, false}) {
      const Point p = RunPoint(m, protected_mode);
      points.push_back(p);
      table.AddRow({TablePrinter::Num(m, 0) + "x",
                    protected_mode ? "protected" : "unprotected",
                    TablePrinter::Num(p.goodput_tps, 0),
                    TablePrinter::Num(p.p99_ms),
                    TablePrinter::Num(100 * p.failed_fraction, 1),
                    TablePrinter::Num(
                        static_cast<double>(p.robustness.overload.TotalShed()), 0),
                    TablePrinter::Num(
                        static_cast<double>(p.robustness.overload.busy_sent), 0),
                    TablePrinter::Num(
                        static_cast<double>(p.robustness.retry.retries), 0)});
    }
  }
  table.Print();

  // The acceptance bar for this figure: at 5x saturation the protected
  // configuration keeps >= 70% of its peak goodput.
  double peak = 0, at5x = 0;
  for (const Point& p : points) {
    if (!p.protected_mode) continue;
    peak = std::max(peak, p.goodput_tps);
    if (p.multiplier == 5) at5x = p.goodput_tps;
  }
  std::printf("\nprotected goodput at 5x: %.0f tps (%.0f%% of peak %.0f)\n",
              at5x, peak > 0 ? 100 * at5x / peak : 0, peak);
  WriteJson(points);
  return 0;
}
