// Reproduces Fig. 8: throughput timeline with Byzantine organizations.
// Timeline (scaled 10× from the paper's 180 s): f goes 0→1 at 3 s, →2 at
// 7 s, →3 at 11 s, →0 at 15 s; EP {4 of 16} at 3000 tps.
//   (a) clients keep selecting organizations at random: throughput drops
//       with every additional Byzantine organization.
//   (b) clients avoid organizations that misbehave and retry: throughput
//       returns to its pre-failure value.
#include "bench_common.h"

namespace {

orderless::bench::ExperimentConfig ByzTimelineConfig(bool avoidance) {
  using namespace orderless::bench;
  ExperimentConfig config = SyntheticDefaults();
  config.workload.duration = orderless::sim::Sec(18);
  config.workload.drain = orderless::sim::Sec(8);
  config.byzantine_phases = {
      {orderless::sim::Sec(3), 1},
      {orderless::sim::Sec(7), 2},
      {orderless::sim::Sec(11), 3},
      {orderless::sim::Sec(15), 0},
  };
  config.byzantine_org_behavior.ignore_proposal_prob = 0.5;
  config.byzantine_org_behavior.wrong_endorse_prob = 0.5;
  config.byzantine_org_behavior.ignore_commit_prob = 0.5;
  config.byzantine_org_behavior.suppress_gossip = true;
  config.client_timing.avoid_byzantine = avoidance;
  config.client_timing.max_attempts = avoidance ? 3 : 1;
  // Shorter endorsement timeout so failures register within the timeline.
  return config;
}

}  // namespace

int main() {
  using namespace orderless::bench;
  PrintBanner("Fig. 8 — Byzantine Organizations",
              "3000 tps, EP {4 of 16}; f = 1/2/3 Byzantine orgs during "
              "[3,7)/[7,11)/[11,15) s (10x time scale vs the paper's 180 s "
              "run). Expected: (a) throughput steps down with each failure; "
              "(b) with client avoidance it recovers to the pre-failure "
              "value.");

  {
    const auto result = RunExperiment(ByzTimelineConfig(false));
    PrintSeries("Fig8(a) committed tps per second (no avoidance)",
                result.throughput_per_second);
    std::printf("failed transactions: %llu of %llu submitted\n\n",
                static_cast<unsigned long long>(result.metrics.failed),
                static_cast<unsigned long long>(result.metrics.submitted));
  }
  {
    const auto result = RunExperiment(ByzTimelineConfig(true));
    PrintSeries("Fig8(b) committed tps per second (with avoidance)",
                result.throughput_per_second);
    std::printf("failed transactions: %llu of %llu submitted\n",
                static_cast<unsigned long long>(result.metrics.failed),
                static_cast<unsigned long long>(result.metrics.submitted));
  }
  return 0;
}
