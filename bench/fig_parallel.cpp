// Thread-scaling sweep for the parallel simulation engine.
//
// Runs two workload shapes — the fig6b-style multi-org fan-out and the
// fig7-style high arrival rate from bench/perf_hotpath — at 1/2/4/8 worker
// threads, cross-checks that every run's *simulated* results are
// bit-identical to the single-threaded run (events processed, commit counts,
// throughput, exact latency statistics), and reports wall-clock speedup per
// thread count. Emits BENCH_parallel.json.
//
// Exit code 1 = a determinism cross-check failed. Low speedup is reported,
// not fatal: scaling needs real cores (single-core containers time-slice the
// pool), and CI evaluates the numbers it uploads.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"

namespace {

using namespace orderless;
using namespace orderless::bench;
using orderless::obs::JsonBench;

struct Workload {
  std::string name;
  ExperimentConfig config;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> workloads;

  // Fig. 6(b) shape: 16 organizations plus 1000 client lanes — the wide
  // fan-out the per-actor lanes are meant to spread across cores.
  ExperimentConfig multi_org = SyntheticDefaults(/*seed=*/11);
  multi_org.num_orgs = 16;
  multi_org.policy = core::EndorsementPolicy{4, 16};
  multi_org.workload.duration = BenchSeconds(sim::Sec(4));
  workloads.push_back({"fig6b_multi_org", multi_org});

  // Fig. 7 shape: fewer lanes but a much hotter per-lane event stream.
  ExperimentConfig high_rate = SyntheticDefaults(/*seed=*/13);
  high_rate.num_orgs = 8;
  high_rate.policy = core::EndorsementPolicy{2, 8};
  high_rate.workload.arrival_tps = 6000;
  high_rate.workload.duration = BenchSeconds(sim::Sec(4));
  high_rate.workload.num_clients = 1200;
  workloads.push_back({"fig7_high_rate", high_rate});

  return workloads;
}

struct TimedRun {
  double wall_ms = 0;
  harness::ExperimentResult result;
};

TimedRun Run(ExperimentConfig config, unsigned threads) {
  config.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  TimedRun run;
  run.result = harness::RunExperiment(config);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return run;
}

/// Exact equality on everything the simulation decides; the thread count may
/// only change how fast the host reaches the same place.
bool SimulatedIdentical(const harness::ExperimentResult& a,
                        const harness::ExperimentResult& b,
                        const std::string& workload, unsigned threads) {
  struct Check {
    const char* what;
    double a, b;
  };
  const Check checks[] = {
      {"events_processed", static_cast<double>(a.events_processed),
       static_cast<double>(b.events_processed)},
      {"submitted", static_cast<double>(a.metrics.submitted),
       static_cast<double>(b.metrics.submitted)},
      {"committed_modify", static_cast<double>(a.metrics.committed_modify),
       static_cast<double>(b.metrics.committed_modify)},
      {"committed_read", static_cast<double>(a.metrics.committed_read),
       static_cast<double>(b.metrics.committed_read)},
      {"failed", static_cast<double>(a.metrics.failed),
       static_cast<double>(b.metrics.failed)},
      {"rejected", static_cast<double>(a.metrics.rejected),
       static_cast<double>(b.metrics.rejected)},
      {"throughput_tps", a.metrics.ThroughputTps(),
       b.metrics.ThroughputTps()},
      {"combined_avg_ms", a.metrics.combined_latency.AverageMs(),
       b.metrics.combined_latency.AverageMs()},
      {"combined_p99_ms", a.metrics.combined_latency.PercentileMs(99),
       b.metrics.combined_latency.PercentileMs(99)},
  };
  bool ok = true;
  for (const Check& c : checks) {
    if (c.a != c.b) {
      std::printf("DETERMINISM FAIL [%s] threads=%u %s: %.17g vs %.17g "
                  "at 1 thread\n",
                  workload.c_str(), threads, c.what, c.b, c.a);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  PrintBanner("Parallel engine — thread scaling, bit-identical results",
              "fig6b/fig7-style workloads at 1/2/4/8 simulation worker "
              "threads. Every run must produce the single-threaded run's "
              "exact simulated results; only wall time may differ.");

  const unsigned threads_sweep[] = {1, 2, 4, 8};
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("host reports %u hardware threads\n\n", hardware);

  JsonBench json("parallel");
  TablePrinter table({"workload", "threads", "wall(ms)", "events/s",
                      "speedup"});
  bool deterministic = true;
  double fig6b_speedup_at_4 = 0;

  for (const Workload& w : Workloads()) {
    TimedRun baseline;
    for (unsigned threads : threads_sweep) {
      const TimedRun run = Run(w.config, threads);
      if (threads == 1) {
        baseline = run;
      } else {
        deterministic &=
            SimulatedIdentical(baseline.result, run.result, w.name, threads);
      }
      const double speedup =
          threads == 1 || run.wall_ms <= 0 ? 1.0
                                           : baseline.wall_ms / run.wall_ms;
      if (w.name == "fig6b_multi_org" && threads == 4) {
        fig6b_speedup_at_4 = speedup;
      }
      const double events_per_sec =
          run.wall_ms <= 0
              ? 0
              : run.result.events_processed / (run.wall_ms / 1e3);
      json.Point(w.name);
      json.Field("threads", static_cast<std::uint64_t>(threads));
      json.Field("wall_ms", run.wall_ms, 2);
      json.Field("events_per_sec", events_per_sec, 0);
      json.Field("events_processed", run.result.events_processed);
      json.Field("committed",
                 run.result.metrics.committed_modify +
                     run.result.metrics.committed_read);
      json.Field("speedup", speedup, 3);
      table.AddRow({w.name, std::to_string(threads),
                    TablePrinter::Num(run.wall_ms, 1),
                    TablePrinter::Num(events_per_sec, 0),
                    TablePrinter::Num(speedup, 2) + "x"});
    }
  }
  table.Print();

  json.Scalar("deterministic", deterministic ? "true" : "false");
  json.Scalar("hardware_threads", static_cast<std::uint64_t>(hardware));
  json.Scalar("fig6b_speedup_at_4_threads", fig6b_speedup_at_4, 3);
  json.Write();

  std::printf("\nfig6b-style speedup at 4 threads: %.2fx — simulated results "
              "%s\n",
              fig6b_speedup_at_4,
              deterministic ? "bit-identical" : "DIVERGED");
  return deterministic ? 0 : 1;
}
