// Seed-driven chaos exploration of the OrderlessChain simulator
// (FoundationDB-style deterministic simulation testing).
//
//   chaos_explorer --seeds 50              # sweep seeds 1..50
//   chaos_explorer --seed 1337             # run one scenario, print details
//   chaos_explorer --seed 1337 --replay-check   # run twice, compare
//   chaos_explorer --seed 1337 --minimize  # shrink the script on failure
//   chaos_explorer --unsafe-demo           # q <= f misconfiguration demo
//   chaos_explorer --preset long-partition # checkpoint catch-up presets
//   chaos_explorer --preset crash-restart  #   (--preset-seed S to vary)
//   chaos_explorer --preset byzantine-catchup  # f=n-q checkpoint adversaries
//   chaos_explorer --byzantine-seeds 16    # sweep the first 16 generated
//                                          # scenarios with Byzantine orgs
//                                          # (checkpoints + attestation on)
//   chaos_explorer --seed 1337 --trace t.json [--trace-filter kinds]
//                  [--metrics-json m.json]   # record + export a trace
//                  # (with --seed or --preset the metrics also carry the
//                  #  run's robustness.* and catchup.* counters)
//   chaos_explorer --preset byzantine-catchup --report summary
//                  [--report-json r.json]    # reconstructed run report
//                  # (works on successful runs too; forces tracing; modes
//                  #  summary|timelines|full, unknown modes list + exit 2)
//
// On an invariant failure, --minimized-out PATH additionally ddmin-shrinks
// the fault script and writes the minimized scenario description to PATH
// (the CI sweep uploads it as the repro artifact).
//
// With tracing on, an invariant failure additionally dumps the trace tail
// and the per-phase timeline of every offending transaction.
//
// Exit code 0 when every expectation held (for --unsafe-demo: the safety
// checker *did* fire), 1 on an invariant violation or replay divergence,
// 2 on usage errors.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "chaos/minimize.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "cli.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace {

constexpr const char* kPresetNames[] = {"long-partition", "crash-restart",
                                        "byzantine-catchup"};

using orderless::chaos::ChaosRunResult;
using orderless::chaos::GenerateScenario;
using orderless::chaos::MakeUnsafeScenario;
using orderless::chaos::MinimizeScenario;
using orderless::chaos::RunOptions;
using orderless::chaos::RunScenario;
using orderless::chaos::Scenario;
using orderless::chaos::Violation;
namespace obs = orderless::obs;

constexpr std::size_t kFailureTailEvents = 40;

void PrintViolations(const ChaosRunResult& result) {
  for (const Violation& v : result.violations) {
    std::printf("  VIOLATION [%s] %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
}

/// Failure triage (tracing on only): the last events before the violation
/// plus the reconstructed critical-path timeline of every transaction a
/// violation names. Rendering routes through the report library so live
/// triage and offline `obs_report` output read identically.
void PrintTraceTriage(const obs::Tracer& tracer, const ChaosRunResult& result) {
  const std::vector<obs::TraceEvent>& events = tracer.events();
  const obs::ActorNames names = obs::NamesFromTracer(tracer, events);
  std::printf("\ntrace tail (last %zu of %zu events):\n",
              std::min(kFailureTailEvents, events.size()), events.size());
  for (const obs::TraceEvent& e : tracer.Tail(kFailureTailEvents)) {
    std::printf("  %s\n", obs::RenderEventLine(e, names).c_str());
  }
  std::printf("\nper-phase summary:\n");
  for (const obs::PhaseSummary& phase : tracer.Phases()) {
    std::printf("  %-14s count %8llu  avg %8.3f ms  max %8.3f ms\n",
                std::string(obs::EventKindName(phase.kind)).c_str(),
                static_cast<unsigned long long>(phase.count), phase.avg_ms,
                phase.max_ms);
  }
  std::set<std::uint64_t> offenders;
  for (const Violation& v : result.violations) {
    if (v.tx != 0) offenders.insert(v.tx);
  }
  if (offenders.empty()) return;
  const obs::TimelineSet set = obs::BuildTimelines(events);
  for (std::uint64_t tx : offenders) {
    std::printf("\ntimeline of offending tx %016llx:\n",
                static_cast<unsigned long long>(tx));
    const obs::TxTimeline* found = nullptr;
    for (const obs::TxTimeline& t : set.txs) {
      if (t.tx_key == tx || t.proposal_key == tx) {
        found = &t;
        break;
      }
    }
    if (found != nullptr) {
      std::printf("%s", obs::RenderTimeline(*found, names).c_str());
    }
    // Raw events stay in the dump either way: a Byzantine tx may not
    // reconstruct into a timeline at all, and the violation is in the raw
    // record when it does not.
    for (const obs::TraceEvent& e : tracer.EventsForTx(tx)) {
      std::printf("  %s\n", obs::RenderEventLine(e, names).c_str());
    }
  }
}

/// Shared failure artifact: ddmin the script and write the minimized
/// description (plus the violations it still trips) to `path`.
void WriteMinimizedArtifact(const Scenario& scenario,
                            const std::string& path) {
  std::printf("minimizing fault script (%zu events) for %s...\n",
              scenario.events.size(), path.c_str());
  const auto min = MinimizeScenario(scenario);
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "%s", min.minimized.Describe().c_str());
  for (const Violation& v : min.failing_run.violations) {
    std::fprintf(out, "  VIOLATION [%s] %s\n", v.invariant.c_str(),
                 v.detail.c_str());
  }
  std::fprintf(out, "reproduce with: chaos_explorer --seed %llu\n",
               static_cast<unsigned long long>(min.minimized.seed));
  std::fclose(out);
  std::printf("wrote minimized scenario (%zu events, %u runs) to %s\n",
              min.minimized.events.size(), min.runs, path.c_str());
}

void PrintFailure(const Scenario& scenario, const ChaosRunResult& result,
                  bool minimize, const obs::Tracer* tracer,
                  const std::string& minimized_out = {}) {
  std::printf("FAILED %s\n", result.Summary().c_str());
  PrintViolations(result);
  std::printf("%s", scenario.Describe().c_str());
  if (tracer != nullptr) PrintTraceTriage(*tracer, result);
  if (minimize) {
    std::printf("minimizing fault script (%zu events)...\n",
                scenario.events.size());
    const auto min = MinimizeScenario(scenario);
    std::printf("minimized to %zu events after %u runs:\n",
                min.minimized.events.size(), min.runs);
    std::printf("%s", min.minimized.Describe().c_str());
    PrintViolations(min.failing_run);
  }
  if (!minimized_out.empty()) WriteMinimizedArtifact(scenario, minimized_out);
  std::printf("reproduce with: chaos_explorer --seed %llu\n",
              static_cast<unsigned long long>(scenario.seed));
}

int RunOne(std::uint64_t seed, bool replay_check, bool minimize, bool verbose,
           obs::Tracer* tracer, unsigned threads,
           obs::MetricsRegistry& metrics) {
  const Scenario scenario = GenerateScenario(seed);
  if (verbose) std::printf("%s", scenario.Describe().c_str());
  RunOptions options;
  options.tracer = tracer;
  options.threads = threads;
  const ChaosRunResult result = RunScenario(scenario, options);
  result.robustness.FillRegistry(metrics);
  if (!result.ok()) {
    PrintFailure(scenario, result, minimize, tracer);
    return 1;
  }
  std::printf("ok %s\n", result.Summary().c_str());
  if (replay_check) {
    // The replay runs untraced and single-threaded: equal fingerprints
    // double as a check that neither recording nor the worker pool changes
    // an outcome.
    const ChaosRunResult replay = RunScenario(scenario);
    if (replay.fingerprint != result.fingerprint ||
        replay.events_processed != result.events_processed) {
      std::printf("REPLAY DIVERGENCE seed=%llu: %016llx/%llu events vs "
                  "%016llx/%llu events\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(result.fingerprint),
                  static_cast<unsigned long long>(result.events_processed),
                  static_cast<unsigned long long>(replay.fingerprint),
                  static_cast<unsigned long long>(replay.events_processed));
      return 1;
    }
    std::printf("replay ok: fingerprint %016llx reproduced\n",
                static_cast<unsigned long long>(result.fingerprint));
  }
  return 0;
}

int RunSweep(std::uint64_t count, bool minimize, obs::Tracer* tracer,
             unsigned threads, const std::string& minimized_out) {
  std::uint64_t passed = 0;
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    const Scenario scenario = GenerateScenario(seed);
    if (tracer != nullptr) tracer->Clear();  // one trace buffer per seed
    RunOptions options;
    options.tracer = tracer;
    options.threads = threads;
    const ChaosRunResult result = RunScenario(scenario, options);
    if (!result.ok()) {
      PrintFailure(scenario, result, minimize, tracer, minimized_out);
      std::printf("sweep: %llu/%llu seeds passed before failure\n",
                  static_cast<unsigned long long>(passed),
                  static_cast<unsigned long long>(count));
      return 1;
    }
    ++passed;
    if (seed % 10 == 0 || seed == count) {
      std::printf("[%llu/%llu] last: %s\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(count),
                  result.Summary().c_str());
    }
  }
  std::printf("sweep ok: %llu scenarios, all invariants held\n",
              static_cast<unsigned long long>(passed));
  return 0;
}

/// Sweeps the first `count` generated scenarios that actually draw Byzantine
/// organizations — those run with checkpoints + quorum attestation enabled,
/// so the active checkpoint adversaries get coverage on every run. Seeds are
/// scanned in order, so the selection is deterministic.
int RunByzantineSweep(std::uint64_t count, bool minimize, obs::Tracer* tracer,
                      unsigned threads, const std::string& minimized_out) {
  std::uint64_t passed = 0;
  std::uint64_t seed = 0;
  while (passed < count) {
    ++seed;
    const Scenario scenario = GenerateScenario(seed);
    if (scenario.byzantine_budget == 0) continue;
    if (!scenario.checkpoints) {
      std::printf("GENERATOR BUG seed=%llu: Byzantine scenario without "
                  "checkpoints+attest\n",
                  static_cast<unsigned long long>(seed));
      return 1;
    }
    if (tracer != nullptr) tracer->Clear();
    RunOptions options;
    options.tracer = tracer;
    options.threads = threads;
    const ChaosRunResult result = RunScenario(scenario, options);
    if (!result.ok()) {
      PrintFailure(scenario, result, minimize, tracer, minimized_out);
      std::printf("byzantine sweep: %llu/%llu scenarios passed before "
                  "failure\n",
                  static_cast<unsigned long long>(passed),
                  static_cast<unsigned long long>(count));
      return 1;
    }
    ++passed;
    std::printf("[%llu/%llu] seed %llu f=%u: %s\n",
                static_cast<unsigned long long>(passed),
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(seed),
                scenario.byzantine_budget, result.Summary().c_str());
  }
  std::printf("byzantine sweep ok: %llu scenarios, all invariants held\n",
              static_cast<unsigned long long>(passed));
  return 0;
}

int RunPreset(const Scenario& scenario, const char* name, bool replay_check,
              obs::Tracer* tracer, unsigned threads,
              obs::MetricsRegistry& metrics) {
  std::printf("running %s preset (checkpoints %s)\n", name,
              scenario.checkpoints ? "on" : "off");
  std::printf("%s", scenario.Describe().c_str());
  RunOptions options;
  options.tracer = tracer;
  options.threads = threads;
  const ChaosRunResult result = RunScenario(scenario, options);
  result.robustness.FillRegistry(metrics);
  if (!result.ok()) {
    PrintFailure(scenario, result, /*minimize=*/false, tracer);
    return 1;
  }
  std::printf("ok %s\n", result.Summary().c_str());
  for (std::size_t i = 0; i < result.org_catchup.size(); ++i) {
    std::printf("  org %zu:", i);
    for (const auto& c : orderless::core::CatchupStats::kCounters) {
      std::printf(" %s=%llu", c.name,
                  static_cast<unsigned long long>(result.org_catchup[i].*
                                                  c.member));
    }
    std::printf("\n");
  }
  if (replay_check) {
    const ChaosRunResult replay = RunScenario(scenario);
    if (replay.fingerprint != result.fingerprint) {
      std::printf("REPLAY DIVERGENCE: %016llx vs %016llx\n",
                  static_cast<unsigned long long>(result.fingerprint),
                  static_cast<unsigned long long>(replay.fingerprint));
      return 1;
    }
    std::printf("replay ok: fingerprint %016llx reproduced\n",
                static_cast<unsigned long long>(result.fingerprint));
  }
  return 0;
}

int RunUnsafeDemo(std::uint64_t seed, obs::Tracer* tracer, unsigned threads) {
  const Scenario scenario = MakeUnsafeScenario(seed);
  std::printf("running deliberately unsafe configuration: policy %s against "
              "f=%u (q >= f+1 violated)\n",
              scenario.policy.ToString().c_str(), scenario.byzantine_budget);
  std::printf("%s", scenario.Describe().c_str());
  RunOptions options;
  options.tracer = tracer;
  options.threads = threads;
  const ChaosRunResult result = RunScenario(scenario, options);
  if (result.ok()) {
    std::printf("UNEXPECTED: safety checker did not fire (%s)\n",
                result.Summary().c_str());
    return 1;
  }
  std::printf("safety violation detected, as expected:\n");
  PrintViolations(result);
  if (tracer != nullptr) PrintTraceTriage(*tracer, result);
  const auto min = MinimizeScenario(scenario);
  std::printf("minimized fault script (%u runs):\n%s", min.runs,
              min.minimized.Describe().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t sweep = 0;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool replay_check = false;
  bool minimize = false;
  bool unsafe_demo = false;
  bool verbose = false;
  std::string preset;
  std::uint64_t preset_seed = 1;
  std::uint64_t unsafe_seed = 1;
  std::uint64_t byzantine_seeds = 0;
  std::uint32_t preset_txs = 0;
  unsigned threads = 1;
  std::string trace_path, trace_filter, metrics_path, minimized_out;
  std::string report_mode_name, report_json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_str = [&](std::string& out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      out = argv[++i];
    };
    auto next_uint = [&](auto& out) {
      std::string value;
      next_str(value);
      if (!orderless::cli::ParseUint(value.c_str(), out)) {
        std::fprintf(stderr, "invalid value for %s: %s\n", arg.c_str(),
                     value.c_str());
        std::exit(2);
      }
    };
    if (arg == "--seeds") {
      next_uint(sweep);
    } else if (arg == "--seed") {
      next_uint(seed);
      have_seed = true;
    } else if (arg == "--replay-check") {
      replay_check = true;
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--unsafe-demo") {
      unsafe_demo = true;
    } else if (arg == "--unsafe-seed") {
      next_uint(unsafe_seed);
    } else if (arg == "--preset") {
      next_str(preset);
    } else if (arg == "--preset-seed") {
      next_uint(preset_seed);
    } else if (arg == "--preset-txs") {
      next_uint(preset_txs);
    } else if (arg == "--byzantine-seeds") {
      next_uint(byzantine_seeds);
    } else if (arg == "--minimized-out") {
      next_str(minimized_out);
    } else if (arg == "--report") {
      next_str(report_mode_name);
    } else if (arg == "--report-json") {
      next_str(report_json_path);
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--threads") {
      next_uint(threads);
    } else if (arg == "--trace") {
      next_str(trace_path);
    } else if (arg == "--trace-filter") {
      next_str(trace_filter);
    } else if (arg == "--metrics-json") {
      next_str(metrics_path);
    } else {
      std::fprintf(
          stderr,
          "usage: chaos_explorer [--seeds N] [--seed S] "
          "[--replay-check] [--minimize] [--unsafe-demo] "
          "[--unsafe-seed S] "
          "[--preset long-partition|crash-restart|byzantine-catchup] "
          "[--preset-seed S] [--preset-txs N] [--byzantine-seeds N] "
          "[--minimized-out PATH] [--verbose] [--threads N] "
          "[--trace PATH] "
          "[--trace-filter K,K] [--metrics-json PATH] "
          "[--report summary|timelines|full] [--report-json PATH]\n");
      return 2;
    }
  }

  if (threads == 0 || threads > orderless::sim::kMaxThreads) {
    std::fprintf(stderr, "--threads must be in 1..%u\n",
                 orderless::sim::kMaxThreads);
    return 2;
  }

  // --report implies tracing: the report is reconstructed from the trace
  // buffer, and unlike the failure triage it renders on success too.
  obs::ReportMode report_mode = obs::ReportMode::kSummary;
  const bool want_report =
      !report_mode_name.empty() || !report_json_path.empty();
  if (!report_mode_name.empty() &&
      !obs::ParseReportMode(report_mode_name, report_mode)) {
    std::fprintf(stderr, "unknown report mode: %s\navailable modes:\n",
                 report_mode_name.c_str());
    for (const char* name : {"summary", "timelines", "full"}) {
      std::fprintf(stderr, "  %s\n", name);
    }
    return 2;
  }

  const bool tracing = !trace_path.empty() || !trace_filter.empty() ||
                       !metrics_path.empty() || want_report;
  obs::TracerConfig tracer_config;
  tracer_config.kind_mask = obs::ParseKindMask(trace_filter);
  obs::Tracer tracer(tracer_config);
  obs::Tracer* tracer_ptr = tracing ? &tracer : nullptr;

  // --seed and --preset runs export their robustness.* and catchup.*
  // counters here; the trace metrics follow.
  obs::MetricsRegistry metrics;
  auto with_txs = [&](Scenario s) {
    if (preset_txs > 0) s.tx_count = preset_txs;
    return s;
  };
  int rc;
  if (unsafe_demo) {
    rc = RunUnsafeDemo(unsafe_seed, tracer_ptr, threads);
  } else if (!preset.empty()) {
    if (preset == "long-partition") {
      rc = RunPreset(with_txs(orderless::chaos::MakeLongPartitionScenario(preset_seed)),
                     "long-partition", replay_check, tracer_ptr,
                     threads, metrics);
    } else if (preset == "crash-restart") {
      rc = RunPreset(with_txs(orderless::chaos::MakeCrashRestartScenario(preset_seed)),
                     "crash-restart", replay_check, tracer_ptr,
                     threads, metrics);
    } else if (preset == "byzantine-catchup") {
      rc = RunPreset(
          with_txs(orderless::chaos::MakeByzantineCatchupScenario(preset_seed)),
          "byzantine-catchup", replay_check, tracer_ptr, threads, metrics);
    } else {
      std::fprintf(stderr, "unknown preset: %s\navailable presets:\n",
                   preset.c_str());
      for (const char* name : kPresetNames) {
        std::fprintf(stderr, "  %s\n", name);
      }
      return 2;
    }
  } else if (byzantine_seeds > 0) {
    rc = RunByzantineSweep(byzantine_seeds, minimize, tracer_ptr,
                           threads, minimized_out);
  } else if (have_seed) {
    rc = RunOne(seed, replay_check, minimize, verbose, tracer_ptr,
                threads, metrics);
  } else if (sweep > 0) {
    rc = RunSweep(sweep, minimize, tracer_ptr, threads, minimized_out);
  } else {
    std::fprintf(stderr, "nothing to do: pass --seeds, --seed, "
                         "--byzantine-seeds, --preset or --unsafe-demo\n");
    return 2;
  }

  if (want_report) {
    // Rendered whatever the verdict (on a sweep: the last scenario run,
    // each seed reuses the buffer). Same code path as tools/obs_report.
    obs::ReportInputs inputs;
    inputs.events = &tracer.events();
    inputs.names = obs::NamesFromTracer(tracer, tracer.events());
    if (!preset.empty()) {
      inputs.label = "chaos " + preset;
    } else if (unsafe_demo) {
      inputs.label = "chaos unsafe-demo";
    } else {
      inputs.label = "chaos seed sweep";
    }
    if (have_seed) {
      inputs.label = "chaos seed " + std::to_string(seed);
    }
    inputs.have_drop_info = true;
    inputs.dropped = tracer.dropped();
    inputs.trace_hwm = tracer.high_water();
    const obs::RunReport report = obs::BuildReport(inputs);
    std::printf("\n%s", obs::RenderReportText(report, report_mode).c_str());
    if (!report_json_path.empty()) {
      if (!obs::WriteReportJson(report, report_json_path)) {
        std::fprintf(stderr, "cannot write %s\n", report_json_path.c_str());
        return rc == 0 ? 1 : rc;
      }
      std::printf("wrote %s\n", report_json_path.c_str());
    }
  }
  if (tracing) {
    // Exported whatever the verdict: a failing run's trace is exactly the
    // artifact worth keeping.
    if (!trace_path.empty()) {
      if (!obs::WriteChromeTrace(tracer, trace_path)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return rc == 0 ? 1 : rc;
      }
      std::printf("wrote %s — open at https://ui.perfetto.dev\n",
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      obs::FillTraceMetrics(tracer, metrics);
      if (!metrics.WriteJsonFile("chaos_metrics", metrics_path)) {
        std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
        return rc == 0 ? 1 : rc;
      }
    }
  }
  return rc;
}
