// CLI experiment runner: run any (system × application × workload)
// combination from the command line without writing code.
//
//   run_experiment --system orderless --app voting --orgs 16 --q 4
//                  --rate 3000 --seconds 8 --clients 1000 [--seed 1]
//                  [--modify-fraction 0.5] [--objs 1] [--ops 1]
//                  [--crdt g-counter] [--byz-orgs 3] [--avoidance]
//                  [--trace out.trace.json] [--trace-jsonl out.jsonl]
//                  [--trace-filter kinds] [--metrics-json out.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "cli.h"
#include "contracts/synthetic.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

using namespace orderless;
using orderless::cli::ParseUint;

namespace {

void Usage() {
  std::printf(
      "usage: run_experiment [options]\n"
      "  --system  orderless|fabric|fabriccrdt|bidl|synchotstuff\n"
      "  --app     synthetic|voting|auction\n"
      "  --orgs N  --q N  --rate TPS  --seconds S  --clients N  --seed N\n"
      "                       (orgs, clients and rate x seconds at least\n"
      "                       1, q in 1..orgs)\n"
      "  --modify-fraction F   (0..1, default 0.5)\n"
      "  --objs N --ops N --crdt TYPE   (synthetic app parameters: objs and\n"
      "                       ops at least 1, TYPE g-counter|mv-register|map)\n"
      "  --byz-orgs N (at most orgs)  --byz-clients F (0..1)  --avoidance\n"
      "  --gossip-fanout N\n"
      "  --checkpoint-interval-ms N   signed CRDT checkpoints + O(delta)\n"
      "                       catch-up every N ms; a checkpoint installs\n"
      "                       only with q-of-n attestations (orderless\n"
      "                       only; 0 = off)\n"
      "  --threads N          simulation worker threads, 1..%u (orderless\n"
      "                       only; results are bit-identical at any N)\n"
      "  --prof               host-side engine profile (lane utilization,\n"
      "                       barrier wait, signature-verify counters;\n"
      "                       orderless only, simulated results unchanged)\n"
      "  --trace PATH         write Chrome trace-event JSON (Perfetto)\n"
      "  --trace-jsonl PATH   write one JSON object per trace event\n"
      "  --trace-filter K,K   only record the named event kinds\n"
      "  --metrics-json PATH  write the metrics registry as JSON\n"
      "  (tracing covers the orderless system only)\n",
      sim::kMaxThreads);
}

bool ParseSystem(const std::string& s, harness::SystemKind& out) {
  if (s == "orderless") out = harness::SystemKind::kOrderless;
  else if (s == "fabric") out = harness::SystemKind::kFabric;
  else if (s == "fabriccrdt") out = harness::SystemKind::kFabricCrdt;
  else if (s == "bidl") out = harness::SystemKind::kBidl;
  else if (s == "synchotstuff") out = harness::SystemKind::kSyncHotStuff;
  else return false;
  return true;
}

bool ParseApp(const std::string& s, harness::AppKind& out) {
  if (s == "synthetic") out = harness::AppKind::kSynthetic;
  else if (s == "voting") out = harness::AppKind::kVoting;
  else if (s == "auction") out = harness::AppKind::kAuction;
  else return false;
  return true;
}

/// A finite, non-negative number that fills all of `s`.
bool ParseReal(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  config.num_orgs = 16;
  config.workload.num_clients = 1000;
  std::uint32_t q = 4;
  std::string trace_path, trace_jsonl_path, trace_filter, metrics_path;
  bool profiling = false;

  // Options that take one value; each setter reports whether it parsed.
  using Setter = std::function<bool(const char*)>;
  auto text = [](std::string& out) -> Setter {
    return [&out](const char* v) {
      out = v;
      return true;
    };
  };
  auto count = [](auto& out) -> Setter {
    return [&out](const char* v) { return ParseUint(v, out); };
  };
  auto real = [](double& out) -> Setter {
    return [&out](const char* v) { return ParseReal(v, out); };
  };
  const std::map<std::string, Setter> value_options = {
      {"--system",
       [&](const char* v) { return ParseSystem(v, config.system); }},
      {"--app", [&](const char* v) { return ParseApp(v, config.app); }},
      {"--orgs", count(config.num_orgs)},
      {"--q", count(q)},
      {"--rate", real(config.workload.arrival_tps)},
      {"--seconds",
       [&](const char* v) {
         std::uint32_t seconds = 0;
         if (!ParseUint(v, seconds)) return false;
         config.workload.duration = sim::Sec(seconds);
         return true;
       }},
      {"--clients", count(config.workload.num_clients)},
      {"--seed", count(config.seed)},
      {"--modify-fraction", real(config.workload.modify_fraction)},
      {"--objs", count(config.workload.obj_count)},
      {"--ops", count(config.workload.ops_per_obj)},
      {"--crdt", text(config.workload.crdt_type)},
      {"--byz-orgs",
       [&](const char* v) {
         std::uint32_t byz_orgs = 0;
         if (!ParseUint(v, byz_orgs)) return false;
         config.byzantine_phases = {{0, byz_orgs}};
         config.byzantine_org_behavior.ignore_proposal_prob = 0.5;
         config.byzantine_org_behavior.wrong_endorse_prob = 0.5;
         return true;
       }},
      {"--byz-clients",
       [&](const char* v) {
         if (!ParseReal(v, config.byzantine_client_fraction)) return false;
         config.byzantine_client_behavior.active = true;
         config.byzantine_client_behavior.tamper_writeset = true;
         return true;
       }},
      {"--gossip-fanout", count(config.org_timing.gossip_fanout)},
      {"--checkpoint-interval-ms",
       [&](const char* v) {
         std::uint32_t checkpoint_ms = 0;
         if (!ParseUint(v, checkpoint_ms)) return false;
         config.org_timing.checkpoint.interval = sim::Ms(checkpoint_ms);
         return true;
       }},
      {"--threads", count(config.threads)},
      {"--trace", text(trace_path)},
      {"--trace-jsonl", text(trace_jsonl_path)},
      {"--trace-filter", text(trace_filter)},
      {"--metrics-json", text(metrics_path)},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--avoidance") {
      config.client_timing.avoid_byzantine = true;
      config.client_timing.max_attempts = 3;
    } else if (arg == "--prof") {
      profiling = true;
    } else if (const auto it = value_options.find(arg);
               it != value_options.end()) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return 2;
      }
      if (!it->second(argv[++i])) {
        std::fprintf(stderr, "invalid value for %s: %s\n", arg.c_str(),
                     argv[i]);
        Usage();
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  // Inputs that would crash the run or run an empty or meaningless one.
  const harness::WorkloadConfig& w = config.workload;
  const std::uint32_t byz_orgs = config.byzantine_phases.empty()
                                     ? 0
                                     : config.byzantine_phases[0].byzantine_orgs;
  const bool known_crdt = w.crdt_type == contracts::kTypeGCounter ||
                          w.crdt_type == contracts::kTypeMVRegister ||
                          w.crdt_type == contracts::kTypeMap;
  const std::string threads_rule =
      "--threads must be in 1.." + std::to_string(sim::kMaxThreads);
  const std::pair<bool, const char*> rules[] = {
      {config.num_orgs == 0, "--orgs must be at least 1"},
      {w.num_clients == 0, "--clients must be at least 1"},
      {q == 0 || q > config.num_orgs, "--q must be in 1..orgs"},
      {w.arrival_tps * sim::ToSec(w.duration) < 1,
       "--rate times --seconds must be at least 1 (nothing is submitted)"},
      {w.modify_fraction > 1, "--modify-fraction must be in 0..1"},
      {byz_orgs > config.num_orgs, "--byz-orgs must not exceed --orgs"},
      {config.byzantine_client_fraction > 1, "--byz-clients must be in 0..1"},
      {w.obj_count == 0, "--objs must be at least 1"},
      {w.ops_per_obj == 0, "--ops must be at least 1"},
      {!known_crdt, "--crdt must be g-counter, mv-register or map"},
      {config.threads == 0 || config.threads > sim::kMaxThreads,
       threads_rule.c_str()},
  };
  for (const auto& [broken, rule] : rules) {
    if (broken) {
      std::fprintf(stderr, "%s\n", rule);
      Usage();
      return 2;
    }
  }
  config.policy = core::EndorsementPolicy{q, config.num_orgs};

  const bool tracing = !trace_path.empty() || !trace_jsonl_path.empty();
  obs::TracerConfig tracer_config;
  tracer_config.kind_mask = obs::ParseKindMask(trace_filter);
  obs::Tracer tracer(tracer_config);
  if (tracing) {
    if (config.system != harness::SystemKind::kOrderless) {
      std::fprintf(stderr, "tracing covers --system orderless only\n");
      return 2;
    }
    config.tracer = &tracer;
  }
  obs::Profiler profiler;
  if (profiling) {
    if (config.system != harness::SystemKind::kOrderless) {
      std::fprintf(stderr, "--prof covers --system orderless only\n");
      return 2;
    }
    config.profiler = &profiler;
  }

  std::printf("system=%s app=%s orgs=%u EP=%s rate=%.0f tps duration=%.0fs "
              "clients=%u seed=%llu\n",
              std::string(harness::SystemName(config.system)).c_str(),
              std::string(harness::AppName(config.app)).c_str(),
              config.num_orgs, config.policy.ToString().c_str(),
              config.workload.arrival_tps,
              sim::ToSec(config.workload.duration),
              config.workload.num_clients,
              static_cast<unsigned long long>(config.seed));

  const auto result = harness::RunExperiment(config);
  const auto& m = result.metrics;
  std::printf("\nsubmitted            %llu\n",
              static_cast<unsigned long long>(m.submitted));
  std::printf("committed (modify)   %llu\n",
              static_cast<unsigned long long>(m.committed_modify));
  std::printf("committed (read)     %llu\n",
              static_cast<unsigned long long>(m.committed_read));
  std::printf("failed / rejected    %llu / %llu\n",
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.rejected));
  std::printf("throughput           %.0f tps\n", m.ThroughputTps());
  std::printf("modify latency       avg %.1f  p1 %.1f  p99 %.1f ms\n",
              m.modify_latency.AverageMs(), m.modify_latency.PercentileMs(1),
              m.modify_latency.PercentileMs(99));
  std::printf("read latency         avg %.1f  p1 %.1f  p99 %.1f ms\n",
              m.read_latency.AverageMs(), m.read_latency.PercentileMs(1),
              m.read_latency.PercentileMs(99));
  std::printf("\nphase breakdown (organization-side):\n");
  for (const auto& [phase, ms] : result.breakdown.phases) {
    std::printf("  %-14s %10.1f ms\n", phase.c_str(), ms);
  }

  if (profiling) {
    std::printf("\n%s", profiler.RenderText().c_str());
  }
  if (tracing) {
    std::printf("\ntraced phases (%zu events, %llu dropped):\n",
                tracer.events().size(),
                static_cast<unsigned long long>(tracer.dropped()));
    for (const obs::PhaseSummary& phase : tracer.Phases()) {
      std::printf("  %-14s count %8llu  avg %8.3f ms  max %8.3f ms\n",
                  std::string(obs::EventKindName(phase.kind)).c_str(),
                  static_cast<unsigned long long>(phase.count), phase.avg_ms,
                  phase.max_ms);
    }
    if (!trace_path.empty()) {
      if (!obs::WriteChromeTrace(tracer, trace_path)) {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
      std::printf("wrote %s — open at https://ui.perfetto.dev\n",
                  trace_path.c_str());
    }
    if (!trace_jsonl_path.empty()) {
      if (!obs::WriteJsonl(tracer, trace_jsonl_path)) {
        std::fprintf(stderr, "cannot write %s\n", trace_jsonl_path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", trace_jsonl_path.c_str());
    }
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry registry;
    m.FillRegistry(registry);
    registry.counter("experiment.events_processed")
        .Add(result.events_processed);
    if (tracing) obs::FillTraceMetrics(tracer, registry);
    if (profiling) profiler.Fill(registry);
    if (!registry.WriteJsonFile("experiment_metrics", metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
