// CLI experiment runner: run any (system × application × workload)
// combination from the command line without writing code.
//
//   run_experiment --system orderless --app voting --orgs 16 --q 4 \
//                  --rate 3000 --seconds 8 --clients 1000 [--seed 1]
//                  [--modify-fraction 0.5] [--objs 1] [--ops 1]
//                  [--crdt g-counter] [--byz-orgs 3] [--avoidance]
//                  [--trace out.trace.json] [--trace-jsonl out.jsonl]
//                  [--trace-filter kinds] [--metrics-json out.json]
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"

using namespace orderless;

namespace {

void Usage() {
  std::printf(
      "usage: run_experiment [options]\n"
      "  --system  orderless|fabric|fabriccrdt|bidl|synchotstuff\n"
      "  --app     synthetic|voting|auction\n"
      "  --orgs N  --q N  --rate TPS  --seconds S  --clients N  --seed N\n"
      "  --modify-fraction F   (default 0.5)\n"
      "  --objs N --ops N --crdt TYPE   (synthetic app parameters)\n"
      "  --byz-orgs N   --byz-clients F   --avoidance\n"
      "  --gossip-fanout N\n"
      "  --checkpoint-interval-ms N   signed CRDT checkpoints + O(delta)\n"
      "                       catch-up every N ms (orderless only; 0 = off)\n"
      "  --checkpoint-attest  require q-of-n attestations before a\n"
      "                       checkpoint installs (orderless only)\n"
      "  --threads N          simulation worker threads (orderless only;\n"
      "                       results are bit-identical at any N)\n"
      "  --prof               host-side engine profile (lane utilization,\n"
      "                       barrier wait, signature-verify counters;\n"
      "                       orderless only, simulated results unchanged)\n"
      "  --trace PATH         write Chrome trace-event JSON (Perfetto)\n"
      "  --trace-jsonl PATH   write one JSON object per trace event\n"
      "  --trace-filter K,K   only record the named event kinds\n"
      "  --metrics-json PATH  write the metrics registry as JSON\n"
      "  (tracing covers the orderless system only)\n");
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

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  config.num_orgs = 16;
  config.policy = core::EndorsementPolicy{4, 16};
  config.workload.num_clients = 1000;
  std::uint32_t q = 4;
  std::string trace_path, trace_jsonl_path, trace_filter, metrics_path;
  bool profiling = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--system") {
      const char* v = next();
      if (v == nullptr || !ParseSystem(v, config.system)) {
        Usage();
        return 2;
      }
    } else if (arg == "--app") {
      const char* v = next();
      if (v == nullptr || !ParseApp(v, config.app)) {
        Usage();
        return 2;
      }
    } else if (arg == "--orgs") {
      config.num_orgs = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--q") {
      q = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--rate") {
      config.workload.arrival_tps = std::atof(next());
    } else if (arg == "--seconds") {
      config.workload.duration = sim::Sec(
          static_cast<std::uint64_t>(std::atoi(next())));
    } else if (arg == "--clients") {
      config.workload.num_clients =
          static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--modify-fraction") {
      config.workload.modify_fraction = std::atof(next());
    } else if (arg == "--objs") {
      config.workload.obj_count = std::atoll(next());
    } else if (arg == "--ops") {
      config.workload.ops_per_obj = std::atoll(next());
    } else if (arg == "--crdt") {
      config.workload.crdt_type = next();
    } else if (arg == "--byz-orgs") {
      config.byzantine_phases = {
          {0, static_cast<std::uint32_t>(std::atoi(next()))}};
      config.byzantine_org_behavior.ignore_proposal_prob = 0.5;
      config.byzantine_org_behavior.wrong_endorse_prob = 0.5;
    } else if (arg == "--byz-clients") {
      config.byzantine_client_fraction = std::atof(next());
      config.byzantine_client_behavior.active = true;
      config.byzantine_client_behavior.tamper_writeset = true;
    } else if (arg == "--avoidance") {
      config.client_avoidance = true;
      config.client_max_attempts = 3;
    } else if (arg == "--gossip-fanout") {
      config.gossip_fanout = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--checkpoint-interval-ms") {
      config.checkpoint_interval =
          sim::Ms(static_cast<std::uint64_t>(std::atoi(next())));
    } else if (arg == "--checkpoint-attest") {
      config.checkpoint_attest = true;
    } else if (arg == "--threads") {
      config.threads = static_cast<unsigned>(std::atoi(next()));
    } else if (arg == "--prof") {
      profiling = true;
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--trace-jsonl") {
      trace_jsonl_path = next();
    } else if (arg == "--trace-filter") {
      trace_filter = next();
    } else if (arg == "--metrics-json") {
      metrics_path = next();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
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
