// Reproduces §9's text-only results for control variables 5–9 (Table 2):
//   (5) operations per object 2…16      — unaffected
//   (6) CRDT type {G-Counter, MV-Register, Map} — unaffected
//   (7) workload mix R10M90 … R90M10    — unaffected
//   (8) uniform vs normal per-org load  — slight latency increase only
//   (9) gossip ratio 1…15               — unaffected
#include "bench_common.h"

int main() {
  using namespace orderless::bench;
  const int reps = BenchReps(1);

  PrintBanner("Config 5 — Operations per Object",
              "Expected: throughput and latency unaffected by the number of "
              "operations per object.");
  {
    TablePrinter table(PointHeaders("ops/obj"));
    for (std::int64_t ops : {2, 4, 8, 16}) {
      ExperimentConfig config = SyntheticDefaults();
      config.workload.ops_per_obj = ops;
      PrintPointRow(table, std::to_string(ops) + " ops",
                    RunAveraged(config, reps));
    }
    table.Print();
  }

  PrintBanner("Config 6 — CRDT Type",
              "Expected: results independent of the CRDT type.");
  {
    TablePrinter table(PointHeaders("type"));
    for (const char* type : {"g-counter", "mv-register", "map"}) {
      ExperimentConfig config = SyntheticDefaults();
      config.workload.crdt_type = type;
      PrintPointRow(table, type, RunAveraged(config, reps));
    }
    table.Print();
  }

  PrintBanner("Config 7 — Workload Mix (Read/Modify)",
              "Expected: latency and throughput unaffected from R10M90 to "
              "R90M10.");
  {
    TablePrinter table(PointHeaders("mix"));
    for (double modify : {0.9, 0.7, 0.5, 0.3, 0.1}) {
      ExperimentConfig config = SyntheticDefaults();
      config.workload.modify_fraction = modify;
      const int read_pct = static_cast<int>((1 - modify) * 100 + 0.5);
      PrintPointRow(table,
                    "R" + std::to_string(read_pct) + "M" +
                        std::to_string(100 - read_pct),
                    RunAveraged(config, reps));
    }
    table.Print();
  }

  PrintBanner("Config 8 — Workload Distribution per Organization",
              "Expected: no significant difference between uniform and "
              "normal distributions except slightly higher latency for the "
              "hot organizations.");
  {
    TablePrinter table(PointHeaders("distribution"));
    for (const bool normal : {false, true}) {
      ExperimentConfig config = SyntheticDefaults();
      config.normal_org_load = normal;
      PrintPointRow(table, normal ? "normal" : "uniform",
                    RunAveraged(config, reps));
    }
    table.Print();
  }

  PrintBanner("Config 9 — Gossip Ratio",
              "Expected: throughput and latency unaffected by the gossip "
              "fanout.");
  {
    TablePrinter table(PointHeaders("gossip ratio"));
    for (std::uint32_t fanout : {1u, 5u, 10u, 15u}) {
      ExperimentConfig config = SyntheticDefaults();
      config.org_timing.gossip_fanout = fanout;
      PrintPointRow(table, std::to_string(fanout) + " orgs",
                    RunAveraged(config, reps));
    }
    table.Print();
  }
  return 0;
}
