// orderless_bench: the repository benchmark. Runs the four workloads of
// workload.cpp, each repetition in a forked child, checks the outputs, and
// prints every metric BENCHMARK.json lists, by name and with its unit. See
// benchmark/README.md.
//
//   orderless_bench [--workload NAME]... [--seed S] [--reps N] [--seconds T]
//                   [--trace 0|1 | --traced] [--out FILE.json]
//   orderless_bench compare PARENT.json CHANGE.json
//   orderless_bench selftest
//
// The metric list, units, directions and bounds come from the BENCHMARK.json
// next to benchmark/. The last line of a run's standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; a failed output
// check makes the exit code 1.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.h"
#include "crypto/sha256.h"
#include "layers.h"
#include "obs/json_subset.h"
#include "stats.h"
#include "workload.h"

namespace orderless::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kSpecPath = ORDERLESS_BENCHMARK_SPEC;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 50;

// ---------------------------------------------------------------------------
// BENCHMARK.json: the metric names, units, directions and bounds.

struct BenchSpec {
  std::vector<MetricBound> end_to_end;
  std::vector<MetricBound> per_layer;
};

bool LoadSpec(BenchSpec& spec, std::string& error) {
  const std::string path = kSpecPath;
  std::string text;
  if (!obs::json::ReadFile(path, text)) {
    error = "cannot read " + path;
    return false;
  }
  obs::json::JsonValue doc;
  if (!obs::json::Parser(text).Parse(doc, error)) return false;
  for (const auto& [key, list] :
       {std::pair{"end_to_end", &spec.end_to_end},
        std::pair{"per_layer", &spec.per_layer}}) {
    const obs::json::JsonValue* entries = doc.Find(key);
    if (!entries || entries->type != obs::json::JsonValue::Type::kArray) {
      error = path + ": missing " + key;
      return false;
    }
    for (const obs::json::JsonValue& e : entries->array) {
      const auto* name = e.Find("name");
      const auto* unit = e.Find("unit");
      const auto* better = e.Find("better");
      const auto* bound = e.Find("bound");
      if (!name || !unit || !better) {
        error = path + ": " + key + " entry without name/unit/better";
        return false;
      }
      list->push_back({name->string, unit->string,
                       better->string == "higher" ? Better::kHigher
                                                  : Better::kLower,
                       bound ? bound->number : 0.0});
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// One repetition in a forked child, so that peak RSS belongs to it alone.

/// Scales a repetition's host times to the reference machine speed, given
/// the calibration passes taken at its pauses (see calibrate.h). CPU time
/// and the single-threaded set-up scale with the kernel's CPU time per
/// thread, raised to kCpuElasticity. So does the run phase's wall time on
/// one thread, which is its CPU time. A parallel run phase's wall time also
/// scales with how much longer the kernel's wall time on as many threads
/// ran than its CPU time, which is the vCPUs the host took away. Both
/// factors are kept, so the times as measured can be recovered.
void ScaleToReference(RepResult& rep, unsigned threads,
                      const std::vector<CalibrationPass>& passes) {
  double wall_s = 0;
  double cpu_s = 0;
  for (const CalibrationPass& pass : passes) {
    wall_s += pass.wall_s / static_cast<double>(passes.size());
    cpu_s += pass.cpu_s / static_cast<double>(passes.size());
  }
  const double cpu = std::pow(cpu_s / kReferenceCpuS, kCpuElasticity);
  const double wall =
      threads > 1
          ? cpu * (wall_s / cpu_s) / (kReferenceWallS / kReferenceCpuS)
          : cpu;
  rep.values["machine_slowdown"] = wall;
  rep.values["machine_cpu_slowdown"] = cpu;
  rep.values["host_tx_per_s"] *= wall;
  rep.values["run_s"] /= wall;
  rep.values["cpu_us_per_tx"] /= cpu;
  rep.values["setup_s"] /= cpu;
}

/// What the child sends at each pause of its run phase. A report line
/// never starts with it.
constexpr char kPauseByte = '\x01';

/// The child stops at every pause of its run phase (see RunRep) until the
/// parent has timed one calibration pass, so the passes sample the machine
/// all through the repetition and take no time from it.
RepResult ForkRep(const WorkloadSpec& spec, std::uint64_t seed, Trace trace) {
  RepResult result;
  int report[2];  // child to parent: pause bytes, then the report
  int resume[2];  // parent to child: one byte ends a pause
  if (pipe(report) != 0) {
    result.failures.push_back("pipe() failed");
    return result;
  }
  if (pipe(resume) != 0) {
    close(report[0]);
    close(report[1]);
    result.failures.push_back("pipe() failed");
    return result;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    for (const int fd : {report[0], report[1], resume[0], resume[1]}) {
      close(fd);
    }
    result.failures.push_back("fork() failed");
    return result;
  }
  if (pid == 0) {
    close(report[0]);
    close(resume[1]);
    const auto pause = [&report, &resume] {
      char byte = kPauseByte;
      if (write(report[1], &byte, 1) != 1 || read(resume[0], &byte, 1) != 1) {
        _exit(1);
      }
    };
    int code = 0;
    std::string text;
    try {
      text = RunRep(spec, seed, trace, pause).Serialize();
    } catch (const std::exception& e) {
      text = std::string("f repetition threw: ") + e.what() + "\n";
      code = 1;
    }
    for (std::size_t done = 0; done < text.size();) {
      const ssize_t n =
          write(report[1], text.data() + done, text.size() - done);
      if (n <= 0) _exit(1);
      done += static_cast<std::size_t>(n);
    }
    // Skip teardown: the parent only needs the report and the exit status.
    _exit(code);
  }
  close(report[1]);
  close(resume[0]);
  std::string text;
  std::vector<CalibrationPass> passes;
  char buf[4096];
  for (ssize_t n; (n = read(report[0], buf, sizeof buf)) > 0;) {
    // A paused child writes nothing more until it is resumed, so a pause
    // byte always arrives alone.
    if (text.empty() && n == 1 && buf[0] == kPauseByte) {
      passes.push_back(Calibrate(spec.threads));
      if (write(resume[1], buf, 1) != 1) break;
      continue;
    }
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(report[0]);
  close(resume[1]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!RepResult::Parse(text, result)) {
    result.failures.push_back("unreadable repetition report");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.failures.push_back(spec.name + " repetition exited abnormally");
  }
  if (passes.size() != kRunSlices + 1) {
    result.failures.push_back(spec.name + " repetition paused " +
                              std::to_string(passes.size()) + " times");
    return result;
  }
  result.values["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  ScaleToReference(result, spec.threads, passes);
  return result;
}

// ---------------------------------------------------------------------------
// A full run: repetitions, the twin and traced runs, and the checks.

struct Options {
  std::vector<WorkloadSpec> workloads;
  std::uint64_t seed = 1;
  int reps = kMinReps;
  double seconds = 0;  // > 0: repeat until this much time per workload
  bool traced = false;
  double scale = 1;  // multiplies every submission window (self-test only)
  std::string out;
};

struct WorkloadRun {
  WorkloadSpec spec;
  std::string inputs_digest;
  std::vector<RepResult> reps;
  RepResult traced;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Absorb(const RepResult& rep, const std::string& label) {
    for (const std::string& f : rep.failures) {
      failures.push_back(label + ": " + f);
    }
    attempted += static_cast<std::uint64_t>(rep.at("submitted"));
    failed += static_cast<std::uint64_t>(rep.at("failed"));
  }
  std::vector<double> Runs(const std::string& metric) const {
    std::vector<double> runs;
    for (const RepResult& rep : reps) runs.push_back(rep.at(metric));
    return runs;
  }
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A run's value of an end-to-end metric: the median over repetitions.
double RunValue(const WorkloadRun& run, const MetricBound& metric) {
  return QuartilesOf(run.Runs(metric.name)).median;
}

std::vector<WorkloadRun> RunWorkloads(const Options& opt) {
  std::vector<WorkloadRun> runs;
  for (WorkloadSpec spec : opt.workloads) {
    spec.submit_s *= opt.scale;
    WorkloadRun run;
    run.spec = spec;
    run.inputs_digest = InputsDigest(spec, MakePlan(spec, opt.seed));
    std::printf("workload %s seed %llu inputs_digest %s\n", spec.name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                run.inputs_digest.c_str());
    runs.push_back(std::move(run));
  }

  // The threads=1 twin of a parallel workload runs first, so that --seconds
  // covers it too.
  const Clock::time_point start = Clock::now();
  std::vector<RepResult> twins(runs.size());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    if (runs[k].spec.threads > 1) {
      WorkloadSpec twin = runs[k].spec;
      twin.threads = 1;
      twins[k] = ForkRep(twin, opt.seed, Trace::kOff);
      runs[k].Absorb(twins[k], "threads=1 twin");
    }
  }

  // Untraced repetitions; with several workloads each round runs them in
  // rotated order, so slow drift in the host spreads over all of them. A
  // traced run ignores --seconds: its untraced repetitions only serve the
  // determinism check and the tracing overhead.
  const double budget = opt.seconds * static_cast<double>(runs.size());
  const bool timed = opt.seconds > 0 && !opt.traced;
  for (int round = 0;; ++round) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      WorkloadRun& run =
          runs[(k + static_cast<std::size_t>(round)) % runs.size()];
      run.reps.push_back(ForkRep(run.spec, opt.seed, Trace::kOff));
      run.Absorb(run.reps.back(), "rep " + std::to_string(round));
    }
    const int done = round + 1;
    if (!timed) {
      if (done >= opt.reps) break;
    } else if (done >= kMaxReps ||
               (done >= kMinReps &&
                SecondsSince(start) * (done + 1) / done > budget)) {
      break;  // the next round would overrun the budget
    }
  }

  for (std::size_t k = 0; k < runs.size(); ++k) {
    WorkloadRun& run = runs[k];
    const std::string fingerprint = run.reps.front().text("fingerprint");
    for (const RepResult& rep : run.reps) {
      if (rep.text("fingerprint") != fingerprint) {
        run.failures.push_back("repetitions disagree on the simulated outputs");
        break;
      }
    }
    // p99 must keep at least 30 samples beyond it; the check needs the
    // full-size inputs, so scaled-down self-test runs skip it.
    for (const char* cls : {"modify", "read"}) {
      const double beyond =
          run.reps.front().at(std::string("sim_") + cls + "_beyond_p99");
      if (opt.scale >= 1 && beyond < 30) {
        run.failures.push_back(std::string(cls) + " p99 has only " +
                               std::to_string(static_cast<int>(beyond)) +
                               " samples beyond it");
      }
    }
    // The parallel engine must reproduce the sequential engine exactly.
    if (run.spec.threads > 1 && twins[k].text("fingerprint") != fingerprint) {
      run.failures.push_back("threads=1 and threads=" +
                             std::to_string(run.spec.threads) +
                             " simulated outputs differ");
    }
    if (opt.traced) {
      run.traced = ForkRep(run.spec, opt.seed, Trace::kAllKinds);
      if (run.traced.at("obs.trace_dropped") > 0) {
        // The buffer overflowed: keep only what the critical path needs.
        run.traced = ForkRep(run.spec, opt.seed, Trace::kCriticalPath);
      }
      run.Absorb(run.traced, "traced run");
      if (run.traced.text("fingerprint") != fingerprint) {
        run.failures.push_back("traced and untraced simulated outputs differ");
      }
      run.traced.values["obs.traced_slowdown"] =
          run.traced.at("run_s") / QuartilesOf(run.Runs("run_s")).median;
    }
  }
  return runs;
}

// ---------------------------------------------------------------------------
// Output.

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

bool HasValue(const RepResult& rep, const std::string& name) {
  return rep.values.count(name) > 0;
}

/// The run is correct when no check failed and every listed metric exists.
bool CheckComplete(WorkloadRun& run, const BenchSpec& spec, bool traced) {
  for (const MetricBound& m : spec.end_to_end) {
    if (!HasValue(run.reps.front(), m.name)) {
      run.failures.push_back("no value for " + m.name);
    }
  }
  if (traced) {
    for (const MetricBound& m : spec.per_layer) {
      if (!HasValue(run.traced, m.name)) {
        run.failures.push_back("no value for " + m.name);
      }
    }
  }
  return run.failures.empty();
}

void PrintHuman(const WorkloadRun& run, const BenchSpec& spec, bool traced) {
  std::printf("== %s: %zu reps, fingerprint %s\n", run.spec.name.c_str(),
              run.reps.size(),
              run.reps.front().text("fingerprint").substr(0, 16).c_str());
  for (const MetricBound& m : spec.end_to_end) {
    const Quartiles q = QuartilesOf(run.Runs(m.name));
    std::printf("  %-26s %14.6g %-8s reps: q1 %.6g q3 %.6g\n",
                m.name.c_str(), RunValue(run, m), m.unit.c_str(), q.q1, q.q3);
  }
  const RepResult& first = run.reps.front();
  const Quartiles wall = QuartilesOf(run.Runs("machine_slowdown"));
  const Quartiles cpu = QuartilesOf(run.Runs("machine_cpu_slowdown"));
  std::printf("  machine slowdown (host times divided by it): wall median "
              "%.4g q1 %.4g q3 %.4g, cpu median %.4g q1 %.4g q3 %.4g\n",
              wall.median, wall.q1, wall.q3, cpu.median, cpu.q1, cpu.q3);
  std::printf("  latency samples: modify %.0f (%.0f beyond p99), read %.0f "
              "(%.0f beyond p99); failed %llu of %llu attempted\n",
              first.at("sim_modify_samples"), first.at("sim_modify_beyond_p99"),
              first.at("sim_read_samples"), first.at("sim_read_beyond_p99"),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  if (traced) {
    for (const MetricBound& m : spec.per_layer) {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), run.traced.at(m.name),
                  m.unit.c_str());
    }
    std::printf("  crypto kernel: %s\n",
                run.traced.text("crypto.kernel").c_str());
  }
  for (const std::string& f : run.failures) {
    std::printf("  CHECK FAILED: %s\n", f.c_str());
  }
}

std::string ReadFirstLine(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The full result document (`--out`), which `compare` reads.
std::string DocJson(const std::vector<WorkloadRun>& runs, const Options& opt,
                    const BenchSpec& spec) {
  std::string out = "{\n  \"benchmark\": \"orderless_bench\",\n";
  out += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  out += "  \"git_describe\": " + Quote(ORDERLESS_GIT_DESCRIBE) + ",\n";
  out += "  \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " +
         Quote(ReadFirstLine("/proc/cpuinfo", "model name")) +
         ", \"sha_ni\": " + (crypto::batch::CpuHasShaNi() ? "true" : "false") +
         ", \"avx2\": " + (crypto::batch::CpuHasAvx2() ? "true" : "false") +
         ", \"crypto_kernel\": " +
         Quote(KernelName(crypto::batch::ActiveKernel(5))) +
         ", \"compiler\": " + Quote(std::string("GCC ") + __VERSION__) +
         ", \"calibration_reference_s\": {\"cpu\": " + Num(kReferenceCpuS) +
         ", \"wall_4_threads\": " + Num(kReferenceWallS) + "}},\n";
  out += "  \"workloads\": {";
  for (std::size_t w = 0; w < runs.size(); ++w) {
    const WorkloadRun& run = runs[w];
    out += std::string(w ? "," : "") + "\n    " + Quote(run.spec.name) +
           ": {\n";
    out += "      \"inputs_digest\": " + Quote(run.inputs_digest) + ",\n";
    out += "      \"fingerprint\": " +
           Quote(run.reps.front().text("fingerprint")) + ",\n";
    out += "      \"correct\": " +
           std::string(run.failures.empty() ? "true" : "false") +
           ",\n      \"failures\": [";
    for (std::size_t i = 0; i < run.failures.size(); ++i) {
      out += (i ? ", " : "") + Quote(run.failures[i]);
    }
    out += "],\n      \"end_to_end\": {";
    for (std::size_t i = 0; i < spec.end_to_end.size(); ++i) {
      const MetricBound& m = spec.end_to_end[i];
      const std::vector<double> values = run.Runs(m.name);
      const Quartiles q = QuartilesOf(values);
      out += std::string(i ? "," : "") + "\n        " + Quote(m.name) +
             ": {\"unit\": " + Quote(m.unit) +
             ", \"value\": " + Num(RunValue(run, m)) +
             ", \"median\": " + Num(q.median) + ", \"q1\": " + Num(q.q1) +
             ", \"q3\": " + Num(q.q3) + ", \"runs\": [";
      for (std::size_t r = 0; r < values.size(); ++r) {
        out += (r ? ", " : "") + Num(values[r]);
      }
      out += "]}";
    }
    out += "\n      }";
    for (const char* factor : {"machine_slowdown", "machine_cpu_slowdown"}) {
      out += ",\n      " + Quote(factor) + ": [";
      const std::vector<double> slowdown = run.Runs(factor);
      for (std::size_t r = 0; r < slowdown.size(); ++r) {
        out += (r ? ", " : "") + Num(slowdown[r]);
      }
      out += "]";
    }
    if (opt.traced) {
      out += ",\n      \"per_layer\": {";
      for (std::size_t i = 0; i < spec.per_layer.size(); ++i) {
        const MetricBound& m = spec.per_layer[i];
        out += std::string(i ? "," : "") + "\n        " + Quote(m.name) +
               ": {\"unit\": " + Quote(m.unit) +
               ", \"value\": " + Num(run.traced.at(m.name)) + "}";
      }
      out += "\n      },\n      \"crypto_kernel\": " +
             Quote(run.traced.text("crypto.kernel"));
    }
    out += "\n    }";
  }
  out += "\n  }\n}\n";
  return out;
}

/// The last line of standard output: end-to-end metrics, or per-layer
/// metrics for a traced run. With several workloads, names are prefixed
/// "<workload>/".
std::string ResultLine(const std::vector<WorkloadRun>& runs,
                       const BenchSpec& spec, bool traced, bool correct) {
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const WorkloadRun& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
    const std::string prefix = runs.size() > 1 ? run.spec.name + "/" : "";
    for (const MetricBound& m : traced ? spec.per_layer : spec.end_to_end) {
      const double value = traced ? run.traced.at(m.name) : RunValue(run, m);
      metrics += std::string(metrics.empty() ? "" : ", ") +
                 Quote(prefix + m.name) + ": {\"value\": " + Num(value) +
                 ", \"unit\": " + Quote(m.unit) + "}";
    }
  }
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int RunMain(const Options& opt) {
  BenchSpec spec;
  std::string error;
  if (!LoadSpec(spec, error)) {
    std::fprintf(stderr, "orderless_bench: %s\n", error.c_str());
    return 2;
  }
  std::vector<WorkloadRun> runs = RunWorkloads(opt);
  bool correct = true;
  for (WorkloadRun& run : runs) {
    correct &= CheckComplete(run, spec, opt.traced);
    PrintHuman(run, spec, opt.traced);
  }
  if (!opt.out.empty() && !WriteFile(opt.out, DocJson(runs, opt, spec))) {
    std::fprintf(stderr, "orderless_bench: cannot write %s\n", opt.out.c_str());
    correct = false;
  }
  std::printf("%s\n", ResultLine(runs, spec, opt.traced, correct).c_str());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// compare PARENT.json CHANGE.json

bool LoadRuns(const std::string& path, obs::json::JsonValue& doc) {
  std::string text, error;
  if (!obs::json::ReadFile(path, text) ||
      !obs::json::Parser(text).Parse(doc, error) || !doc.Find("workloads")) {
    std::fprintf(stderr, "compare: cannot read %s %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  return true;
}

std::vector<double> RunsOf(const obs::json::JsonValue& doc,
                           const std::string& workload,
                           const std::string& metric) {
  std::vector<double> values;
  const auto* w = doc.Find("workloads")->Find(workload);
  const auto* e2e = w ? w->Find("end_to_end") : nullptr;
  const auto* m = e2e ? e2e->Find(metric) : nullptr;
  const auto* runs = m ? m->Find("runs") : nullptr;
  if (runs) {
    for (const auto& v : runs->array) values.push_back(v.number);
  }
  return values;
}

int Compare(const std::string& parent_path, const std::string& change_path) {
  BenchSpec spec;
  std::string error;
  obs::json::JsonValue parent, change;
  if (!LoadSpec(spec, error)) {
    std::fprintf(stderr, "compare: %s\n", error.c_str());
    return 2;
  }
  if (!LoadRuns(parent_path, parent) || !LoadRuns(change_path, change)) {
    return 2;
  }
  int worse = 0, compared = 0;
  std::printf("%-14s %-20s %13s %21s %13s  %s\n", "workload", "metric",
              "parent", "parent q1..q3", "change", "verdict");
  for (const auto& [workload, unused] : parent.Find("workloads")->object) {
    (void)unused;
    for (const MetricBound& m : spec.end_to_end) {
      const std::vector<double> a = RunsOf(parent, workload, m.name);
      const std::vector<double> b = RunsOf(change, workload, m.name);
      if (a.empty() || b.empty()) {
        std::printf("%-14s %-20s missing in one result\n", workload.c_str(),
                    m.name.c_str());
        continue;
      }
      const Verdict v = Classify(a, b, m);
      const Quartiles q = QuartilesOf(a);
      std::printf("%-14s %-20s %13.6g %10.6g..%-10.6g %13.6g  %s\n",
                  workload.c_str(), m.name.c_str(), q.median, q.q1, q.q3,
                  QuartilesOf(b).median, VerdictName(v));
      worse += v == Verdict::kWorse;
      ++compared;
    }
  }
  std::printf("%d pairs compared, %d worse\n", compared, worse);
  return worse > 0 || compared == 0 ? 1 : 0;
}

// ---------------------------------------------------------------------------
// selftest: unit checks, then every workload at a tiny scale, every check
// armed, and a compare round trip over the written result documents.

int g_selftest_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_selftest_failures;
    std::printf("SELFTEST FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

const MetricBound* Find(const BenchSpec& spec, const std::string& name) {
  for (const MetricBound& m : spec.end_to_end) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::vector<double> Scaled(std::vector<double> v, double factor) {
  for (double& x : v) x *= factor;
  return v;
}

int SelfTest() {
  const std::vector<int> ten = {3, 1, 4, 10, 5, 9, 2, 6, 8, 7};
  std::vector<int> sorted = ten;
  std::sort(sorted.begin(), sorted.end());
  Expect(NearestRank(sorted, 50) == 5, "nearest-rank p50 of 1..10 is 5");
  Expect(NearestRank(sorted, 90) == 9, "nearest-rank p90 of 1..10 is 9");
  Expect(NearestRank(sorted, 99) == 10, "nearest-rank p99 of 1..10 is 10");
  Expect(NearestRank(sorted, 0) == 1, "nearest-rank p0 is the minimum");
  Expect(NearestRank(std::vector<int>{7}, 99) == 7, "one sample is every rank");
  Expect(SamplesBeyond(1000, 99) == 10, "p99 of 1000 has 10 beyond it");
  Expect(SamplesBeyond(5, 99) == 0, "p99 of 5 has none beyond it");

  const std::vector<double> ten_d(sorted.begin(), sorted.end());
  const Quartiles q10 = QuartilesOf(ten_d);
  Expect(Near(q10.q1, 2.75) && Near(q10.median, 5.5) && Near(q10.q3, 8.25),
         "quartiles of 1..10 match statistics.quantiles");
  const Quartiles q2 = QuartilesOf({5, 1});
  Expect(Near(q2.q1, 0) && Near(q2.median, 3) && Near(q2.q3, 6),
         "quartiles of two values match statistics.quantiles");
  const Quartiles q4 = QuartilesOf({40, 10, 30, 20});
  Expect(Near(q4.q1, 12.5) && Near(q4.q3, 37.5),
         "quartiles of four values match statistics.quantiles");
  Expect(Near(QuartilesOf({3, 1, 2}).median, 2) &&
             Near(QuartilesOf({4, 1, 3, 2}).median, 2.5),
         "median of odd and even counts");

  BenchSpec spec;
  std::string error;
  if (!LoadSpec(spec, error)) {
    std::printf("SELFTEST FAILED: %s\n", error.c_str());
    return 1;
  }
  const MetricBound* tps = Find(spec, "host_tx_per_s");
  const MetricBound* p99 = Find(spec, "sim_modify_p99_ms");
  Expect(tps && p99,
         "BENCHMARK.json lists host_tx_per_s and sim_modify_p99_ms");
  if (tps && p99) {
    const std::vector<double> host = {1000, 1012, 991, 1005, 998};
    const std::vector<double> sim(5, 412.5);
    Expect(Classify(host, host, *tps) == Verdict::kUnchanged,
           "identical host runs are unchanged");
    Expect(Classify(sim, sim, *p99) == Verdict::kUnchanged,
           "identical simulated runs are unchanged");
    Expect(Classify(host, Scaled(host, 0.5), *tps) == Verdict::kWorse,
           "a 2x drop in host_tx_per_s is worse");
    const double past_bound = 1 + p99->bound + 0.01;
    Expect(Classify(sim, Scaled(sim, past_bound), *p99) == Verdict::kWorse,
           "sim_modify_p99_ms 1% past its bound is worse");
    Expect(Classify(sim, Scaled(sim, 1 + p99->bound / 2), *p99) !=
               Verdict::kWorse,
           "sim_modify_p99_ms within its bound is not worse");
    Expect(Classify(host, Scaled(host, 1.5), *tps) == Verdict::kImproved,
           "a 1.5x gain in every run is improved");
    const std::vector<double> wide = {1000, 1300, 700, 1150, 850};
    Expect(Classify(wide, Scaled(wide, 0.99), *tps) == Verdict::kUnresolved,
           "a spread wider than the bound is unresolved");
    Expect(Classify(wide, Scaled(wide, 3.0), *tps) == Verdict::kImproved,
           "a wide spread still resolves when every change run is better");
  }

  Options opt;
  opt.workloads = Workloads();
  opt.scale = 0.05;
  opt.reps = 2;
  opt.traced = true;
  std::vector<WorkloadRun> runs = RunWorkloads(opt);
  for (WorkloadRun& run : runs) {
    Expect(CheckComplete(run, spec, true),
           run.spec.name + " passes every check");
    PrintHuman(run, spec, true);
    Expect(run.failed == 0, run.spec.name + " has no failed submission");
    Expect(Near(run.traced.at("client.outcomes_per_submit"), 1),
           run.spec.name + " has one outcome per submission");
  }
  const std::string a = "selftest_parent.json", b = "selftest_change.json";
  Expect(WriteFile(a, DocJson(runs, opt, spec)), "write " + a);
  Expect(Compare(a, a) == 0, "compare of a result with itself passes");
  // Simulated values repeat exactly, so this verdict cannot be unresolved.
  const double past_bound = p99 ? 1 + p99->bound + 0.01 : 2;
  for (RepResult& rep : runs.front().reps) {
    rep.values["sim_modify_p99_ms"] *= past_bound;
  }
  Expect(WriteFile(b, DocJson(runs, opt, spec)), "write " + b);
  Expect(Compare(a, b) == 1,
         "compare flags sim_modify_p99_ms past its bound in a written result");
  std::remove(a.c_str());
  std::remove(b.c_str());

  std::printf("selftest: %s\n", g_selftest_failures ? "FAILED" : "ok");
  return g_selftest_failures ? 1 : 0;
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: orderless_bench [--workload NAME]... [--seed S] "
               "[--reps N] [--seconds T] [--trace 0|1 | --traced]\n"
               "                       [--out FILE.json]\n"
               "       orderless_bench compare PARENT.json CHANGE.json\n"
               "       orderless_bench selftest\n"
               "workloads:");
  for (const WorkloadSpec& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace orderless::bench

int main(int argc, char** argv) {
  using namespace orderless::bench;
  // A repetition that dies while paused must not take the parent with it.
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (arg == "--workload") {
      const WorkloadSpec* w = FindWorkload(value());
      if (!w) return Usage();
      opt.workloads.push_back(*w);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--reps") {
      opt.reps = std::atoi(value().c_str());
      if (opt.reps < 1) return Usage();
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return Usage();
      opt.traced = v == "1";
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  if (!positional.empty() && positional[0] == "compare") {
    if (positional.size() != 3) return Usage();
    return Compare(positional[1], positional[2]);
  }
  if (!positional.empty() && positional[0] == "selftest") {
    return positional.size() == 1 ? SelfTest() : Usage();
  }
  if (!positional.empty()) return Usage();
  if (opt.workloads.empty()) opt.workloads = Workloads();
  return RunMain(opt);
}
