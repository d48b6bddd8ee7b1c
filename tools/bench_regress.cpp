// bench_regress: the perf-regression observatory's gate. Compares BENCH_*.json
// artifacts produced by the bench suite against committed baselines in
// bench/baselines/ and fails (exit 1) when a gated metric regresses beyond its
// tolerance band.
//
// Metric policy — the central lesson of cross-machine CI:
//   * Simulated results (committed/submitted/failed counts, sim-time latency
//     percentiles, sim-time throughput) are deterministic, so they gate HARD:
//     counts must match exactly, sim-time latencies/throughputs within 2%.
//   * Host wall-clock metrics (wall_ms, ns/op, events/sec, speedup) vary by
//     machine and load, so they are INFO-ONLY: printed for humans, never
//     gating.
//   * allocs_per_event sits in between — deterministic in steady state but
//     sensitive to allocator warm-up, so it gets a loose 30% band.
//   * Unknown numeric fields default to info-only; a field must be
//     classified here before it can break CI.
//   * A baseline point or field absent from the current run fails the gate
//     when it carries a gated (non-info-only) metric: deleting a measurement
//     must not silently drop its check (re-seed the baseline with --update
//     when the deletion is intended). Absent info-only data is listed but
//     does not gate — there is no check to drop, and host-dependent rows
//     (e.g. a SHA-NI kernel on a CPU without it) may legitimately vanish.
//   * Every point needs its own key (its name plus its string fields): a
//     document in which two rows share one is a file error (exit 2), since
//     the later row would hide the earlier one from comparison.
//   * A top-level "<metric>_at_<N>_threads" field is a parallel-speedup
//     claim. A baseline recorded with meta.host_threads below N cannot back
//     it, so such a baseline is refused (exit 2), and --update will not
//     write one.
//
// Usage:
//   bench_regress --baselines DIR [--update] [--report FILE] FILES...
//   bench_regress --self-test
//
// Exit codes: 0 ok, 1 regression or missing baseline data (or self-test
// failure), 2 usage/IO error or a refused baseline.
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json_subset.h"

namespace {

namespace json = orderless::obs::json;

enum class MetricClass {
  kExact,      // deterministic simulated count: any mismatch fails
  kBand2,      // simulated time/throughput: 2% relative band
  kBand30,     // allocator behaviour: 30% relative band
  kInfoOnly,   // host wall-clock: reported, never gates
};

enum class Direction {
  kLowerIsBetter,   // latency, failure fraction, allocations
  kHigherIsBetter,  // throughput
  kAnyChangeIsBad,  // exact counts
};

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool Contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

/// Classifies a numeric field by key. The key list mirrors what the bench
/// suite actually emits (obs/json.h writers in bench/*.cpp).
MetricClass Classify(const std::string& key, Direction* direction) {
  *direction = Direction::kLowerIsBetter;
  // Host wall-clock and machine-shape fields: never gate.
  if (key == "wall_ms" || key == "wall_s" || key == "iterations" ||
      key == "speedup" || key == "threads_used" || key == "host_threads" ||
      Contains(key, "ns_per") || Contains(key, "_ns") ||
      Contains(key, "per_second") || Contains(key, "per_sec") ||
      Contains(key, "mb_per") || Contains(key, "host_")) {
    return MetricClass::kInfoOnly;
  }
  // Deterministic simulated counts.
  if (key == "events_processed" || key == "committed" || key == "submitted" ||
      key == "failed" || key == "rejected" || key == "count" ||
      key == "sum_us" || key == "reads" || key == "writes" ||
      key == "checkpoints" || key == "value") {
    *direction = Direction::kAnyChangeIsBad;
    return MetricClass::kExact;
  }
  // Catch-up sweep counts (fig_catchup / fig_byzantine_catchup): pulled
  // bodies, installed/attested/refused checkpoints, pruned records — all
  // functions of simulated event order, so any drift is a real change.
  if (key == "tx_count" || key == "honest_pushback" ||
      Contains(key, "sync_txs") || Contains(key, "ckpt_") ||
      Contains(key, "_records")) {
    *direction = Direction::kAnyChangeIsBad;
    return MetricClass::kExact;
  }
  // Allocator behaviour: loose band, lower is better.
  if (Contains(key, "allocs_per")) return MetricClass::kBand30;
  // Simulated-time latency and throughput.
  if (EndsWith(key, "_ms") || Contains(key, "fraction")) {
    return MetricClass::kBand2;
  }
  if (EndsWith(key, "_tps")) {
    *direction = Direction::kHigherIsBetter;
    return MetricClass::kBand2;
  }
  return MetricClass::kInfoOnly;
}

double BandOf(MetricClass cls) {
  switch (cls) {
    case MetricClass::kExact: return 0.0;
    case MetricClass::kBand2: return 0.02;
    case MetricClass::kBand30: return 0.30;
    case MetricClass::kInfoOnly: return 0.0;
  }
  return 0.0;
}

/// One bench document flattened for comparison: point identity -> numeric
/// fields. Point identity is "name" plus every other string-typed field, so
/// e.g. {"name": "latency", "org": "org2"} and the org3 row stay distinct.
struct FlatBench {
  std::string bench;
  // meta.host_threads: the core count the document was recorded on (0 when
  // the document carries no meta header).
  unsigned host_threads = 0;
  // point key -> (metric key -> value). std::map for deterministic order.
  std::map<std::string, std::map<std::string, double>> points;
};

std::string PointKey(const json::JsonValue& point) {
  std::string key;
  if (const json::JsonValue* name = point.Find("name")) {
    if (name->type == json::JsonValue::Type::kString) key = name->string;
  }
  for (const auto& [k, v] : point.object) {
    if (k == "name" || v.type != json::JsonValue::Type::kString) continue;
    key += "|" + k + "=" + v.string;
  }
  return key.empty() ? "<unnamed>" : key;
}

bool Flatten(const json::JsonValue& doc, const std::string& label,
             FlatBench& out) {
  const json::JsonValue* bench = doc.Find("bench");
  if (bench == nullptr || bench->type != json::JsonValue::Type::kString) {
    std::fprintf(stderr, "%s: no \"bench\" field\n", label.c_str());
    return false;
  }
  out.bench = bench->string;
  if (const json::JsonValue* meta = doc.Find("meta")) {
    if (const json::JsonValue* threads = meta->Find("host_threads")) {
      if (threads->type == json::JsonValue::Type::kNumber &&
          threads->number > 0) {
        out.host_threads = static_cast<unsigned>(threads->number);
      }
    }
  }
  // Top-level scalars live under a reserved point key so they participate in
  // comparison exactly like point fields ("meta" and "points" excluded).
  for (const auto& [k, v] : doc.object) {
    if (v.type == json::JsonValue::Type::kNumber) {
      out.points["<scalars>"][k] = v.number;
    }
  }
  const json::JsonValue* points = doc.Find("points");
  if (points == nullptr || points->type != json::JsonValue::Type::kArray) {
    return true;  // scalar-only documents are fine
  }
  for (const json::JsonValue& point : points->array) {
    if (point.type != json::JsonValue::Type::kObject) continue;
    const std::string key = PointKey(point);
    const auto [it, inserted] = out.points.try_emplace(key);
    if (!inserted) {
      // A second row under one key would overwrite the first, which would
      // then never be compared.
      std::fprintf(stderr, "%s: duplicate point key \"%s\"\n", label.c_str(),
                   key.c_str());
      return false;
    }
    for (const auto& [k, v] : point.object) {
      if (v.type == json::JsonValue::Type::kNumber) it->second[k] = v.number;
    }
  }
  return true;
}

bool LoadFlat(const std::string& path, FlatBench& out) {
  std::string text;
  if (!json::ReadFile(path, text)) {
    std::fprintf(stderr, "bench_regress: cannot read %s\n", path.c_str());
    return false;
  }
  json::JsonValue doc;
  if (!json::ParseDocument(text, path, doc)) return false;
  return Flatten(doc, path, out);
}

struct Verdict {
  int regressions = 0;
  int improvements = 0;
  int info = 0;
  int missing = 0;  // gated baseline points/fields absent from the run
  std::vector<std::string> lines;  // human log, also mirrored to --report

  bool Passes() const { return regressions == 0 && missing == 0; }
};

/// N for a "<metric>_at_<N>_threads" key, 0 for any other key.
unsigned ClaimedThreads(const std::string& key) {
  constexpr char kSuffix[] = "_threads";
  constexpr std::size_t kSuffixLen = sizeof kSuffix - 1;
  if (!EndsWith(key, kSuffix)) return 0;
  const std::size_t end = key.size() - kSuffixLen;
  std::size_t start = end;
  while (start > 0 &&
         std::isdigit(static_cast<unsigned char>(key[start - 1]))) {
    --start;
  }
  if (start == end || start < 4 || key.compare(start - 4, 4, "_at_") != 0) {
    return 0;
  }
  return static_cast<unsigned>(std::strtoul(key.c_str() + start, nullptr, 10));
}

/// One line per top-level claim field that `doc`'s host_threads cannot back;
/// empty when the document may serve as a baseline.
std::vector<std::string> UnbackedClaims(const FlatBench& doc) {
  std::vector<std::string> problems;
  const auto scalars = doc.points.find("<scalars>");
  if (scalars == doc.points.end()) return problems;
  for (const auto& [key, value] : scalars->second) {
    (void)value;
    const unsigned claimed = ClaimedThreads(key);
    if (claimed > doc.host_threads) {
      problems.push_back(doc.bench + " / " + key + ": claims " +
                         std::to_string(claimed) +
                         " threads but was recorded with host_threads " +
                         std::to_string(doc.host_threads));
    }
  }
  return problems;
}

/// Prints the refusal for `label` and returns true when `doc` carries a
/// claim its recording host could not back.
bool RefuseUnbacked(const FlatBench& doc, const std::string& label) {
  const std::vector<std::string> problems = UnbackedClaims(doc);
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "bench_regress: %s refused as a baseline: %s\n",
                 label.c_str(), problem.c_str());
  }
  return !problems.empty();
}

void Note(Verdict& v, const char* tag, const std::string& what) {
  v.lines.push_back(std::string("[") + tag + "] " + what);
}

bool Gated(const std::string& key) {
  Direction direction;
  return Classify(key, &direction) != MetricClass::kInfoOnly;
}

/// Records baseline data the current run lacks; only gated data counts.
void NoteMissing(Verdict& v, bool gated, const std::string& what) {
  if (gated) ++v.missing;
  Note(v, gated ? "MISSING" : "MISSING-INFO", what);
}

/// Compares one current bench document against its baseline.
void Compare(const FlatBench& base, const FlatBench& cur, Verdict& v) {
  for (const auto& [point, base_fields] : base.points) {
    const auto cur_it = cur.points.find(point);
    if (cur_it == cur.points.end()) {
      bool gated = false;
      for (const auto& [key, value] : base_fields) {
        (void)value;
        gated = gated || Gated(key);
      }
      NoteMissing(v, gated, base.bench + " / " + point +
                                ": point absent from current run");
      continue;
    }
    for (const auto& [key, base_value] : base_fields) {
      const auto field_it = cur_it->second.find(key);
      if (field_it == cur_it->second.end()) {
        NoteMissing(v, Gated(key), base.bench + " / " + point + " / " + key);
        continue;
      }
      const double cur_value = field_it->second;
      Direction direction;
      const MetricClass cls = Classify(key, &direction);
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s / %s / %s: %.6g -> %.6g",
                    base.bench.c_str(), point.c_str(), key.c_str(), base_value,
                    cur_value);
      if (cls == MetricClass::kInfoOnly) {
        ++v.info;
        continue;  // host wall-clock noise: not even worth a log line
      }
      if (cls == MetricClass::kExact) {
        if (cur_value != base_value) {
          ++v.regressions;
          Note(v, "FAIL", std::string(buf) + " (exact metric changed)");
        }
        continue;
      }
      const double band = BandOf(cls);
      const double scale = std::max(std::fabs(base_value), 1e-9);
      const double delta = (cur_value - base_value) / scale;
      const bool worse = direction == Direction::kHigherIsBetter
                             ? delta < -band
                             : delta > band;
      const bool better = direction == Direction::kHigherIsBetter
                              ? delta > band
                              : delta < -band;
      if (worse) {
        ++v.regressions;
        std::snprintf(buf + std::strlen(buf), sizeof buf - std::strlen(buf),
                      " (%+.1f%%, band %.0f%%)", delta * 100.0, band * 100.0);
        Note(v, "FAIL", buf);
      } else if (better) {
        ++v.improvements;
        std::snprintf(buf + std::strlen(buf), sizeof buf - std::strlen(buf),
                      " (%+.1f%% — improvement; refresh with --update)",
                      delta * 100.0);
        Note(v, "BETTER", buf);
      }
    }
  }
}

std::string Basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::string text;
  if (!json::ReadFile(from, text)) return false;
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out << text;
  return out.good();
}

bool WriteReport(const std::string& path, const Verdict& v, bool ok) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "{\n  \"bench_regress\": \"v1\",\n";
  out << "  \"ok\": " << (ok ? "true" : "false") << ",\n";
  out << "  \"regressions\": " << v.regressions << ",\n";
  out << "  \"improvements\": " << v.improvements << ",\n";
  out << "  \"missing\": " << v.missing << ",\n";
  out << "  \"lines\": [\n";
  for (std::size_t i = 0; i < v.lines.size(); ++i) {
    std::string escaped;
    for (const char c : v.lines[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += c;
    }
    out << "    \"" << escaped << (i + 1 < v.lines.size() ? "\",\n" : "\"\n");
  }
  out << "  ]\n}\n";
  return out.good();
}

bool ParseFlat(const char* text, const char* label, FlatBench& out) {
  json::JsonValue doc;
  return json::ParseDocument(text, label, doc) && Flatten(doc, label, out);
}

/// Self-test: builds synthetic baseline/current pairs in memory and checks
/// that (a) a 2x p99_ms regression and an exact-count mismatch are caught
/// while an info-only wall_ms doubling is not, (b) a baseline point or
/// field absent from the current run fails the gate, (c) a baseline whose
/// "_at_<N>_threads" claim exceeds its host_threads is refused, and (d) a
/// document with two rows under one point key is refused. Guards the gate
/// itself.
int SelfTest() {
  const char* base_text = R"({
  "bench": "selftest",
  "speedup": 3.0,
  "points": [
    {"name": "latency", "kind": "histogram", "count": 1000, "p50_ms": 10.0, "p99_ms": 40.0},
    {"name": "totals", "committed": 900, "failed": 100, "wall_ms": 1234.0},
    {"name": "rate", "commit_tps": 500.0}
  ]
})";
  const char* cur_text = R"({
  "bench": "selftest",
  "speedup": 1.0,
  "points": [
    {"name": "latency", "kind": "histogram", "count": 1000, "p50_ms": 10.1, "p99_ms": 80.0},
    {"name": "totals", "committed": 899, "failed": 100, "wall_ms": 2468.0},
    {"name": "rate", "commit_tps": 496.0}
  ]
})";
  json::JsonValue base_doc;
  json::JsonValue cur_doc;
  if (!json::ParseDocument(base_text, "selftest-baseline", base_doc) ||
      !json::ParseDocument(cur_text, "selftest-current", cur_doc)) {
    return 1;
  }
  FlatBench base;
  FlatBench cur;
  if (!Flatten(base_doc, "selftest-baseline", base) ||
      !Flatten(cur_doc, "selftest-current", cur)) {
    return 1;
  }
  Verdict v;
  Compare(base, cur, v);
  for (const std::string& line : v.lines) std::printf("%s\n", line.c_str());
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      ++failures;
      std::printf("self-test FAILED: %s\n", what);
    }
  };
  auto logged = [&](const char* tag, const char* needle) {
    for (const std::string& line : v.lines) {
      if (line.rfind(std::string("[") + tag, 0) == 0 &&
          line.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  // Exactly two regressions: the 2x p99_ms and the exact committed-count
  // mismatch. p50 moved 1% (inside band), commit_tps moved 0.8% (inside
  // band), wall_ms doubled and speedup collapsed (info-only: host metrics).
  expect(v.regressions == 2, "expected exactly 2 regressions");
  expect(logged("FAIL", "p99_ms"), "2x p99_ms regression not caught");
  expect(logged("FAIL", "committed"), "exact count mismatch not caught");
  expect(!logged("FAIL", "wall_ms"), "info-only wall_ms must not gate");
  expect(!logged("FAIL", "speedup"), "info-only speedup must not gate");
  expect(!logged("FAIL", "p50_ms"), "in-band p50_ms drift must not gate");
  expect(!logged("FAIL", "commit_tps"), "in-band tps drift must not gate");
  expect(v.missing == 0, "no fields should be missing");

  // (b) Deleting a gated measurement must fail the gate, not pass as
  // MISSING; deleted info-only data is listed but does not gate.
  FlatBench base_b;
  FlatBench cur_b;
  if (!ParseFlat(R"({"bench": "selftest", "points": [
        {"name": "kept", "committed": 10, "dropped_ms": 5.0, "wall_ms": 2.0},
        {"name": "deleted", "committed": 3},
        {"name": "host_only", "wall_ms": 7.0, "ns_per_op": 9.0}]})",
                 "selftest-missing-baseline", base_b) ||
      !ParseFlat(R"({"bench": "selftest", "points": [
        {"name": "kept", "committed": 10}]})",
                 "selftest-missing-current", cur_b)) {
    return 1;
  }
  Verdict missing;
  Compare(base_b, cur_b, missing);
  for (const std::string& line : missing.lines) std::printf("%s\n", line.c_str());
  expect(missing.regressions == 0, "missing data is not a value regression");
  expect(missing.missing == 2,
         "expected a missing gated point and a missing gated field");
  expect(!missing.Passes(), "missing gated baseline data must fail the gate");
  int info_lines = 0;
  for (const std::string& line : missing.lines) {
    info_lines += line.rfind("[MISSING-INFO]", 0) == 0 ? 1 : 0;
  }
  expect(info_lines == 2, "missing info-only data must be listed, not gated");

  // (c) Speedup claims must be backed by the recording host's core count.
  const struct {
    const char* text;
    bool refused;
    const char* what;
  } claims[] = {
      {R"({"bench": "c", "meta": {"host_threads": 1},
           "speedup_at_4_threads": 2.0})",
       true, "a 4-thread claim recorded on 1 host thread must be refused"},
      {R"({"bench": "c", "meta": {"host_threads": 4},
           "speedup_at_4_threads": 2.0, "gain_at_8_threads": 1.1})",
       true, "an 8-thread claim recorded on 4 host threads must be refused"},
      {R"({"bench": "c", "speedup_at_4_threads": 2.0})", true,
       "a claim without meta.host_threads must be refused"},
      {R"({"bench": "c", "meta": {"host_threads": 4},
           "speedup_at_4_threads": 2.0, "threads": 8,
           "points": [{"name": "p", "speedup_at_8_threads": 1.0}]})",
       false, "a backed top-level claim (point fields are not claims) "
              "must be accepted"},
  };
  for (const auto& c : claims) {
    FlatBench doc;
    if (!ParseFlat(c.text, "selftest-claims", doc)) return 1;
    expect(!UnbackedClaims(doc).empty() == c.refused, c.what);
  }
  expect(ClaimedThreads("fig6b_speedup_at_4_threads") == 4,
         "claim key parse");
  expect(ClaimedThreads("hardware_threads") == 0, "non-claim key parse");

  // (d) Rows that share a point key would overwrite each other, so all but
  // the last would go unchecked; rows that differ in a string field do not
  // share one.
  FlatBench duplicate;
  expect(!ParseFlat(R"({"bench": "d", "points": [
           {"name": "sweep", "mode": "on", "tx_count": 48, "committed": 48},
           {"name": "sweep", "mode": "on", "tx_count": 96, "committed": 96}]})",
                    "selftest-duplicate", duplicate),
         "rows sharing a point key must be refused");
  FlatBench distinct;
  expect(ParseFlat(R"({"bench": "d", "points": [
           {"name": "sweep", "mode": "on", "committed": 48},
           {"name": "sweep", "mode": "off", "committed": 48}]})",
                   "selftest-distinct", distinct) &&
             distinct.points.size() == 2,
         "rows differing in a string field must stay distinct");
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --baselines DIR [--update] [--report FILE] "
               "BENCH_*.json...\n"
               "       %s --self-test\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baselines_dir;
  std::string report_path;
  bool update = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (arg == "--update") {
      update = true;
    } else if (arg == "--baselines") {
      if (i + 1 >= argc) { Usage(argv[0]); return 2; }
      baselines_dir = argv[++i];
    } else if (arg == "--report") {
      if (i + 1 >= argc) { Usage(argv[0]); return 2; }
      report_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bench_regress: unknown option %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (baselines_dir.empty() || files.empty()) {
    Usage(argv[0]);
    return 2;
  }

  Verdict verdict;
  int io_errors = 0;
  int refused = 0;
  for (const std::string& file : files) {
    const std::string baseline = baselines_dir + "/" + Basename(file);
    if (update) {
      FlatBench candidate;
      if (!LoadFlat(file, candidate)) {
        ++io_errors;
        continue;
      }
      if (RefuseUnbacked(candidate, file)) {
        ++refused;
        continue;
      }
      if (!CopyFile(file, baseline)) {
        std::fprintf(stderr, "bench_regress: cannot update %s\n",
                     baseline.c_str());
        ++io_errors;
      } else {
        std::printf("updated %s\n", baseline.c_str());
      }
      continue;
    }
    FlatBench base;
    FlatBench cur;
    std::string base_text;
    if (!json::ReadFile(baseline, base_text)) {
      std::printf("[NEW] %s: no baseline at %s (run with --update to seed)\n",
                  file.c_str(), baseline.c_str());
      continue;
    }
    json::JsonValue base_doc;
    if (!json::ParseDocument(base_text, baseline, base_doc) ||
        !Flatten(base_doc, baseline, base) || !LoadFlat(file, cur)) {
      ++io_errors;
      continue;
    }
    if (RefuseUnbacked(base, baseline)) {
      ++refused;
      continue;
    }
    if (base.bench != cur.bench) {
      std::fprintf(stderr, "bench_regress: %s is bench \"%s\" but baseline "
                           "is \"%s\"\n",
                   file.c_str(), cur.bench.c_str(), base.bench.c_str());
      ++io_errors;
      continue;
    }
    Compare(base, cur, verdict);
  }

  for (const std::string& line : verdict.lines) {
    std::printf("%s\n", line.c_str());
  }
  const bool ok = verdict.Passes() && io_errors == 0 && refused == 0;
  std::printf("bench_regress: %d regression(s), %d improvement(s), "
              "%d missing, %d file error(s), %d refused baseline(s) -> %s\n",
              verdict.regressions, verdict.improvements, verdict.missing,
              io_errors, refused, ok ? "OK" : "FAIL");
  if (!report_path.empty() && !WriteReport(report_path, verdict, ok)) {
    std::fprintf(stderr, "bench_regress: cannot write %s\n",
                 report_path.c_str());
    return 2;
  }
  if (io_errors > 0 || refused > 0) return 2;
  return ok ? 0 : 1;
}
