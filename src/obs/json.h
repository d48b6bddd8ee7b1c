// Machine-readable JSON output shared by the whole repo: benchmarks, the
// metrics exporter and the trace tooling all emit through this one writer,
// so every artifact CI archives has the same top-level shape:
//
//   {
//     "bench": "<name>",
//     "<extra scalar fields>": ...,
//     "points": [ {"name": "...", "<metric>": <value>, ...}, ... ]
//   }
//
// Kept dependency-free (fprintf, no JSON library) and append-order
// preserving, so diffs between runs stay line-stable. (Replaces the former
// bench/bench_json.h; bench/micro_json.h remains as the google-benchmark
// reporter that emits through this writer.)
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace orderless::obs {

class JsonBench {
 public:
  explicit JsonBench(std::string name) : name_(std::move(name)) {}

  /// Top-level scalar next to "points" (e.g. a speedup summary).
  void Scalar(const std::string& key, double value, int decimals = 3) {
    scalars_.push_back("\"" + key + "\": " + Fmt(value, decimals));
  }
  void Scalar(const std::string& key, const std::string& value) {
    scalars_.push_back("\"" + key + "\": \"" + value + "\"");
  }
  void Scalar(const std::string& key, std::uint64_t value) {
    scalars_.push_back("\"" + key + "\": " + std::to_string(value));
  }

  /// Starts a new entry in "points"; subsequent Field() calls attach to it.
  void Point(const std::string& point_name) {
    points_.emplace_back();
    Field("name", point_name);
  }
  void Field(const std::string& key, const std::string& value) {
    points_.back().push_back("\"" + key + "\": \"" + value + "\"");
  }
  void Field(const std::string& key, double value, int decimals = 3) {
    points_.back().push_back("\"" + key + "\": " + Fmt(value, decimals));
  }
  void Field(const std::string& key, std::uint64_t value) {
    points_.back().push_back("\"" + key + "\": " + std::to_string(value));
  }
  /// Array-of-integers field (histogram buckets, series).
  void Field(const std::string& key, const std::vector<std::uint64_t>& values) {
    std::string list = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      list += (i ? ", " : "") + std::to_string(values[i]);
    }
    list += "]";
    points_.back().push_back("\"" + key + "\": " + list);
  }

  /// The source revision baked in at configure time (CMake runs
  /// `git describe --always --dirty`); "unknown" outside a git checkout.
  static const char* GitDescribe() {
#ifdef ORDERLESS_GIT_DESCRIBE
    return ORDERLESS_GIT_DESCRIBE;
#else
    return "unknown";
#endif
  }

  /// Writes BENCH_<name>.json in the working directory; returns false when
  /// the file cannot be opened (benches warn but do not fail on this).
  /// Bench artifacts carry a run-metadata header (bench name, git describe,
  /// host thread count) so bench_regress and humans can tell which revision
  /// and machine produced a trajectory point.
  bool Write() const {
    return WriteTo("BENCH_" + name_ + ".json", /*with_meta=*/true);
  }

  /// Writes the same document to an explicit path (metrics exporter).
  /// No meta header by default: metrics documents must stay byte-identical
  /// across thread counts and revisions (the determinism tests diff them).
  bool WriteTo(const std::string& path, bool with_meta = false) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (!out) return false;
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    if (with_meta) {
      std::fprintf(out,
                   "  \"meta\": {\"bench\": \"%s\", \"git_describe\": \"%s\", "
                   "\"host_threads\": %u},\n",
                   name_.c_str(), GitDescribe(),
                   std::thread::hardware_concurrency());
    }
    for (const std::string& scalar : scalars_) {
      std::fprintf(out, "  %s,\n", scalar.c_str());
    }
    std::fprintf(out, "  \"points\": [\n");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      std::string line = "    {";
      for (std::size_t j = 0; j < points_[i].size(); ++j) {
        line += (j ? ", " : "") + points_[i][j];
      }
      line += i + 1 < points_.size() ? "}," : "}";
      std::fprintf(out, "%s\n", line.c_str());
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Fmt(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
  }

  std::string name_;
  std::vector<std::string> scalars_;
  std::vector<std::vector<std::string>> points_;
};

}  // namespace orderless::obs
