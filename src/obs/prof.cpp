#include "obs/prof.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace orderless::obs {

namespace {

double MsOf(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

void Appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

}  // namespace

std::uint64_t Profiler::total_busy_ns() const {
  std::uint64_t sum = 0;
  for (const LaneStat& s : lanes_) sum += s.busy_ns;
  return sum;
}

std::uint64_t Profiler::total_events() const {
  std::uint64_t sum = 0;
  for (const LaneStat& s : lanes_) sum += s.events;
  return sum;
}

double Profiler::Utilization() const {
  if (pool_width_ns_ == 0) return 0;
  return static_cast<double>(total_busy_ns()) /
         static_cast<double>(pool_width_ns_);
}

void Profiler::Fill(MetricsRegistry& registry) const {
  registry.counter("prof.epochs").Add(epochs_);
  registry.counter("prof.lanes").Add(lanes_.size());
  registry.counter("prof.events").Add(total_events());
  registry.gauge("prof.busy_ms").Set(MsOf(total_busy_ns()));
  registry.gauge("prof.epoch_wall_ms").Set(MsOf(wall_ns_));
  registry.gauge("prof.barrier_wait_ms").Set(MsOf(barrier_wait_ns_));
  registry.gauge("prof.utilization").Set(Utilization());
  if (epochs_ > 0) {
    registry.gauge("prof.active_lanes_avg")
        .Set(static_cast<double>(active_lane_sum_) /
             static_cast<double>(epochs_));
  }
  registry.counter("prof.crypto.hashes").Add(crypto_.hashes);
  registry.counter("prof.crypto.verify_batches").Add(crypto_.verify_batches);
  registry.counter("prof.crypto.verify_sigs").Add(crypto_.verify_sigs);
}

std::string Profiler::RenderText() const {
  std::string out;
  out += "=== engine profile (host time) ===\n";
  Appendf(out,
          "epochs %" PRIu64 "  events %" PRIu64 "  busy %.3fms  wall %.3fms  "
          "barrier-wait %.3fms  utilization %.1f%%\n",
          epochs_, total_events(), MsOf(total_busy_ns()), MsOf(wall_ns_),
          MsOf(barrier_wait_ns_), Utilization() * 100.0);
  if (epochs_ > 0) {
    Appendf(out, "active lanes/epoch: %.2f avg of %zu\n",
            static_cast<double>(active_lane_sum_) /
                static_cast<double>(epochs_),
            lanes_.size());
  }

  // Busiest lanes by host time (top 8) — index-ordered tie-break.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].slices != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (lanes_[a].busy_ns != lanes_[b].busy_ns) {
      return lanes_[a].busy_ns > lanes_[b].busy_ns;
    }
    return a < b;
  });
  if (!order.empty()) {
    out += "busiest lanes:\n";
    const std::size_t n = std::min<std::size_t>(order.size(), 8);
    for (std::size_t k = 0; k < n; ++k) {
      const LaneStat& s = lanes_[order[k]];
      Appendf(out,
              "  lane %-4zu busy %9.3fms  events %8" PRIu64
              "  slices %6" PRIu64 "\n",
              order[k], MsOf(s.busy_ns), s.events, s.slices);
    }
  }

  Appendf(out,
          "crypto: hashes %" PRIu64 "  verify-batches %" PRIu64
          "  verify-sigs %" PRIu64 "\n",
          crypto_.hashes, crypto_.verify_batches, crypto_.verify_sigs);
  return out;
}

void Profiler::Reset() {
  lanes_.clear();
  epochs_ = 0;
  wall_ns_ = 0;
  barrier_wait_ns_ = 0;
  active_lane_sum_ = 0;
  pool_width_ns_ = 0;
  crypto_ = CryptoSnapshot{};
}

}  // namespace orderless::obs
