#include "obs/trace.h"

#include <algorithm>
#include <array>
#include <limits>

namespace orderless::obs {

namespace {

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(EventKind::kKindCount)>
    kKindNames = {
        "tx_submit",     "proposal_send", "endorse_exec", "endorse_reply",
        "writeset_match", "commit_send",   "validate",     "ledger_append",
        "crdt_apply",    "gossip_send",   "gossip_recv",  "receipt",
        "tx_outcome",    "converge",      "ckpt_seal",    "ckpt_send",
        "ckpt_install",  "ckpt_prune",    "ckpt_attest",  "ckpt_reject",
        "pipe_admit",    "pipe_dedup",
};

const std::string kUnknownActor = "?";

}  // namespace

std::string_view EventKindName(EventKind kind) {
  const auto idx = static_cast<std::size_t>(kind);
  return idx < kKindNames.size() ? kKindNames[idx] : "?";
}

std::uint32_t ParseKindMask(const std::string& filter) {
  if (filter.empty()) return ~0u;
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= filter.size()) {
    std::size_t comma = filter.find(',', start);
    if (comma == std::string::npos) comma = filter.size();
    const std::string_view name(filter.data() + start, comma - start);
    for (std::size_t k = 0; k < kKindNames.size(); ++k) {
      if (kKindNames[k] == name) mask |= 1u << k;
    }
    start = comma + 1;
  }
  return mask == 0 ? ~0u : mask;
}

Tracer::Tracer(TracerConfig config) : config_(config) {
  events_.reserve(std::min<std::size_t>(config_.max_events, 1u << 16));
}

Tracer::Tracer(TracerConfig config, ShardTag) : config_(config), shard_(true) {
  events_.reserve(1024);
}

std::unique_ptr<Tracer> Tracer::NewShard() const {
  TracerConfig config;
  config.max_events = std::numeric_limits<std::size_t>::max();
  config.kind_mask = config_.kind_mask |
                     (1u << static_cast<unsigned>(EventKind::kConverge));
  return std::unique_ptr<Tracer>(new Tracer(config, ShardTag{}));
}

void Tracer::AbsorbShards(const std::vector<Tracer*>& shards) {
  std::size_t total = 0;
  for (const Tracer* shard : shards) {
    if (shard) total += shard->events_.size();
  }
  if (total == 0) return;
  std::vector<TraceEvent> merged;
  merged.reserve(total);
  for (Tracer* shard : shards) {
    if (!shard) continue;
    merged.insert(merged.end(), shard->events_.begin(), shard->events_.end());
    shard->events_.clear();
  }
  // Each shard is internally time-ordered (lane clocks are monotonic), so a
  // stable sort over the lane-ordered concatenation yields the sequential
  // append order: creation time, then destination lane, then in-lane order.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts + a.dur < b.ts + b.dur;
                   });
  for (TraceEvent& e : merged) {
    if (e.kind == EventKind::kConverge) {
      // Shards record raw applies (aux = 0); the lag is computable only
      // here, where applies from every lane are seen in global time order.
      const auto [it, first] = first_apply_.emplace(e.tx, e.ts);
      const sim::SimTime lag = first ? 0 : e.ts - it->second;
      ConvergenceStats& stats = convergence_[e.actor];
      ++stats.applies;
      stats.lag_sum_us += lag;
      stats.lag_max_us = std::max<std::uint64_t>(stats.lag_max_us, lag);
      e.aux = lag;
      if (!WantsKind(EventKind::kConverge)) continue;
    }
    if (events_.size() >= config_.max_events) {
      ++dropped_;
      continue;
    }
    events_.push_back(e);
  }
  if (events_.size() > high_water_) high_water_ = events_.size();
}

void Tracer::Append(EventKind kind, sim::SimTime ts, sim::SimTime dur,
                    std::uint32_t actor, std::uint64_t tx, std::uint64_t aux) {
  if (!WantsKind(kind)) return;
  if (events_.size() >= config_.max_events) {
    ++dropped_;
    return;
  }
  TraceEvent e;
  e.ts = ts;
  e.dur = dur;
  e.tx = tx;
  e.aux = aux;
  e.actor = actor;
  e.kind = kind;
  events_.push_back(e);
  if (events_.size() > high_water_) high_water_ = events_.size();
}

void Tracer::CommitApplied(sim::SimTime now, std::uint32_t actor,
                           std::uint64_t tx) {
  if (shard_) {
    // Cross-lane first-apply times are unknowable mid-epoch; the parent
    // fills in the lag during AbsorbShards.
    Instant(EventKind::kConverge, now, actor, tx, 0);
    return;
  }
  const auto [it, first] = first_apply_.emplace(tx, now);
  const sim::SimTime lag = first ? 0 : now - it->second;
  ConvergenceStats& stats = convergence_[actor];
  ++stats.applies;
  stats.lag_sum_us += lag;
  stats.lag_max_us = std::max<std::uint64_t>(stats.lag_max_us, lag);
  Instant(EventKind::kConverge, now, actor, tx, lag);
}

void Tracer::SetActorName(std::uint32_t actor, std::string name) {
  actor_names_[actor] = std::move(name);
}

const std::string& Tracer::ActorName(std::uint32_t actor) const {
  const auto it = actor_names_.find(actor);
  return it == actor_names_.end() ? kUnknownActor : it->second;
}

std::vector<PhaseSummary> Tracer::Phases() const {
  struct Acc {
    std::uint64_t count = 0;
    std::uint64_t dur_sum = 0;
    std::uint64_t dur_max = 0;
  };
  std::array<Acc, static_cast<std::size_t>(EventKind::kKindCount)> accs{};
  for (const TraceEvent& e : events_) {
    Acc& acc = accs[static_cast<std::size_t>(e.kind)];
    // kConverge carries its latency in aux (lag µs), spans in dur.
    const std::uint64_t d = e.kind == EventKind::kConverge ? e.aux : e.dur;
    ++acc.count;
    acc.dur_sum += d;
    acc.dur_max = std::max(acc.dur_max, d);
  }
  std::vector<PhaseSummary> out;
  for (std::size_t k = 0; k < accs.size(); ++k) {
    if (accs[k].count == 0) continue;
    PhaseSummary s;
    s.kind = static_cast<EventKind>(k);
    s.count = accs[k].count;
    s.avg_ms = static_cast<double>(accs[k].dur_sum) / 1000.0 /
               static_cast<double>(accs[k].count);
    s.max_ms = static_cast<double>(accs[k].dur_max) / 1000.0;
    out.push_back(s);
  }
  return out;
}

std::vector<TraceEvent> Tracer::EventsForTx(std::uint64_t tx) const {
  // A transaction is keyed by its proposal-digest prefix in phase 1 and by
  // its tx-id prefix afterwards; kWriteSetMatch links the two (tx = tx id,
  // aux = proposal digest). Collect both keys, then filter.
  std::uint64_t linked = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::kWriteSetMatch) continue;
    if (e.tx == tx) {
      linked = e.aux;
      break;
    }
    if (e.aux == tx) {
      linked = e.tx;
      break;
    }
  }
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.tx == tx || (linked != 0 && e.tx == linked)) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> Tracer::Tail(std::size_t n) const {
  const std::size_t start = events_.size() > n ? events_.size() - n : 0;
  return std::vector<TraceEvent>(events_.begin() +
                                     static_cast<std::ptrdiff_t>(start),
                                 events_.end());
}

void Tracer::Clear() {
  events_.clear();
  dropped_ = 0;
  high_water_ = 0;
  first_apply_.clear();
  convergence_.clear();
}

}  // namespace orderless::obs
