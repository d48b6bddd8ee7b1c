#include "sim/simulation.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/prof.h"

namespace orderless::sim {

thread_local Simulation::Lane* Simulation::tls_lane_ = nullptr;

namespace {
constexpr SimTime kNever = ~SimTime{0};

using ProfClock = std::chrono::steady_clock;

std::uint64_t NsBetween(ProfClock::time_point from, ProfClock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}
}  // namespace

/// Generation-signalled worker pool. Workers pull lanes off a shared atomic
/// index, so epoch work distribution is dynamic; determinism never depends
/// on which worker runs which lane (lanes are independent within an epoch
/// and the merge is keyed, not arrival-ordered).
struct Simulation::ParallelState {
  std::vector<std::thread> workers;
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  unsigned running = 0;
  bool stop = false;
  std::vector<Lane*>* active = nullptr;
  SimTime epoch_end = 0;
  std::atomic<std::size_t> next{0};
};

Simulation::Simulation() {
  auto harness = std::make_unique<Lane>();
  harness->owner = this;
  harness->index = 0;
  lanes_.push_back(std::move(harness));
}

Simulation::~Simulation() {
  if (workers_) {
    {
      std::lock_guard<std::mutex> lock(workers_->mutex);
      workers_->stop = true;
    }
    workers_->work_cv.notify_all();
    for (std::thread& worker : workers_->workers) worker.join();
  }
}

void Simulation::SetThreads(unsigned threads) {
  // Must precede the first scheduled event: storage layout is latched there.
  threads_ = std::clamp(threads, 1u, kMaxThreads);
}

ActorId Simulation::RegisterActor(NodeId node) {
  auto lane = std::make_unique<Lane>();
  lane->owner = this;
  lane->index = static_cast<ActorId>(lanes_.size());
  lane->now = now_;
  const ActorId id = lane->index;
  lanes_.push_back(std::move(lane));
  if (node >= actor_of_.size()) actor_of_.resize(node + 1, 0);
  actor_of_[node] = id;
  return id;
}

void Simulation::ProposeLookahead(SimTime delay) {
  if (delay == 0) return;
  lookahead_ = lookahead_ == 0 ? delay : std::min(lookahead_, delay);
}

void Simulation::AddEpochHook(std::function<void()> hook) {
  epoch_hooks_.push_back(std::move(hook));
}

void Simulation::SetLaneTracer(ActorId actor, obs::Tracer* shard) {
  if (actor < lanes_.size()) lanes_[actor]->shard = shard;
}

void Simulation::SetProfiler(obs::Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_) profiler_->BeginLanes(lanes_.size());
}

// Hole-based sifts (heap[0] = earliest): one 32-byte key copy per level,
// half the levels of a binary heap.
void Simulation::EventQueue::Push(Event meta, SmallFn fn) {
  if (free_slots.empty()) {
    meta.slot = static_cast<std::uint32_t>(slab.size());
    slab.push_back(std::move(fn));
  } else {
    meta.slot = free_slots.back();
    free_slots.pop_back();
    slab[meta.slot] = std::move(fn);
  }
  heap.emplace_back();
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!Later{}(heap[parent], meta)) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = meta;
}

SmallFn Simulation::EventQueue::Pop(Event& meta_out) {
  meta_out = heap.front();
  const Event last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (Later{}(heap[best], heap[c])) best = c;
      }
      if (!Later{}(last, heap[best])) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = last;
  }
  free_slots.push_back(meta_out.slot);
  return std::move(slab[meta_out.slot]);
}

void Simulation::Schedule(SimTime delay, SmallFn fn) {
  Lane& lane = CurrentLane();
  const SimTime base = (&lane == tls_lane_) ? lane.now : now_;
  ScheduleImpl(lane, base, lane.index, base + delay, std::move(fn));
}

void Simulation::ScheduleAt(SimTime when, SmallFn fn) {
  Lane& lane = CurrentLane();
  const SimTime base = (&lane == tls_lane_) ? lane.now : now_;
  ScheduleImpl(lane, base, lane.index, when, std::move(fn));
}

void Simulation::ScheduleFor(ActorId dst, SimTime delay, SmallFn fn) {
  Lane& lane = CurrentLane();
  const SimTime base = (&lane == tls_lane_) ? lane.now : now_;
  ScheduleImpl(lane, base, dst, base + delay, std::move(fn));
}

void Simulation::ScheduleAtFor(ActorId dst, SimTime when, SmallFn fn) {
  Lane& lane = CurrentLane();
  const SimTime base = (&lane == tls_lane_) ? lane.now : now_;
  ScheduleImpl(lane, base, dst, when, std::move(fn));
}

// `base` is the scheduling context's clock — the executing lane's inside an
// event, the engine's outside (identical in both modes: a sequential event's
// lane clock equals the global clock while it runs). Callers pass it down so
// the hot path resolves the thread-local lane exactly once.
void Simulation::ScheduleImpl(Lane& src, SimTime base, ActorId dst,
                              SimTime when, SmallFn fn) {
  if (!mode_latched_) LatchMode();
  if (when < base) when = base;
  if (dst >= lanes_.size()) dst = 0;

  Event meta;
  meta.time = when;
  meta.dst = dst;
  meta.src = src.index;
  meta.seq = src.next_seq++;

  if (!parallel_storage_) {
    queue_.Push(meta, std::move(fn));
    return;
  }
  if (in_epoch_ && dst != src.index) {
    if (when < epoch_end_) {
      std::fprintf(stderr,
                   "sim::Simulation: lookahead violation — lane %u scheduled "
                   "onto lane %u at t=%llu inside epoch ending %llu\n",
                   src.index, dst, static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(epoch_end_));
      std::abort();
    }
    src.outbox.push_back(PendingEvent{meta, std::move(fn)});
    return;
  }
  lanes_[dst]->queue.Push(meta, std::move(fn));
}

void Simulation::ReserveEvents(std::size_t n) {
  ReserveEventsFor(CurrentLane().index, n);
}

void Simulation::ReserveEventsFor(ActorId dst, std::size_t n) {
  if (!mode_latched_) LatchMode();
  if (parallel_storage_) {
    if (dst >= lanes_.size()) dst = 0;
    lanes_[dst]->queue.Reserve(n);
    return;
  }
  // One global heap receives every per-actor burst, so successive
  // reservations must accumulate instead of overwriting each other. Growth
  // is geometric across calls: reserving the exact running total would
  // reallocate the whole queue once per actor (a thousand times when a
  // harness reserves per client).
  reserve_credit_ += n;
  const std::size_t needed = queue_.size() + reserve_credit_;
  if (needed > queue_.capacity()) {
    queue_.Reserve(std::max(needed, 2 * queue_.capacity()) - queue_.size());
  }
}

bool Simulation::Step() {
  if (queue_.empty()) return false;
  // Profiler-off runs take the `prof == nullptr` branches only: one
  // pointer test per event, no clock reads, no allocations.
  obs::Profiler* const prof = profiler_;
  ProfClock::time_point t0;
  Event meta;
  SmallFn fn = queue_.Pop(meta);
  now_ = meta.time;
  Lane& lane = *lanes_[meta.dst < lanes_.size() ? meta.dst : 0];
  lane.now = meta.time;
  ++processed_;
  tls_lane_ = &lane;
  if (prof) {
    prof->BeginLanes(lanes_.size());
    t0 = ProfClock::now();
  }
  fn();
  if (prof) {
    prof->OnLaneSlice(lane.index, 1, NsBetween(t0, ProfClock::now()));
  }
  tls_lane_ = nullptr;
  return true;
}

void Simulation::RunUntil(SimTime until) {
  if (!mode_latched_) LatchMode();
  if (parallel_storage_) {
    RunParallel(until);
    return;
  }
  while (!queue_.empty() && queue_.front().time <= until) Step();
  if (now_ < until) now_ = until;
}

void Simulation::RunUntilIdle() {
  if (!mode_latched_) LatchMode();
  if (parallel_storage_) {
    RunParallel(kNever);
    return;
  }
  while (Step()) {
  }
}

// --- Parallel engine. ---

void Simulation::RunParallel(SimTime until) {
  EnsureWorkers();
  if (profiler_) profiler_->BeginLanes(lanes_.size());
  std::vector<Lane*> active;
  for (;;) {
    SimTime next = kNever;
    for (const auto& lane : lanes_) {
      if (!lane->queue.empty()) {
        next = std::min(next, lane->queue.front().time);
      }
    }
    if (next == kNever || next > until) break;

    // The harness lane runs exclusively: fault injection, restarts and
    // Byzantine phase flips mutate shared structures (network handlers,
    // partitions, organization state) that every other lane reads. The
    // canonical order puts lane 0 first at equal times, so draining it
    // before the epoch that starts at the same instant is exact.
    Lane& harness = *lanes_.front();
    if (!harness.queue.empty() && harness.queue.front().time <= next) {
      RunHarnessBarrier(next);
      now_ = next;
      continue;
    }

    SimTime end = next > kNever - lookahead_ ? kNever : next + lookahead_;
    if (!harness.queue.empty()) {
      end = std::min(end, harness.queue.front().time);
    }
    if (until < kNever) end = std::min(end, until + 1);

    active.clear();
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
      Lane& lane = *lanes_[i];
      if (!lane.queue.empty() && lane.queue.front().time < end) {
        active.push_back(&lane);
      }
    }
    ExecuteEpoch(active, end);
    MergeOutboxes();
    // Advance to the last event actually executed, exactly like the
    // sequential engine — not to the epoch end, which may lie beyond the
    // final event when the run drains.
    for (const Lane* lane : active) now_ = std::max(now_, lane->now);
    RunEpochHooks();
  }
  if (until != kNever) now_ = std::max(now_, until);
  for (const auto& lane : lanes_) lane->now = std::max(lane->now, now_);
  RunEpochHooks();
}

void Simulation::RunLaneEpoch(Lane& lane, SimTime end) {
  tls_lane_ = &lane;
  EventQueue& queue = lane.queue;
  // One clock pair per epoch-slice, not per event; the slice write goes to
  // this lane's private profiler slot (the epoch barrier publishes it).
  obs::Profiler* const prof = profiler_;
  ProfClock::time_point t0;
  if (prof) t0 = ProfClock::now();
  const std::size_t before = lane.processed;
  while (!queue.empty() && queue.front().time < end) {
    Event meta;
    SmallFn fn = queue.Pop(meta);
    lane.now = meta.time;
    ++lane.processed;
    fn();
  }
  if (prof) {
    prof->OnLaneSlice(lane.index, lane.processed - before,
                      NsBetween(t0, ProfClock::now()));
  }
  tls_lane_ = nullptr;
}

void Simulation::RunHarnessBarrier(SimTime at) {
  Lane& lane = *lanes_.front();
  tls_lane_ = &lane;
  lane.now = at;
  EventQueue& queue = lane.queue;
  while (!queue.empty() && queue.front().time <= at) {
    Event meta;
    SmallFn fn = queue.Pop(meta);
    ++lane.processed;
    fn();
  }
  tls_lane_ = nullptr;
}

void Simulation::ExecuteEpoch(std::vector<Lane*>& active, SimTime end) {
  if (active.empty()) return;
  obs::Profiler* const prof = profiler_;
  ProfClock::time_point t0;
  if (prof) t0 = ProfClock::now();
  {
    std::lock_guard<std::mutex> lock(workers_->mutex);
    workers_->active = &active;
    workers_->epoch_end = end;
    workers_->next.store(0, std::memory_order_relaxed);
    workers_->running = static_cast<unsigned>(workers_->workers.size());
    ++workers_->generation;
    epoch_end_ = end;
    in_epoch_ = true;
  }
  workers_->work_cv.notify_all();
  DrainActiveLanes(active, end);
  // Barrier wait: host time the coordinator spends blocked on stragglers
  // after finishing its own share — the epoch's load-imbalance cost.
  ProfClock::time_point tb;
  if (prof) tb = ProfClock::now();
  {
    std::unique_lock<std::mutex> lock(workers_->mutex);
    workers_->done_cv.wait(lock, [this] { return workers_->running == 0; });
    in_epoch_ = false;
  }
  if (prof) {
    const ProfClock::time_point t1 = ProfClock::now();
    prof->OnEpoch(NsBetween(t0, t1), NsBetween(tb, t1), active.size(),
                  workers_->workers.size() + 1);
  }
}

void Simulation::DrainActiveLanes(std::vector<Lane*>& active, SimTime end) {
  for (;;) {
    const std::size_t i =
        workers_->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= active.size()) break;
    RunLaneEpoch(*active[i], end);
  }
}

void Simulation::MergeOutboxes() {
  // Deterministic by construction: outboxes merge in lane order, and the
  // destination heaps re-establish the canonical (time, dst, src, seq)
  // order regardless of insertion sequence.
  for (const auto& lane : lanes_) {
    for (PendingEvent& pending : lane->outbox) {
      lanes_[pending.meta.dst]->queue.Push(pending.meta,
                                           std::move(pending.fn));
    }
    lane->outbox.clear();
  }
}

void Simulation::RunEpochHooks() {
  for (const auto& hook : epoch_hooks_) hook();
}

void Simulation::EnsureWorkers() {
  if (workers_) return;
  workers_ = std::make_unique<ParallelState>();
  const unsigned count = threads_ - 1;
  workers_->workers.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_->workers.emplace_back([this] { WorkerLoop(); });
  }
}

void Simulation::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::vector<Lane*>* active = nullptr;
    SimTime end = 0;
    {
      std::unique_lock<std::mutex> lock(workers_->mutex);
      workers_->work_cv.wait(lock, [this, seen] {
        return workers_->stop || workers_->generation != seen;
      });
      if (workers_->stop) return;
      seen = workers_->generation;
      active = workers_->active;
      end = workers_->epoch_end;
    }
    DrainActiveLanes(*active, end);
    {
      std::lock_guard<std::mutex> lock(workers_->mutex);
      --workers_->running;
    }
    workers_->done_cv.notify_all();
  }
}

}  // namespace orderless::sim
