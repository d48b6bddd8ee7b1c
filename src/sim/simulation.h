// Deterministic discrete-event simulation loop with an optional
// conservatively-parallel executor.
//
// This is the substrate substituting for the paper's 16-VM testbed: all
// network transmission, CPU service and timer behaviour is expressed as
// events on this engine.
//
// Sequential mode (threads = 1, the default) is one global event heap — the
// substrate the repo always had. Parallel mode (threads > 1, with registered
// actors and a positive lookahead) assigns every event to an actor *lane*
// (organization N / client M / lane 0, the harness), executes conservative
// epochs [T, T + lookahead) on a worker pool, buffers cross-lane sends in
// per-lane outboxes and merges them at the epoch barrier.
//
// Determinism: both modes order events by the same canonical key
//   (time, destination actor, source actor, source-local sequence)
// — never by thread arrival order — so a parallel run executes the exact
// event sequence of the sequential one at every lane: same RNG draws, same
// protocol decisions, same trace bytes (tests/parallel_determinism_test).
// The lookahead is the minimum cross-actor link delay (sim::Network proposes
// it), which guarantees an event executed in epoch [T, E) can only schedule
// onto another lane at or after E; a violation aborts the run loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace orderless::obs {
class Tracer;
class Profiler;
}

namespace orderless::sim {

/// Identifies a simulated endpoint (organization, client, injector...).
using NodeId = std::uint32_t;

/// Most worker threads one simulation runs; the CLIs reject more.
inline constexpr unsigned kMaxThreads = 256;

/// Index of an actor lane; 0 is the harness lane every un-tagged event and
/// unregistered node maps to.
using ActorId = std::uint32_t;

/// Opt-in marker asserting that every capture of the wrapped callable is
/// trivially relocatable: moving it to a new address by copying the raw
/// bytes and abandoning the source (no destructor run on the source) is
/// equivalent to move-construct + destroy. True for scalars, raw pointers,
/// and libstdc++'s std::shared_ptr/std::unique_ptr/std::string — anything
/// without interior self-pointers. SmallFn relocates such callables with
/// memcpy instead of a move-ctor/dtor pair on every slab touch; the final
/// destructor still runs, so ownership counts stay exact.
template <typename F>
struct TriviallyRelocatable {
  F fn;
  void operator()() { fn(); }
};
template <typename F>
TriviallyRelocatable(F) -> TriviallyRelocatable<F>;

namespace detail {
template <typename T>
struct IsAssumedTriviallyRelocatable : std::false_type {};
template <typename F>
struct IsAssumedTriviallyRelocatable<TriviallyRelocatable<F>>
    : std::true_type {};
}  // namespace detail

/// Move-only callable with a 64-byte small-buffer optimization: the event
/// heap's hot-path lambdas (network deliveries, timer ticks, CPU
/// completions) fit inline, so scheduling them performs zero heap
/// allocations — unlike std::function, which heap-allocates any capture
/// over ~16 bytes (bench/perf_hotpath counts the difference). Oversized
/// callables fall back to the heap transparently.
class SmallFn {
 public:
  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT: implicit by design (drop-in for std::function)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buffer_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(buffer_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buffer_); }

 private:
  static constexpr std::size_t kInlineSize = 64;
  // Pointer alignment, not max_align_t: over-aligned captures (none exist on
  // the hot paths) take the heap fallback, and the tighter buffer keeps
  // sizeof(SmallFn) == 72 instead of padding the event out to 80 bytes —
  // event moves dominate the queue's heap maintenance.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into `to` from `from`, destroying `from`. Null = a raw
    // copy of the whole buffer relocates the callable (trivially-copyable
    // inline captures and the heap-pointer fallback) — the hot path, since
    // every heap-sift of the event queue moves the stored callback.
    void (*relocate)(void* to, void* from) noexcept;
    void (*destroy)(void* storage) noexcept;  // null = trivially destructible
  };

  template <typename D>
  static void InvokeInline(void* s) {
    (*std::launder(reinterpret_cast<D*>(s)))();
  }
  template <typename D>
  static void RelocateInline(void* to, void* from) noexcept {
    D* src = std::launder(reinterpret_cast<D*>(from));
    ::new (to) D(std::move(*src));
    src->~D();
  }
  template <typename D>
  static void DestroyInline(void* s) noexcept {
    std::launder(reinterpret_cast<D*>(s))->~D();
  }
  template <typename D>
  static void InvokeHeap(void* s) {
    (**reinterpret_cast<D**>(s))();
  }
  template <typename D>
  static void DestroyHeap(void* s) noexcept {
    delete *reinterpret_cast<D**>(s);
  }

  // Relocation and destruction are independent: a TriviallyRelocatable
  // wrapper memcpy-relocates (null slot) but may still need its destructor
  // (e.g. a captured shared_ptr releases its reference exactly once, at the
  // final resting address).
  template <typename D>
  static constexpr Ops kInlineOps = {
      &InvokeInline<D>,
      std::is_trivially_copyable_v<D> ||
              detail::IsAssumedTriviallyRelocatable<D>::value
          ? nullptr
          : &RelocateInline<D>,
      std::is_trivially_destructible_v<D> ? nullptr : &DestroyInline<D>,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      &InvokeHeap<D>,
      nullptr,  // relocating the owning pointer is a raw copy
      &DestroyHeap<D>,
  };

  void MoveFrom(SmallFn& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_) {
      if (ops_->relocate) {
        ops_->relocate(buffer_, other.buffer_);
      } else {
        std::memcpy(buffer_, other.buffer_, kInlineSize);
      }
    }
  }

  void Reset() {
    if (ops_) {
      if (ops_->destroy) ops_->destroy(buffer_);
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buffer_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Simulated time: the executing lane's clock from inside an event, the
  /// engine clock otherwise. In sequential mode both are the same value, so
  /// the hot path skips the thread-local lane resolution entirely.
  SimTime now() const {
    if (!parallel_storage_) return now_;
    const Lane* lane = tls_lane_;
    return (lane && lane->owner == this) ? lane->now : now_;
  }

  // --- Parallel-execution configuration. All of it must happen before the
  // first event is scheduled: the engine latches sequential vs parallel
  // storage at that point and never migrates events between layouts. ---

  /// Worker count, clamped to 1..kMaxThreads; 1 (default) = the sequential
  /// engine, bit-identical behaviour and data layout to the pre-parallel
  /// code. The engine starts threads - 1 OS threads at the first run.
  void SetThreads(unsigned threads);
  unsigned threads() const { return threads_; }

  /// Creates an event lane for a simulated node and maps the node to it.
  /// Unregistered nodes (and everything scheduled outside events) run on
  /// lane 0, the exclusive harness lane.
  ActorId RegisterActor(NodeId node);
  ActorId ActorOf(NodeId node) const {
    return node < actor_of_.size() ? actor_of_[node] : 0;
  }
  std::size_t actor_count() const { return lanes_.size(); }

  /// Lower-bounds the conservative lookahead: the minimum cross-actor
  /// one-way delay. sim::Network calls this with its configured latency;
  /// the effective lookahead is the minimum over all proposals. Zero (no
  /// proposal) disables parallel execution.
  void ProposeLookahead(SimTime delay);
  SimTime lookahead() const { return lookahead_; }

  /// True when RunUntil/RunUntilIdle will take the epoch-parallel path.
  bool parallel() const {
    return mode_latched_ ? parallel_storage_ : WouldRunParallel();
  }

  /// Registers a callback run single-threadedly at every epoch barrier (and
  /// once more when a run finishes): the hook point where sharded host
  /// structures (trace buffers) merge deterministically.
  void AddEpochHook(std::function<void()> hook);

  /// Points a lane at its private trace shard; tracer() returns it for code
  /// executing on that lane. Null (default) = record into the main tracer.
  void SetLaneTracer(ActorId actor, obs::Tracer* shard);

  // --- Scheduling. ---

  /// Schedules `fn` to run `delay` after the current time, on the lane of
  /// the code that scheduled it (lane 0 outside events).
  void Schedule(SimTime delay, SmallFn fn);

  /// Schedules `fn` at an absolute time (clamped to now) on the current
  /// lane.
  void ScheduleAt(SimTime when, SmallFn fn);

  /// Schedules onto an explicit destination lane — the cross-actor entry
  /// point (network deliveries target the receiver's lane; harnesses target
  /// the submitting client's lane).
  void ScheduleFor(ActorId dst, SimTime delay, SmallFn fn);
  void ScheduleAtFor(ActorId dst, SimTime when, SmallFn fn);

  /// Processes every event with time <= until, then sets now = until.
  void RunUntil(SimTime until);

  /// Drains the queue completely.
  void RunUntilIdle();

  std::size_t events_processed() const {
    std::size_t n = processed_;
    for (const auto& lane : lanes_) n += lane->processed;
    return n;
  }

  /// Hint for bursty schedulers (benchmark harnesses pre-plan the whole
  /// workload): grows the event storage once instead of amortized doubling.
  /// Applies to the current lane's queue — use ReserveEventsFor when the
  /// burst targets a specific actor, or the reservation lands on the wrong
  /// heap in parallel mode.
  void ReserveEvents(std::size_t n);

  /// Reserves capacity on the queue that will actually receive a burst of
  /// `n` events for `dst`. Sequential mode accumulates the per-actor
  /// reservations into the one global heap.
  void ReserveEventsFor(ActorId dst, std::size_t n);

  /// Host-side profiler hook (obs::Profiler): per-lane busy time and epoch
  /// wall/barrier timing, sampled around the engine's own loops. Like the
  /// tracer, the simulation does not own it; unlike the tracer, it measures
  /// *host* time — simulated results stay bit-identical with or without one
  /// attached. Every engine-side hook is gated on a single pointer test, so
  /// detached runs pay nothing.
  void SetProfiler(obs::Profiler* profiler);
  obs::Profiler* profiler() const { return profiler_; }

  /// Observability hook. Components record through `tracer()` when it is
  /// non-null; the tracer never schedules events or influences protocol
  /// decisions, so attaching one cannot change a run's outcome. The
  /// simulation does not own the tracer. Inside a parallel epoch, tracer()
  /// resolves to the executing lane's shard (see SetLaneTracer).
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const {
    if (!parallel_storage_) return tracer_;  // shards exist only in parallel
    const Lane* lane = tls_lane_;
    if (lane && lane->owner == this && lane->shard) return lane->shard;
    return tracer_;
  }

 private:
  // Heap node: the canonical key plus the slab slot of the callback. Kept a
  // 32-byte POD so heap sifts move keys, never the 72-byte SmallFn payloads
  // (the queue's cache behaviour dominates the sequential hot path).
  struct Event {
    SimTime time = 0;
    ActorId dst = 0;  // destination lane (executes the event)
    ActorId src = 0;  // lane that scheduled it
    std::uint64_t seq = 0;    // source-local sequence number
    std::uint32_t slot = 0;   // index into the owning queue's slab
  };
  // The canonical total order both engines pop in: (time, dst, src, seq).
  // Pure-sequential users (no registered actors) see all-zero lane fields,
  // reducing it to the original (time, insertion sequence) order. Slot
  // numbers are storage, not identity: they never influence the order.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.dst != b.dst) return a.dst > b.dst;
      if (a.src != b.src) return a.src > b.src;
      return a.seq > b.seq;
    }
  };

  /// 4-ary min-heap of keys over a slot-addressed callback slab. Hole-based
  /// sifts move one 32-byte key per level; a callback is touched exactly
  /// twice — moved in on Push, moved out on Pop.
  struct EventQueue {
    std::vector<Event> heap;
    std::vector<SmallFn> slab;
    std::vector<std::uint32_t> free_slots;

    bool empty() const { return heap.empty(); }
    std::size_t size() const { return heap.size(); }
    const Event& front() const { return heap.front(); }
    std::size_t capacity() const { return heap.capacity(); }
    void Reserve(std::size_t n) {
      heap.reserve(heap.size() + n);
      slab.reserve(slab.size() + n);
      // Pop recycles slots through free_slots, so a fully-reserved queue
      // must pre-size it too or draining the burst still allocates.
      free_slots.reserve(free_slots.size() + n);
    }
    void Push(Event meta, SmallFn fn);
    /// Pops the canonically-earliest event; `meta_out` receives its key.
    SmallFn Pop(Event& meta_out);
  };

  // A cross-lane send buffered during an epoch: not yet slotted into the
  // destination queue's slab (that happens single-threadedly at the merge).
  struct PendingEvent {
    Event meta;
    SmallFn fn;
  };

  struct Lane {
    Simulation* owner = nullptr;
    ActorId index = 0;
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    std::size_t processed = 0;
    obs::Tracer* shard = nullptr;
    // Parallel-mode storage; sequential mode keeps everything in queue_.
    EventQueue queue;
    std::vector<PendingEvent> outbox;
  };

  struct ParallelState;  // worker pool; defined in simulation.cpp

  bool WouldRunParallel() const {
    return threads_ > 1 && lanes_.size() > 1 && lookahead_ > 0;
  }
  void LatchMode() {
    parallel_storage_ = WouldRunParallel();
    mode_latched_ = true;
  }
  Lane& CurrentLane() const {
    Lane* lane = tls_lane_;
    return (lane && lane->owner == this) ? *lane : *lanes_.front();
  }
  void ScheduleImpl(Lane& src, SimTime base, ActorId dst, SimTime when,
                    SmallFn fn);
  /// Sequential engine: runs the earliest event; false when none remain.
  bool Step();
  void RunParallel(SimTime until);
  void RunLaneEpoch(Lane& lane, SimTime end);
  void RunHarnessBarrier(SimTime at);
  void ExecuteEpoch(std::vector<Lane*>& active, SimTime end);
  void MergeOutboxes();
  void RunEpochHooks();
  void EnsureWorkers();
  void WorkerLoop();
  void DrainActiveLanes(std::vector<Lane*>& active, SimTime end);

  static thread_local Lane* tls_lane_;

  SimTime now_ = 0;
  obs::Tracer* tracer_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  std::size_t processed_ = 0;
  // Queue shape (4-ary, slab-indexed) is invisible to determinism: the
  // canonical key is a strict total order (seq is unique per source lane),
  // so every heap layout pops the same sequence.
  EventQueue queue_;  // sequential-mode storage
  std::size_t reserve_credit_ = 0;

  std::vector<std::unique_ptr<Lane>> lanes_;  // [0] = harness lane
  // Node → lane, indexed directly: node ids are small and dense, and the
  // network resolves a destination lane on every message send.
  std::vector<ActorId> actor_of_;
  unsigned threads_ = 1;
  SimTime lookahead_ = 0;
  bool mode_latched_ = false;
  bool parallel_storage_ = false;
  bool in_epoch_ = false;
  SimTime epoch_end_ = 0;
  std::vector<std::function<void()>> epoch_hooks_;
  std::unique_ptr<ParallelState> workers_;
};

}  // namespace orderless::sim
