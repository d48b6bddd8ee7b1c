#include "codec/scratch.h"

#include <atomic>
#include <memory>
#include <vector>

namespace orderless::codec {

namespace {
std::atomic<bool> g_count_pool{false};
struct AtomicPoolCounts {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> pool_hits{0};
  std::atomic<std::uint64_t> heap_allocs{0};
  std::atomic<std::uint64_t> drops{0};
};
AtomicPoolCounts g_pool_counts;
}  // namespace

void SetCountScratchPool(bool enabled) {
  g_count_pool.store(enabled, std::memory_order_relaxed);
}
bool CountScratchPool() {
  return g_count_pool.load(std::memory_order_relaxed);
}
ScratchPoolCounts ScratchPoolCountsSnapshot() {
  ScratchPoolCounts out;
  out.acquires = g_pool_counts.acquires.load(std::memory_order_relaxed);
  out.pool_hits = g_pool_counts.pool_hits.load(std::memory_order_relaxed);
  out.heap_allocs = g_pool_counts.heap_allocs.load(std::memory_order_relaxed);
  out.drops = g_pool_counts.drops.load(std::memory_order_relaxed);
  return out;
}
void ResetScratchPoolCounts() {
  g_pool_counts.acquires.store(0, std::memory_order_relaxed);
  g_pool_counts.pool_hits.store(0, std::memory_order_relaxed);
  g_pool_counts.heap_allocs.store(0, std::memory_order_relaxed);
  g_pool_counts.drops.store(0, std::memory_order_relaxed);
}

namespace {
// Thread-local: parallel lanes draw from their executing worker's pool, so
// no synchronization and no cross-thread sharing (TSan-clean by
// construction). Capacity is host-side state only — which pool a Writer
// came from can never influence encoded bytes.
thread_local std::vector<std::unique_ptr<Writer>> t_pool;
// Nested ScratchWriters deeper than this return their Writer to the heap
// instead of growing the pool without bound.
constexpr std::size_t kMaxPooled = 8;
}  // namespace

ScratchWriter::ScratchWriter() {
  const bool count = CountScratchPool();
  if (count) g_pool_counts.acquires.fetch_add(1, std::memory_order_relaxed);
  if (t_pool.empty()) {
    if (count) {
      g_pool_counts.heap_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    writer_ = new Writer();
    return;
  }
  if (count) g_pool_counts.pool_hits.fetch_add(1, std::memory_order_relaxed);
  writer_ = t_pool.back().release();
  t_pool.pop_back();
  writer_->Clear();
}

ScratchWriter::~ScratchWriter() {
  if (t_pool.size() < kMaxPooled) {
    t_pool.emplace_back(writer_);
  } else {
    if (CountScratchPool()) {
      g_pool_counts.drops.fetch_add(1, std::memory_order_relaxed);
    }
    delete writer_;
  }
}

std::size_t ScratchWriterPoolSize() { return t_pool.size(); }

}  // namespace orderless::codec
