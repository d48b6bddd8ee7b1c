// Pooled scratch Writers for within-event encode work.
//
// Hot paths (write-set digests, ledger record encodes, reply comparisons)
// each used to construct a fresh Writer, paying one heap allocation per
// use. A ScratchWriter borrows from a thread-local pool instead: released
// Writers keep their buffer capacity (Writer::Clear()), so steady-state
// encodes run malloc-free. Which pool a Writer came from never influences
// the encoded bytes.
//
// Scope rule: never hold a ScratchWriter (or a view of its buffer) across an
// event boundary; copy bytes out before returning.
#pragma once

#include "codec/codec.h"

namespace orderless::codec {

class ScratchWriter {
 public:
  ScratchWriter();
  ~ScratchWriter();
  ScratchWriter(const ScratchWriter&) = delete;
  ScratchWriter& operator=(const ScratchWriter&) = delete;

  Writer& operator*() { return *writer_; }
  Writer* operator->() { return writer_; }
  Writer* get() { return writer_; }

 private:
  Writer* writer_;
};

/// Pool occupancy for the current thread (tests/diagnostics).
std::size_t ScratchWriterPoolSize();

/// Pool traffic counters for the host profiler. Counting is OFF by default:
/// the constructor/destructor check one relaxed atomic flag and only then
/// touch the (relaxed atomic) counters, so unprofiled runs pay a predictable
/// non-contended load and nothing else. Recycle hit rate = pool_hits /
/// acquires; drops are returns discarded because the pool was full.
struct ScratchPoolCounts {
  std::uint64_t acquires = 0;    // pooled ScratchWriter constructions
  std::uint64_t pool_hits = 0;   // served by reusing a pooled Writer
  std::uint64_t heap_allocs = 0; // fell through to `new Writer`
  std::uint64_t drops = 0;       // destructor deletes (pool at capacity)
};
void SetCountScratchPool(bool enabled);
bool CountScratchPool();
ScratchPoolCounts ScratchPoolCountsSnapshot();
void ResetScratchPoolCounts();

}  // namespace orderless::codec
