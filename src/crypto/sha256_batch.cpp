// Runtime kernel dispatch for SHA-256: CPU feature detection, the
// test/bench kernel override, the shared Compress() used by the incremental
// Sha256, and HashBatch. Digests are identical across every kernel; the
// kernel choice only changes which host instructions compute them.
#include <atomic>

#include "crypto/sha256_internal.h"
#include "crypto/sha256_wide.h"

namespace orderless::crypto {

namespace internal {

// 4-lane instantiation at the baseline ISA (SSE2 on x86-64).
template void HashWide<V4>(const BytesView*, Digest*, std::size_t);

}  // namespace internal

namespace batch {

namespace {

Kernel g_forced = Kernel::kAuto;

// Dispatch counting (see DispatchCounts in sha256.h): one relaxed gate
// flag, relaxed per-counter atomics behind it. Exactness across threads is
// not required — the profiler reports totals after the run, when every
// worker has passed an epoch barrier (a seq_cst fence in practice).
std::atomic<bool> g_count{false};
struct AtomicCounts {
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> hashes{0};
  std::atomic<std::uint64_t> scalar{0};
  std::atomic<std::uint64_t> sha_ni{0};
  std::atomic<std::uint64_t> wide4{0};
  std::atomic<std::uint64_t> wide8{0};
  std::atomic<std::uint64_t> verify_batches{0};
  std::atomic<std::uint64_t> verify_sigs{0};
};
AtomicCounts g_counts;

bool DetectShaNi() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

bool DetectAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool CpuHasShaNi() {
  static const bool has = DetectShaNi();
  return has;
}

bool CpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

bool ForceKernel(Kernel k) {
  if (k == Kernel::kShaNi && !CpuHasShaNi()) return false;
  g_forced = k;
  return true;
}

Kernel ForcedKernel() { return g_forced; }

Kernel ActiveKernel(std::size_t n) {
  if (g_forced != Kernel::kAuto) return g_forced;
  if (CpuHasShaNi()) return Kernel::kShaNi;
  if (n >= 5 && CpuHasAvx2()) return Kernel::kWide8;
  if (n >= 2) return Kernel::kWide4;
  return Kernel::kScalar;
}

ScopedKernel::ScopedKernel(Kernel k) : prev_(g_forced), ok_(ForceKernel(k)) {}

ScopedKernel::~ScopedKernel() { g_forced = prev_; }

void SetCountDispatch(bool on) {
  g_count.store(on, std::memory_order_relaxed);
}

bool CountDispatch() { return g_count.load(std::memory_order_relaxed); }

DispatchCounts Counts() {
  DispatchCounts c;
  c.batches = g_counts.batches.load(std::memory_order_relaxed);
  c.hashes = g_counts.hashes.load(std::memory_order_relaxed);
  c.scalar = g_counts.scalar.load(std::memory_order_relaxed);
  c.sha_ni = g_counts.sha_ni.load(std::memory_order_relaxed);
  c.wide4 = g_counts.wide4.load(std::memory_order_relaxed);
  c.wide8 = g_counts.wide8.load(std::memory_order_relaxed);
  c.verify_batches = g_counts.verify_batches.load(std::memory_order_relaxed);
  c.verify_sigs = g_counts.verify_sigs.load(std::memory_order_relaxed);
  return c;
}

void ResetCounts() {
  g_counts.batches.store(0, std::memory_order_relaxed);
  g_counts.hashes.store(0, std::memory_order_relaxed);
  g_counts.scalar.store(0, std::memory_order_relaxed);
  g_counts.sha_ni.store(0, std::memory_order_relaxed);
  g_counts.wide4.store(0, std::memory_order_relaxed);
  g_counts.wide8.store(0, std::memory_order_relaxed);
  g_counts.verify_batches.store(0, std::memory_order_relaxed);
  g_counts.verify_sigs.store(0, std::memory_order_relaxed);
}

void TallyVerify(std::size_t sigs) {
  if (!CountDispatch()) return;
  g_counts.verify_batches.fetch_add(1, std::memory_order_relaxed);
  g_counts.verify_sigs.fetch_add(sigs, std::memory_order_relaxed);
}

namespace {

void TallyBatch(Kernel kernel, std::size_t n) {
  g_counts.batches.fetch_add(1, std::memory_order_relaxed);
  g_counts.hashes.fetch_add(n, std::memory_order_relaxed);
  switch (kernel) {
    case Kernel::kScalar:
      g_counts.scalar.fetch_add(1, std::memory_order_relaxed);
      break;
    case Kernel::kShaNi:
      g_counts.sha_ni.fetch_add(1, std::memory_order_relaxed);
      break;
    case Kernel::kWide4:
      g_counts.wide4.fetch_add(1, std::memory_order_relaxed);
      break;
    case Kernel::kWide8:
      g_counts.wide8.fetch_add(1, std::memory_order_relaxed);
      break;
    case Kernel::kAuto:
      break;
  }
}

}  // namespace

}  // namespace batch

namespace internal {

void Compress(std::uint32_t state[8], const std::uint8_t* blocks,
              std::size_t nblocks) {
#if defined(__x86_64__) || defined(_M_X64)
  switch (batch::ForcedKernel()) {
    case batch::Kernel::kShaNi:
      CompressShaNi(state, blocks, nblocks);
      return;
    case batch::Kernel::kAuto:
      if (batch::CpuHasShaNi()) {
        CompressShaNi(state, blocks, nblocks);
        return;
      }
      break;
    default:
      break;
  }
#endif
  CompressScalar(state, blocks, nblocks);
}

}  // namespace internal

void Sha256::HashBatch(const BytesView* inputs, Digest* out, std::size_t n) {
  if (n == 0) return;
  const batch::Kernel kernel = batch::ActiveKernel(n);
  if (batch::CountDispatch()) batch::TallyBatch(kernel, n);
  switch (kernel) {
    case batch::Kernel::kWide8:
      internal::HashWide<internal::V8>(inputs, out, n);
      return;
    case batch::Kernel::kWide4:
      internal::HashWide<internal::V4>(inputs, out, n);
      return;
    case batch::Kernel::kAuto:  // unreachable: ActiveKernel resolves kAuto
    case batch::Kernel::kShaNi:
    case batch::Kernel::kScalar:
      // Per-lane one-shot; Compress() inside Hash() picks SHA-NI or scalar.
      for (std::size_t i = 0; i < n; ++i) out[i] = Hash(inputs[i]);
      return;
  }
}

}  // namespace orderless::crypto
