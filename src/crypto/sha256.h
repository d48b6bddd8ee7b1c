// From-scratch SHA-256 (FIPS 180-4). The whole reproduction runs offline, so
// we implement the hash rather than depend on OpenSSL.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace orderless::crypto {

/// A 32-byte SHA-256 digest, usable as a map key.
struct Digest {
  std::array<std::uint8_t, 32> bytes{};

  auto operator<=>(const Digest&) const = default;
  std::string Hex() const;
  /// First 8 bytes as a little-endian integer, handy for hash-table sharding
  /// and ids. Inline + single load: this is the hash function for every
  /// Digest-keyed map in the system, so it runs on each lookup/insert.
  std::uint64_t Prefix64() const {
    std::uint64_t v;
    std::memcpy(&v, bytes.data(), sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  BytesView View() const { return BytesView(bytes.data(), bytes.size()); }
  static Digest FromHexOrZero(std::string_view hex);
};

struct DigestHash {
  std::size_t operator()(const Digest& d) const noexcept {
    return static_cast<std::size_t>(d.Prefix64());
  }
};

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();
  void Update(BytesView data);
  void Update(std::string_view data);
  Digest Finalize();

  static Digest Hash(BytesView data);
  static Digest Hash(std::string_view data);

  /// Hashes `n` independent inputs: out[i] == Hash(inputs[i]) byte-for-byte.
  /// With batch crypto enabled the work runs on the fastest kernel this CPU
  /// has (SHA-NI, 8-wide AVX2 or 4-wide SSE2 multi-buffer); with it disabled
  /// — or on machines with none of those — it is a plain scalar loop. Inputs
  /// may have unequal lengths.
  static void HashBatch(const BytesView* inputs, Digest* out, std::size_t n);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Kernel selection controls for HashBatch and the incremental Sha256,
/// exposed so tests can force every kernel through the FIPS vectors and
/// benchmarks can measure each width on its own.
namespace batch {

/// kAuto = runtime dispatch by CPU capability: SHA-NI > 8-wide AVX2
/// (batches of 5+) > 4-wide (batches of 2+) > scalar.
enum class Kernel { kAuto, kScalar, kShaNi, kWide4, kWide8 };

bool CpuHasShaNi();
bool CpuHasAvx2();

/// Overrides kernel selection. Returns false — leaving selection unchanged —
/// if this CPU cannot run `k`. The wide kernels are portable (generic
/// vectors), so only kShaNi can be refused.
bool ForceKernel(Kernel k);
Kernel ForcedKernel();

/// The kernel HashBatch would use right now for a batch of `n` inputs.
Kernel ActiveKernel(std::size_t n);

/// Host-side dispatch statistics for the profiler (obs::Profiler): how many
/// HashBatch calls landed on which kernel, and how much work the batched
/// signature verifier pushed through them. Counting is OFF by default and
/// gated on one relaxed atomic flag, so the default hot path pays a single
/// predictable branch and never allocates; with counting on, tallies are
/// relaxed atomics (organization lanes hash concurrently).
struct DispatchCounts {
  std::uint64_t batches = 0;  // HashBatch calls (n > 0)
  std::uint64_t hashes = 0;   // total inputs across those calls
  std::uint64_t scalar = 0;   // batches landing on each kernel
  std::uint64_t sha_ni = 0;
  std::uint64_t wide4 = 0;
  std::uint64_t wide8 = 0;
  std::uint64_t verify_batches = 0;  // Pki::VerifyBatch multi-buffer passes
  std::uint64_t verify_sigs = 0;     // signatures staged through them
};

void SetCountDispatch(bool on);
bool CountDispatch();
DispatchCounts Counts();
void ResetCounts();
/// Tally hook for the batched verifier (crypto/pki.cpp); no-op while
/// counting is off.
void TallyVerify(std::size_t sigs);

/// RAII kernel override; restores the previous selection on destruction.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kernel k);
  ~ScopedKernel();
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;
  /// False if the requested kernel was refused (no CPU support).
  bool ok() const { return ok_; }

 private:
  Kernel prev_;
  bool ok_;
};

}  // namespace batch

}  // namespace orderless::crypto
