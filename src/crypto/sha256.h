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

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Which compression kernel runs, and the counters behind the profiler's
/// and the benchmark's crypto figures.
namespace batch {

/// Every hash compresses on SHA-NI when the CPU has it and on the portable
/// scalar kernel otherwise. kAuto, kWide4 and kWide8 name no kernel; they
/// stay so callers that switch over the enum keep compiling.
enum class Kernel { kAuto, kScalar, kShaNi, kWide4, kWide8 };

bool CpuHasShaNi();
bool CpuHasAvx2();

/// The kernel every hash runs on: kShaNi or kScalar, whatever `n` is.
Kernel ActiveKernel(std::size_t n);

/// Work done by Pki::VerifyBatch. Counting is OFF by default and gated on
/// one relaxed atomic flag, so the default hot path pays a single
/// predictable branch; with counting on, tallies are relaxed atomics
/// (organization lanes verify concurrently).
struct DispatchCounts {
  std::uint64_t hashes = 0;          // keyed hashes computed (known signers)
  std::uint64_t verify_batches = 0;  // VerifyBatch calls with n > 0
  std::uint64_t verify_sigs = 0;     // items passed to those calls
};

void SetCountDispatch(bool on);
DispatchCounts Counts();
void ResetCounts();
/// Tally hook for one VerifyBatch call (crypto/pki.cpp); no-op while
/// counting is off.
void TallyVerify(std::size_t sigs, std::size_t hashes);

}  // namespace batch

}  // namespace orderless::crypto
