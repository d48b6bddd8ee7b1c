#include "crypto/sha256.h"

#include <atomic>
#include <cstring>

#include "crypto/sha256_internal.h"

namespace orderless::crypto {

namespace {
std::uint32_t Rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

namespace internal {

void CompressScalar(std::uint32_t state[8], const std::uint8_t* blocks,
                    std::size_t nblocks) {
  while (nblocks-- > 0) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    blocks += 64;
  }
}

}  // namespace internal

namespace batch {

namespace {

// One relaxed gate flag, relaxed per-counter atomics behind it. Exactness
// across threads is not required: the profiler reads totals after the run,
// when every worker has passed an epoch barrier.
std::atomic<bool> g_count{false};
std::atomic<std::uint64_t> g_hashes{0};
std::atomic<std::uint64_t> g_verify_batches{0};
std::atomic<std::uint64_t> g_verify_sigs{0};

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

Kernel ActiveKernel(std::size_t /*n*/) {
  return CpuHasShaNi() ? Kernel::kShaNi : Kernel::kScalar;
}

void SetCountDispatch(bool on) {
  g_count.store(on, std::memory_order_relaxed);
}

DispatchCounts Counts() {
  DispatchCounts c;
  c.hashes = g_hashes.load(std::memory_order_relaxed);
  c.verify_batches = g_verify_batches.load(std::memory_order_relaxed);
  c.verify_sigs = g_verify_sigs.load(std::memory_order_relaxed);
  return c;
}

void ResetCounts() {
  g_hashes.store(0, std::memory_order_relaxed);
  g_verify_batches.store(0, std::memory_order_relaxed);
  g_verify_sigs.store(0, std::memory_order_relaxed);
}

void TallyVerify(std::size_t sigs, std::size_t hashes) {
  if (!g_count.load(std::memory_order_relaxed)) return;
  g_verify_batches.fetch_add(1, std::memory_order_relaxed);
  g_verify_sigs.fetch_add(sigs, std::memory_order_relaxed);
  g_hashes.fetch_add(hashes, std::memory_order_relaxed);
}

}  // namespace batch

namespace {

// SHA-NI when the CPU has it, scalar otherwise. The digest is the same
// either way; only host time differs.
void Compress(std::uint32_t state[8], const std::uint8_t* blocks,
              std::size_t nblocks) {
#if defined(__x86_64__) || defined(_M_X64)
  if (batch::CpuHasShaNi()) {
    internal::CompressShaNi(state, blocks, nblocks);
    return;
  }
#endif
  internal::CompressScalar(state, blocks, nblocks);
}

}  // namespace

std::string Digest::Hex() const { return ToHex(View()); }

Digest Digest::FromHexOrZero(std::string_view hex) {
  Digest d;
  bool ok = false;
  const Bytes raw = FromHex(hex, &ok);
  if (ok && raw.size() == d.bytes.size()) {
    std::memcpy(d.bytes.data(), raw.data(), raw.size());
  }
  return d;
}

Sha256::Sha256() {
  std::memcpy(state_.data(), internal::kIv, sizeof(internal::kIv));
}

void Sha256::Update(BytesView data) {
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == buffer_.size()) {
      Compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // Hand all remaining whole blocks to the kernel in one call so SHA-NI can
  // keep its state in registers across blocks.
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    Compress(state_.data(), data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(BytesView(reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::Finalize() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then the 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_len_ % 64);
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  Update(BytesView(pad, pad_len));
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  Update(BytesView(len_bytes, 8));

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[i * 4 + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

Digest Sha256::Hash(BytesView data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

}  // namespace orderless::crypto
