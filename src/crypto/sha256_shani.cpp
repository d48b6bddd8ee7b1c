// SHA-NI block compression. Kept in its own translation unit so only this
// function carries the sha/sse4.1 target attributes; Sha256 calls it only
// after batch::CpuHasShaNi() reported the extension (sha256.cpp).
#include "crypto/sha256_internal.h"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace orderless::crypto::internal {

__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t nblocks) {
  // Big-endian word loads expressed as a byte shuffle.
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Re-arrange {a..h} into the ABEF/CDGH register layout sha256rnds2 wants.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  st1 = _mm_shuffle_epi32(st1, 0x1B);
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);

  while (nblocks-- > 0) {
    const __m128i save0 = st0;
    const __m128i save1 = st1;

    // Sixteen groups of four rounds. Groups 0-3 load message words; later
    // groups extend the schedule from the rolling window m[0..3] in one
    // msg1 + align + msg2 step per group:
    //   W[4g..4g+3] = msg2(msg1(m0, m1) + alignr(m3, m2, 4), m3).
    __m128i m[4];
    for (int g = 0; g < 16; ++g) {
      __m128i cur;
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            kShuf);
        m[g] = cur;
      } else {
        const __m128i t = _mm_alignr_epi8(m[3], m[2], 4);
        cur = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(m[0], m[1]), t), m[3]);
        m[0] = m[1];
        m[1] = m[2];
        m[2] = m[3];
        m[3] = cur;
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      st1 = _mm_sha256rnds2_epu32(st1, st0, wk);
      st0 = _mm_sha256rnds2_epu32(st0, st1, _mm_shuffle_epi32(wk, 0x0E));
    }

    st0 = _mm_add_epi32(st0, save0);
    st1 = _mm_add_epi32(st1, save1);
    blocks += 64;
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);
  st1 = _mm_shuffle_epi32(st1, 0xB1);
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);
  st1 = _mm_alignr_epi8(st1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

}  // namespace orderless::crypto::internal

#endif  // x86_64
