// VPCLMULQDQ CRC-32: the PCLMULQDQ folding scheme (crc32_pclmul.cpp) at
// 512 bits. Four zmm accumulators hold sixteen 128-bit lanes, each folded
// 2048 bits forward per 256-byte step; the accumulators then collapse to
// one zmm (fold by 512), its four lanes to one 128-bit lane (fold by 128),
// and the shared 128-bit finish does the tail and the Barrett reduction.
//
// Compiled with -mavx512f -mvpclmulqdq -mpclmul -msse4.1;
// common/crc32.cpp only selects it when the CPU reports VPCLMULQDQ at the
// AVX-512 ISA level.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "common/crc32_kernels.h"

namespace ppm::internal {

namespace {

template <unsigned D>
__m512i fold_pair512() {
  const auto lo = static_cast<long long>(Crc32Fold<D>::kLo);
  const auto hi = static_cast<long long>(Crc32Fold<D>::kHi);
  return _mm512_set_epi64(hi, lo, hi, lo, hi, lo, hi, lo);
}

inline __m512i loadu(const std::uint8_t* p) {
  return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
}

// Every 128-bit lane of `x` advanced over the bits `k` encodes, XORed
// with `next` (one three-way XOR).
inline __m512i fold_xor(__m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next,
                                   0x96);
}

inline __m128i fold128_xor(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

}  // namespace

std::uint32_t crc32_vpclmul(const void* data, std::size_t bytes,
                            std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (bytes < 256) return crc32_pclmul(p, bytes, seed);

  __m512i z0 = _mm512_xor_si512(
      loadu(p), _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, ~seed));
  __m512i z1 = loadu(p + 64);
  __m512i z2 = loadu(p + 128);
  __m512i z3 = loadu(p + 192);
  p += 256;
  bytes -= 256;

  const __m512i k2048 = fold_pair512<2048>();
  for (; bytes >= 256; bytes -= 256, p += 256) {
    z0 = fold_xor(z0, k2048, loadu(p));
    z1 = fold_xor(z1, k2048, loadu(p + 64));
    z2 = fold_xor(z2, k2048, loadu(p + 128));
    z3 = fold_xor(z3, k2048, loadu(p + 192));
  }

  const __m512i k512 = fold_pair512<512>();
  z1 = fold_xor(z0, k512, z1);
  z2 = fold_xor(z1, k512, z2);
  z3 = fold_xor(z2, k512, z3);
  for (; bytes >= 64; bytes -= 64, p += 64) {
    z3 = fold_xor(z3, k512, loadu(p));
  }

  const __m128i k128 =
      _mm_set_epi64x(static_cast<long long>(Crc32Fold<128>::kHi),
                     static_cast<long long>(Crc32Fold<128>::kLo));
  alignas(64) __m128i lanes[4];
  _mm512_store_si512(static_cast<void*>(lanes), z3);
  __m128i x = lanes[0];
  for (int i = 1; i < 4; ++i) x = fold128_xor(x, k128, lanes[i]);
  return crc32_fold128_finish(x, p, bytes);
}

}  // namespace ppm::internal

#endif  // x86
