// PCLMULQDQ CRC-32: fold four 128-bit lanes over the message, then fold
// to one lane and Barrett-reduce to 32 bits (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009; the
// shape of zlib/Chromium's crc32_simd). Every fold multiplies the lane's
// two 64-bit halves by x^(D±32) mod P, which moves them D bits further
// along the message without changing the remainder.
//
// Compiled with -mpclmul -msse4.1; common/crc32.cpp only selects it when
// the CPU reports both.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "common/crc32_kernels.h"

namespace ppm::internal {

namespace {

template <unsigned D>
__m128i fold_pair() {
  return _mm_set_epi64x(static_cast<long long>(Crc32Fold<D>::kHi),
                        static_cast<long long>(Crc32Fold<D>::kLo));
}

inline __m128i loadu(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// `x` advanced over the bits the constant pair `k` encodes.
inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

}  // namespace

std::uint32_t crc32_fold128_finish(__m128i state, const std::uint8_t* p,
                                   std::size_t bytes) {
  const __m128i k128 = fold_pair<128>();
  for (; bytes >= 16; bytes -= 16, p += 16) {
    state = _mm_xor_si128(fold(state, k128), loadu(p));
  }

  // 128 -> 64 bits: the low half times x^96, plus the high half...
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  __m128i x = _mm_xor_si128(_mm_srli_si128(state, 8),
                            _mm_clmulepi64_si128(state, k128, 0x10));
  // ...then the low 32 bits times x^64, which leaves a 64-bit remainder.
  const __m128i k64 = _mm_set_epi64x(
      0, static_cast<long long>(crc32_fold_constant(64)));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00));

  // Barrett reduction: q = floor(x * mu / x^64), crc = x - q * P. Low
  // qword P' = reflected P (33 bits), high qword mu = reflected
  // floor(x^64 / P) (33 bits).
  const __m128i barrett = _mm_set_epi64x(0x1F7011641ll, 0x1DB710641ll);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  const auto crc =
      static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
  return crc32_slice8(p, bytes, ~crc);
}

std::uint32_t crc32_pclmul(const void* data, std::size_t bytes,
                           std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  if (bytes < 64) return crc32_slice8(p, bytes, seed);

  __m128i x0 =
      _mm_xor_si128(loadu(p), _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i x1 = loadu(p + 16);
  __m128i x2 = loadu(p + 32);
  __m128i x3 = loadu(p + 48);
  p += 64;
  bytes -= 64;

  const __m128i k512 = fold_pair<512>();
  for (; bytes >= 64; bytes -= 64, p += 64) {
    x0 = _mm_xor_si128(fold(x0, k512), loadu(p));
    x1 = _mm_xor_si128(fold(x1, k512), loadu(p + 16));
    x2 = _mm_xor_si128(fold(x2, k512), loadu(p + 32));
    x3 = _mm_xor_si128(fold(x3, k512), loadu(p + 48));
  }

  const __m128i k128 = fold_pair<128>();
  x1 = _mm_xor_si128(fold(x0, k128), x1);
  x2 = _mm_xor_si128(fold(x1, k128), x2);
  x3 = _mm_xor_si128(fold(x2, k128), x3);
  return crc32_fold128_finish(x3, p, bytes);
}

}  // namespace ppm::internal

#endif  // x86
