// SSSE3 region kernels: 128-bit pshufb split-nibble-table multiplication,
// the technique of "Screaming Fast Galois Field Arithmetic Using Intel SIMD
// Instructions" (Plank et al., FAST'13) that the paper's evaluation uses.
//
// Layout notes (little-endian x86):
//  * w=8 : product byte = Tlo[n0] ^ Thi[n1].
//  * w=16: symbol s_i occupies bytes {2i, 2i+1}; nibbles n0,n1 live in the
//          low byte, n2,n3 in the high byte. Low/high product bytes are
//          gathered with per-output-byte tables and merged with a lane shift.
//  * w=32: symbol occupies bytes {4i..4i+3}; 8 nibble positions × 4 output
//          bytes = 32 shuffle tables, one pshufb each.
// Index vectors are masked so that non-symbol byte positions carry index 0,
// and every table maps 0 -> 0 (c * 0 = 0), so stray lanes contribute zero.
#if defined(__x86_64__) || defined(__i386__)

#include <tmmintrin.h>

#include <cstring>

#include "gf/dot_simd.h"
#include "gf/region_kernels.h"

namespace ppm::gf::internal {

namespace {

// Build one 16-entry pshufb table holding byte `byte_index` of
// split[16*pos + v] for v in [0,16).
inline __m128i byte_table(const Element* split, unsigned pos,
                          unsigned byte_index) {
  alignas(16) std::uint8_t t[16];
  for (unsigned v = 0; v < 16; ++v) {
    t[v] = static_cast<std::uint8_t>(split[16 * pos + v] >> (8 * byte_index));
  }
  return _mm_load_si128(reinterpret_cast<const __m128i*>(t));
}

inline __m128i loadu(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void storeu(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

template <bool Xor>
inline void emit(std::uint8_t* dst, __m128i product) {
  if constexpr (Xor) {
    storeu(dst, _mm_xor_si128(product, loadu(dst)));
  } else {
    storeu(dst, product);
  }
}

template <bool Xor>
void run_w8(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
            const Element* split) {
  const __m128i tlo = byte_table(split, 0, 0);
  const __m128i thi = byte_table(split, 1, 0);
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const __m128i v = loadu(src + i);
    const __m128i lo = _mm_and_si128(v, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
    const __m128i p =
        _mm_xor_si128(_mm_shuffle_epi8(tlo, lo), _mm_shuffle_epi8(thi, hi));
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_scalar_w8(dst + i, src + i, bytes - i, split);
    } else {
      mult_over_scalar_w8(dst + i, src + i, bytes - i, split);
    }
  }
}

template <bool Xor>
void run_w16(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const Element* split) {
  // Per-output-byte tables: L[k] = low bytes of split position k,
  // H[k] = high bytes.
  __m128i lo_tab[4];
  __m128i hi_tab[4];
  for (unsigned k = 0; k < 4; ++k) {
    lo_tab[k] = byte_table(split, k, 0);
    hi_tab[k] = byte_table(split, k, 1);
  }
  const __m128i nib = _mm_set1_epi8(0x0F);
  const __m128i even = _mm_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const __m128i v = loadu(src + i);
    const __m128i lo = _mm_and_si128(v, nib);                      // n0 | n2
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), nib);   // n1 | n3
    const __m128i n0 = _mm_and_si128(lo, even);    // n0 at even bytes
    const __m128i n1 = _mm_and_si128(hi, even);    // n1 at even bytes
    const __m128i n2 = _mm_srli_epi16(lo, 8);      // n2 moved to even bytes
    const __m128i n3 = _mm_srli_epi16(hi, 8);      // n3 moved to even bytes
    __m128i pl = _mm_shuffle_epi8(lo_tab[0], n0);
    pl = _mm_xor_si128(pl, _mm_shuffle_epi8(lo_tab[1], n1));
    pl = _mm_xor_si128(pl, _mm_shuffle_epi8(lo_tab[2], n2));
    pl = _mm_xor_si128(pl, _mm_shuffle_epi8(lo_tab[3], n3));
    __m128i ph = _mm_shuffle_epi8(hi_tab[0], n0);
    ph = _mm_xor_si128(ph, _mm_shuffle_epi8(hi_tab[1], n1));
    ph = _mm_xor_si128(ph, _mm_shuffle_epi8(hi_tab[2], n2));
    ph = _mm_xor_si128(ph, _mm_shuffle_epi8(hi_tab[3], n3));
    const __m128i p = _mm_xor_si128(pl, _mm_slli_epi16(ph, 8));
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_scalar_w16(dst + i, src + i, bytes - i, split);
    } else {
      mult_over_scalar_w16(dst + i, src + i, bytes - i, split);
    }
  }
}

template <bool Xor>
void run_w32(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const Element* split) {
  __m128i tab[8][4];
  for (unsigned k = 0; k < 8; ++k) {
    for (unsigned b = 0; b < 4; ++b) tab[k][b] = byte_table(split, k, b);
  }
  const __m128i nib = _mm_set1_epi8(0x0F);
  const __m128i low32 = _mm_set1_epi32(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const __m128i v = loadu(src + i);
    const __m128i lo = _mm_and_si128(v, nib);
    const __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), nib);
    // Nibble k of each dword, moved to that dword's byte 0.
    __m128i idx[8];
    for (unsigned k = 0; k < 8; ++k) {
      const __m128i srcv = (k & 1) ? hi : lo;
      idx[k] = _mm_and_si128(
          _mm_srli_epi32(srcv, static_cast<int>(8 * (k / 2))), low32);
    }
    __m128i p = _mm_setzero_si128();
    for (unsigned b = 0; b < 4; ++b) {
      __m128i pb = _mm_shuffle_epi8(tab[0][b], idx[0]);
      for (unsigned k = 1; k < 8; ++k) {
        pb = _mm_xor_si128(pb, _mm_shuffle_epi8(tab[k][b], idx[k]));
      }
      p = _mm_xor_si128(p, _mm_slli_epi32(pb, static_cast<int>(8 * b)));
    }
    emit<Xor>(dst + i, p);
  }
  if (i < bytes) {
    if constexpr (Xor) {
      mult_xor_scalar_w32(dst + i, src + i, bytes - i, split);
    } else {
      mult_over_scalar_w32(dst + i, src + i, bytes - i, split);
    }
  }
}

// Vector policy of the dot kernels (gf/dot_simd.h) at 128 bits.
struct Sse {
  using T = __m128i;
  static constexpr std::size_t kBytes = 16;
  static constexpr std::size_t kRegs = 16;
  static T loadu(const std::uint8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(std::uint8_t* p, T v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static T load_tail(const std::uint8_t* p, std::size_t n) {
    alignas(16) std::uint8_t b[16] = {};
    std::memcpy(b, p, n);
    return loadu(b);
  }
  static void store_tail(std::uint8_t* p, T v, std::size_t n) {
    alignas(16) std::uint8_t b[16];
    storeu(b, v);
    std::memcpy(p, b, n);
  }
  static T bcast(const std::uint8_t* p) { return loadu(p); }
  static T zero() { return _mm_setzero_si128(); }
  static T set8(char v) { return _mm_set1_epi8(v); }
  static T set16(short v) { return _mm_set1_epi16(v); }
  static T set32(int v) { return _mm_set1_epi32(v); }
  static T xor_(T a, T b) { return _mm_xor_si128(a, b); }
  static T and_(T a, T b) { return _mm_and_si128(a, b); }
  static T shuffle(T table, T idx) { return _mm_shuffle_epi8(table, idx); }
  static T srli64(T v, unsigned n) {
    return _mm_srli_epi64(v, static_cast<int>(n));
  }
  static T srli16(T v, unsigned n) {
    return _mm_srli_epi16(v, static_cast<int>(n));
  }
  static T slli16(T v, unsigned n) {
    return _mm_slli_epi16(v, static_cast<int>(n));
  }
  static T srli32(T v, unsigned n) {
    return _mm_srli_epi32(v, static_cast<int>(n));
  }
  static T slli32(T v, unsigned n) {
    return _mm_slli_epi32(v, static_cast<int>(n));
  }
};

}  // namespace

void mult_xor_ssse3_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const Element* split) {
  run_w8<true>(dst, src, bytes, split);
}
void mult_xor_ssse3_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split) {
  run_w16<true>(dst, src, bytes, split);
}
void mult_xor_ssse3_w32(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split) {
  run_w32<true>(dst, src, bytes, split);
}
void mult_over_ssse3_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split) {
  run_w8<false>(dst, src, bytes, split);
}
void mult_over_ssse3_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split) {
  run_w16<false>(dst, src, bytes, split);
}
void mult_over_ssse3_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split) {
  run_w32<false>(dst, src, bytes, split);
}

void dot_ssse3_w8(std::uint8_t* const* dst, std::size_t rows,
                  const std::uint8_t* const* src, std::size_t nsrc,
                  std::size_t bytes, const std::uint8_t* tables) {
  dot<Sse, DotW8<Sse>>(dst, rows, src, nsrc, bytes, tables);
}
void dot_ssse3_w16(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables) {
  dot<Sse, DotW16<Sse>>(dst, rows, src, nsrc, bytes, tables);
}
void dot_ssse3_w32(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables) {
  dot<Sse, DotW32<Sse>>(dst, rows, src, nsrc, bytes, tables);
}

void xor_sse2(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes) {
  std::size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    storeu(dst + i, _mm_xor_si128(loadu(dst + i), loadu(src + i)));
  }
  if (i < bytes) xor_scalar(dst + i, src + i, bytes - i);
}

}  // namespace ppm::gf::internal

#endif  // x86
