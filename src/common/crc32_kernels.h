// Internal declarations of the CRC-32 kernels behind ppm::crc32.
//
// Every kernel computes exactly the same function as ppm::crc32 (same
// seed/chaining semantics). The PCLMULQDQ and VPCLMULQDQ translation units
// are compiled with the matching -m flags; common/crc32.cpp only selects
// them on CPUs that report support.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

namespace ppm::internal {

// ----- portable (always available) -----
std::uint32_t crc32_slice8(const void* data, std::size_t bytes,
                           std::uint32_t seed);

#if defined(__x86_64__) || defined(__i386__)
// ----- PCLMULQDQ + SSE4.1: 4 x 128-bit folding, Barrett reduction -----
std::uint32_t crc32_pclmul(const void* data, std::size_t bytes,
                           std::uint32_t seed);

/// Finish a folded CRC: `state` is the 128-bit remainder of everything
/// before `p` (already carrying the inverted seed); fold the remaining
/// whole 16-byte blocks into it, Barrett-reduce to 32 bits and hand the
/// last (< 16) bytes to the portable kernel. Shared by both folding
/// kernels; requires PCLMULQDQ + SSE4.1.
std::uint32_t crc32_fold128_finish(__m128i state, const std::uint8_t* p,
                                   std::size_t bytes);

// ----- VPCLMULQDQ + AVX-512F: 4 x 512-bit folding -----
std::uint32_t crc32_vpclmul(const void* data, std::size_t bytes,
                            std::uint32_t seed);

/// Folding constant for the reflected CRC-32 polynomial 0xEDB88320:
/// x^n mod P(x), bit-reflected to 32 bits and shifted left by one (the
/// carry-less product of two reflected operands lands one bit low).
/// consteval: the kernels' TUs carry different ISA flags, so nothing here
/// may become shared out-of-line code.
consteval std::uint64_t crc32_fold_constant(unsigned n) {
  // x^n mod P in the normal domain (bit k = coefficient of x^k).
  std::uint64_t r = 1;
  for (unsigned i = 0; i < n; ++i) {
    r <<= 1;
    if ((r >> 32) & 1) r ^= 0x104C11DB7ull;
  }
  std::uint64_t reflected = 0;
  for (unsigned k = 0; k < 32; ++k) {
    if ((r >> k) & 1) reflected |= std::uint64_t{1} << (31 - k);
  }
  return reflected << 1;
}

/// The pair that folds a 128-bit lane forward over `D` more message bits:
/// lane' = lo_qword * kLo ^ hi_qword * kHi.
template <unsigned D>
struct Crc32Fold {
  static constexpr std::uint64_t kLo = crc32_fold_constant(D + 32);
  static constexpr std::uint64_t kHi = crc32_fold_constant(D - 32);
};

// The fold-by-512 pair is zlib's k1/k2 (Gopal et al., Intel 2009).
static_assert(Crc32Fold<512>::kLo == 0x154442BD4ull);
static_assert(Crc32Fold<512>::kHi == 0x1C6E41596ull);
#endif

}  // namespace ppm::internal
