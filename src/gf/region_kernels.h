// Internal declarations of the per-ISA region kernels.
//
// The single-region kernels implement dst (^)= c * src symbol-wise, where
// the caller expands the constant into nibble split tables for the call:
// split[16*k + v] = c * (v << 4k). The dot kernels (DotFn) compute up to
// kMaxDotRows outputs from any number of sources over coefficients
// prepared once by Field::prepare — Element split tables for scalar,
// 16-byte pshufb lanes for the SIMD levels (their shared body is
// gf/dot_simd.h). The SSSE3/AVX2/AVX-512 translation units are compiled
// with the matching -m flags; callers must only invoke them when
// common/cpu.h reports support.
#pragma once

#include "gf/galois_field.h"

namespace ppm::gf::internal {

// ----- scalar (always available) -----
void mult_xor_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void mult_xor_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_xor_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_over_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_over_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split);
void mult_over_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split);
void dot_scalar_w8(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables);
void dot_scalar_w16(std::uint8_t* const* dst, std::size_t rows,
                    const std::uint8_t* const* src, std::size_t nsrc,
                    std::size_t bytes, const std::uint8_t* tables);
void dot_scalar_w32(std::uint8_t* const* dst, std::size_t rows,
                    const std::uint8_t* const* src, std::size_t nsrc,
                    std::size_t bytes, const std::uint8_t* tables);
void xor_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

#if defined(__x86_64__) || defined(__i386__)
// ----- SSSE3 -----
void mult_xor_ssse3_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const Element* split);
void mult_xor_ssse3_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void mult_xor_ssse3_w32(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void mult_over_ssse3_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void mult_over_ssse3_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_over_ssse3_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void dot_ssse3_w8(std::uint8_t* const* dst, std::size_t rows,
                  const std::uint8_t* const* src, std::size_t nsrc,
                  std::size_t bytes, const std::uint8_t* tables);
void dot_ssse3_w16(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables);
void dot_ssse3_w32(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables);
void xor_sse2(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

// ----- AVX2 -----
void mult_xor_avx2_w8(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t bytes, const Element* split);
void mult_xor_avx2_w16(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const Element* split);
void mult_xor_avx2_w32(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const Element* split);
void mult_over_avx2_w8(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes, const Element* split);
void mult_over_avx2_w16(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void mult_over_avx2_w32(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void dot_avx2_w8(std::uint8_t* const* dst, std::size_t rows,
                 const std::uint8_t* const* src, std::size_t nsrc,
                 std::size_t bytes, const std::uint8_t* tables);
void dot_avx2_w16(std::uint8_t* const* dst, std::size_t rows,
                  const std::uint8_t* const* src, std::size_t nsrc,
                  std::size_t bytes, const std::uint8_t* tables);
void dot_avx2_w32(std::uint8_t* const* dst, std::size_t rows,
                  const std::uint8_t* const* src, std::size_t nsrc,
                  std::size_t bytes, const std::uint8_t* tables);
void xor_avx2(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

// ----- AVX-512BW -----
void mult_xor_avx512_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split);
void mult_xor_avx512_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_xor_avx512_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_over_avx512_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split);
void mult_over_avx512_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split);
void mult_over_avx512_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split);
void dot_avx512_w8(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables);
void dot_avx512_w16(std::uint8_t* const* dst, std::size_t rows,
                    const std::uint8_t* const* src, std::size_t nsrc,
                    std::size_t bytes, const std::uint8_t* tables);
void dot_avx512_w32(std::uint8_t* const* dst, std::size_t rows,
                    const std::uint8_t* const* src, std::size_t nsrc,
                    std::size_t bytes, const std::uint8_t* tables);
void xor_avx512(std::uint8_t* dst, const std::uint8_t* src,
                std::size_t bytes);
#endif

}  // namespace ppm::gf::internal
