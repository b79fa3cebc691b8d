// Portable scalar region kernels: per-symbol nibble split-table lookups.
// These are the reference implementations every SIMD kernel is tested
// against, and the fallback on non-x86 hosts.
#include <cstring>
#include <type_traits>

#include "gf/region_kernels.h"

namespace ppm::gf::internal {

namespace {

// Shared body for the w=8 kernels; Xor selects accumulate vs overwrite.
template <bool Xor>
void run_w8(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
            const Element* split) {
  const Element* lo = split;       // c * v
  const Element* hi = split + 16;  // c * (v << 4)
  for (std::size_t i = 0; i < bytes; ++i) {
    const auto p =
        static_cast<std::uint8_t>(lo[src[i] & 0xF] ^ hi[src[i] >> 4]);
    if constexpr (Xor) {
      dst[i] ^= p;
    } else {
      dst[i] = p;
    }
  }
}

template <bool Xor>
void run_w16(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const Element* split) {
  for (std::size_t i = 0; i + 2 <= bytes; i += 2) {
    std::uint16_t s;
    std::memcpy(&s, src + i, 2);
    const auto p = static_cast<std::uint16_t>(
        split[s & 0xF] ^ split[16 + ((s >> 4) & 0xF)] ^
        split[32 + ((s >> 8) & 0xF)] ^ split[48 + (s >> 12)]);
    if constexpr (Xor) {
      std::uint16_t d;
      std::memcpy(&d, dst + i, 2);
      d ^= p;
      std::memcpy(dst + i, &d, 2);
    } else {
      std::memcpy(dst + i, &p, 2);
    }
  }
}

template <bool Xor>
void run_w32(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes,
             const Element* split) {
  for (std::size_t i = 0; i + 4 <= bytes; i += 4) {
    std::uint32_t s;
    std::memcpy(&s, src + i, 4);
    std::uint32_t p = 0;
    for (unsigned k = 0; k < 8; ++k) {
      p ^= split[16 * k + ((s >> (4 * k)) & 0xF)];
    }
    if constexpr (Xor) {
      std::uint32_t d;
      std::memcpy(&d, dst + i, 4);
      d ^= p;
      std::memcpy(dst + i, &d, 4);
    } else {
      std::memcpy(dst + i, &p, 4);
    }
  }
}

// Multi-destination dot over Element split tables (TableLayout::kSplit):
// per symbol, each source is read once and its product with each of the
// Rows coefficients accumulates in a register.
template <unsigned W, std::size_t Rows>
void dot_rows(std::uint8_t* const* dst, const std::uint8_t* const* src,
              std::size_t nsrc, std::size_t bytes,
              const std::uint8_t* tables) {
  using Sym = std::conditional_t<
      W == 8, std::uint8_t,
      std::conditional_t<W == 16, std::uint16_t, std::uint32_t>>;
  constexpr std::size_t kTable = 16 * (W / 4);  // Elements per coefficient
  const auto* split = reinterpret_cast<const Element*>(tables);
  for (std::size_t i = 0; i < bytes; i += sizeof(Sym)) {
    Element acc[Rows] = {};
    for (std::size_t j = 0; j < nsrc; ++j) {
      Sym s = 0;
      std::memcpy(&s, src[j] + i, sizeof(Sym));
      const Element* t = split + j * Rows * kTable;
      for (std::size_t r = 0; r < Rows; ++r) {
        for (std::size_t k = 0; k < W / 4; ++k) {
          acc[r] ^= t[r * kTable + 16 * k + ((s >> (4 * k)) & 0xFU)];
        }
      }
    }
    for (std::size_t r = 0; r < Rows; ++r) {
      const auto p = static_cast<Sym>(acc[r]);
      std::memcpy(dst[r] + i, &p, sizeof(Sym));
    }
  }
}

template <unsigned W>
void dot(std::uint8_t* const* dst, std::size_t rows,
         const std::uint8_t* const* src, std::size_t nsrc, std::size_t bytes,
         const std::uint8_t* tables) {
  static_assert(kMaxDotRows == 4);
  switch (rows) {
    case 1: return dot_rows<W, 1>(dst, src, nsrc, bytes, tables);
    case 2: return dot_rows<W, 2>(dst, src, nsrc, bytes, tables);
    case 3: return dot_rows<W, 3>(dst, src, nsrc, bytes, tables);
    default: return dot_rows<W, 4>(dst, src, nsrc, bytes, tables);
  }
}

}  // namespace

void mult_xor_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                        std::size_t bytes, const Element* split) {
  run_w8<true>(dst, src, bytes, split);
}
void mult_xor_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split) {
  run_w16<true>(dst, src, bytes, split);
}
void mult_xor_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split) {
  run_w32<true>(dst, src, bytes, split);
}
void mult_over_scalar_w8(std::uint8_t* dst, const std::uint8_t* src,
                         std::size_t bytes, const Element* split) {
  run_w8<false>(dst, src, bytes, split);
}
void mult_over_scalar_w16(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split) {
  run_w16<false>(dst, src, bytes, split);
}
void mult_over_scalar_w32(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split) {
  run_w32<false>(dst, src, bytes, split);
}

void dot_scalar_w8(std::uint8_t* const* dst, std::size_t rows,
                   const std::uint8_t* const* src, std::size_t nsrc,
                   std::size_t bytes, const std::uint8_t* tables) {
  dot<8>(dst, rows, src, nsrc, bytes, tables);
}
void dot_scalar_w16(std::uint8_t* const* dst, std::size_t rows,
                    const std::uint8_t* const* src, std::size_t nsrc,
                    std::size_t bytes, const std::uint8_t* tables) {
  dot<16>(dst, rows, src, nsrc, bytes, tables);
}
void dot_scalar_w32(std::uint8_t* const* dst, std::size_t rows,
                    const std::uint8_t* const* src, std::size_t nsrc,
                    std::size_t bytes, const std::uint8_t* tables) {
  dot<32>(dst, rows, src, nsrc, bytes, tables);
}

void xor_scalar(std::uint8_t* dst, const std::uint8_t* src,
                std::size_t bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t d;
    std::uint64_t s;
    std::memcpy(&d, dst + i, 8);
    std::memcpy(&s, src + i, 8);
    d ^= s;
    std::memcpy(dst + i, &d, 8);
  }
  for (; i < bytes; ++i) dst[i] ^= src[i];
}

}  // namespace ppm::gf::internal
