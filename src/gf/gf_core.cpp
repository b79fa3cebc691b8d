// Field-independent plumbing: the registry, region-op entry points and
// split-table construction (per call, and prepared once for the dot
// kernels) shared by all widths.
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "gf/fields_internal.h"
#include "gf/galois_field.h"

namespace ppm::gf {

Element Field::pow(Element a, std::uint64_t e) const {
  Element result = 1;
  Element base = a;
  while (e != 0) {
    if (e & 1) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

void Field::build_split_tables(Element c, Element* split) const {
  // Row 0 directly: c * v for v < 16 (cheap multiplications — the operand
  // has at most 4 bits). Each following nibble position is the previous
  // one times x^4: c * (v << 4(k+1)) = (c * (v << 4k)) * 16. This keeps
  // the per-region-call table build OM(w) cheap multiplications instead of
  // w/4 * 15 full-width ones — it matters for GF(2^32), whose scalar
  // multiply is carry-less shift-and-add.
  const unsigned positions = w() / 4;
  split[0] = 0;
  for (unsigned v = 1; v < 16; ++v) {
    split[v] = mul(c, static_cast<Element>(v));
  }
  for (unsigned k = 1; k < positions; ++k) {
    split[16 * k] = 0;
    for (unsigned v = 1; v < 16; ++v) {
      split[16 * k + v] = mul(split[16 * (k - 1) + v], 16);
    }
  }
}

void Field::prepare(Element c, TableLayout layout, std::uint8_t* out) const {
  Element split[16 * 8];
  build_split_tables(c, split);
  const std::size_t positions = w() / 4;
  if (layout == TableLayout::kSplit) {
    std::memcpy(out, split, 16 * positions * sizeof(Element));
    return;
  }
  // Lane (k, b) = byte b of every entry of nibble position k.
  const std::size_t bytes = symbol_bytes();
  for (std::size_t k = 0; k < positions; ++k) {
    for (std::size_t b = 0; b < bytes; ++b) {
      std::uint8_t* lane = out + 16 * (k * bytes + b);
      for (std::size_t v = 0; v < 16; ++v) {
        lane[v] = static_cast<std::uint8_t>(split[16 * k + v] >> (8 * b));
      }
    }
  }
}

void Field::mult_region_xor(std::uint8_t* dst, const std::uint8_t* src,
                            Element c, std::size_t bytes) const {
  mult_region_xor_isa(dst, src, c, bytes, detect_isa());
}

void Field::mult_region_xor_isa(std::uint8_t* dst, const std::uint8_t* src,
                                Element c, std::size_t bytes,
                                IsaLevel level) const {
  assert(bytes % symbol_bytes() == 0);
  if (c == 0 || bytes == 0) return;
  const RegionKernels& k = kernels_for(w(), level);
  if (c == 1) {
    k.xor_region(dst, src, bytes);
    return;
  }
  Element split[16 * 8];  // sized for the widest field (w=32: 8 positions)
  build_split_tables(c, split);
  k.mult_xor(dst, src, bytes, split);
}

void Field::mult_region(std::uint8_t* dst, const std::uint8_t* src, Element c,
                        std::size_t bytes) const {
  assert(bytes % symbol_bytes() == 0);
  if (bytes == 0) return;
  if (c == 0) {
    std::memset(dst, 0, bytes);
    return;
  }
  if (c == 1) {
    std::memcpy(dst, src, bytes);
    return;
  }
  Element split[16 * 8];
  build_split_tables(c, split);
  kernels_for(w(), detect_isa()).mult_over(dst, src, bytes, split);
}

const Field& field(unsigned w) {
  switch (w) {
    case 8: return internal::gf8_instance();
    case 16: return internal::gf16_instance();
    case 32: return internal::gf32_instance();
    default: throw std::invalid_argument("GF width must be 8, 16 or 32");
  }
}

}  // namespace ppm::gf
