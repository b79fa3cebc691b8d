// Galois-field arithmetic over GF(2^w), w ∈ {8, 16, 32}.
//
// This is the substrate every erasure code in the library sits on. Scalar
// element arithmetic (used by the tiny matrix computations of the decode
// planner) lives behind the virtual interface. Region work is dispatched to
// scalar / SSSE3 / AVX2 / AVX-512 split-table kernels selected at startup
// (see common/cpu.h), in two shapes:
//
//   * single-region mult_XOR — multiply a block region by a constant and
//     XOR-accumulate into a destination, exactly the paper's
//     mult_XORs(d0, d1, a); it builds the constant's nibble split tables
//     on every call;
//   * the multi-destination dot product the decode executor runs — up to
//     kMaxDotRows outputs from any number of sources, each source read once
//     and each output stored once, over coefficient tables prepared ahead
//     of time (Field::prepare) and held by the plan.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace ppm::gf {

/// A field element. Only the low w bits are meaningful.
using Element = std::uint32_t;

/// Region-kernel function: dst ^= c * src (XOR variant) or dst = c * src,
/// applied symbol-wise over `bytes` bytes. `split` points at nibble split
/// tables the caller builds for the call: (w/4) positions × 16 entries of
/// Element, where split[16*k + v] = c * (v << 4k) in GF(2^w).
using RegionFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t bytes, const Element* split);

/// XOR-only region function: dst ^= src over `bytes` bytes.
using XorFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                       std::size_t bytes);

/// Most outputs one DotFn call keeps in registers (the R of the fused
/// executor: a sub-plan with more unknowns runs in batches of rows).
inline constexpr std::size_t kMaxDotRows = 4;

/// Multi-destination kernel over prepared coefficients (the ISA-L
/// ec_encode_data shape): for r < rows, dst[r] = Σ_{j<nsrc} c(r,j) · src[j]
/// symbol-wise over `bytes` bytes. Each source is read once and each
/// output stored once, by overwriting (nsrc == 0 stores zeros). The
/// prepared tables of c(r, j) start at tables + (j·rows + r)·stride, where
/// stride = Field::prepared_bytes(layout) for the bundle's layout.
/// 1 <= rows <= kMaxDotRows; outputs must not alias sources.
using DotFn = void (*)(std::uint8_t* const* dst, std::size_t rows,
                       const std::uint8_t* const* src, std::size_t nsrc,
                       std::size_t bytes, const std::uint8_t* tables);

/// How a kernel family wants a constant c prepared for DotFn.
enum class TableLayout {
  /// 16 · w/4 Elements: split[16k + v] = c · (v << 4k) (scalar kernels).
  kSplit,
  /// (w/4) · (w/8) 16-byte lanes, lane (k, b) holding byte b of
  /// c · (v << 4k) for v < 16 — what pshufb loads directly (SIMD kernels).
  kLanes,
};

/// Kernel bundle for one (field width, ISA level) pair.
struct RegionKernels {
  RegionFn mult_xor = nullptr;   ///< dst ^= c * src
  RegionFn mult_over = nullptr;  ///< dst  = c * src
  XorFn xor_region = nullptr;    ///< dst ^= src (the c == 1 fast path)
  DotFn dot = nullptr;           ///< multi-destination, prepared tables
  TableLayout layout = TableLayout::kSplit;  ///< what `dot` reads
};

/// Return the kernel bundle for width `w` at ISA `level` (always non-null
/// members; lower levels are substituted when the requested one does not
/// exist). Exposed so tests can cross-check every kernel family and so the
/// Fig. 10 CPU-proxy bench can pin one.
const RegionKernels& kernels_for(unsigned w, IsaLevel level);

/// Abstract field. Instances are process-lifetime singletons from field().
class Field {
 public:
  virtual ~Field() = default;

  /// Symbol width in bits (8, 16 or 32).
  virtual unsigned w() const = 0;

  /// Symbol width in bytes.
  unsigned symbol_bytes() const { return w() / 8; }

  /// Largest element value (all-ones mask of width w).
  Element max_element() const {
    return w() == 32 ? ~Element{0} : ((Element{1} << w()) - 1);
  }

  /// Field multiplication.
  virtual Element mul(Element a, Element b) const = 0;

  /// Multiplicative inverse; precondition a != 0.
  virtual Element inv(Element a) const = 0;

  /// alpha^e where alpha = 2 is a primitive element of the chosen
  /// polynomial. Exponents are reduced mod (2^w - 1). Used by the code
  /// constructions (coefficients of the form a_q^l).
  virtual Element exp2(std::uint64_t e) const = 0;

  /// Addition is XOR in characteristic 2.
  static Element add(Element a, Element b) { return a ^ b; }

  /// a / b; precondition b != 0.
  Element div(Element a, Element b) const { return mul(a, inv(b)); }

  /// a^e by square-and-multiply (a may be any element).
  Element pow(Element a, std::uint64_t e) const;

  /// The paper's mult_XORs(d0=src, d1=dst, a=c): dst ^= c * src over a
  /// region of `bytes` bytes (must be a multiple of symbol_bytes()).
  /// Fast paths: c == 0 is a no-op, c == 1 is a pure XOR.
  void mult_region_xor(std::uint8_t* dst, const std::uint8_t* src, Element c,
                       std::size_t bytes) const;

  /// dst = c * src over a region (overwrite variant used when a target
  /// block is first touched, avoiding a pre-zeroing pass).
  void mult_region(std::uint8_t* dst, const std::uint8_t* src, Element c,
                   std::size_t bytes) const;

  /// Run mult_region_xor with an explicitly pinned kernel family (tests and
  /// the Fig. 10 bench); semantics identical to mult_region_xor.
  void mult_region_xor_isa(std::uint8_t* dst, const std::uint8_t* src,
                           Element c, std::size_t bytes, IsaLevel level) const;

  /// Bytes of one prepared coefficient in `layout` (a multiple of 16).
  std::size_t prepared_bytes(TableLayout layout) const {
    const std::size_t w_bits = w();
    return layout == TableLayout::kSplit ? 16 * w_bits : w_bits * w_bits / 2;
  }

  /// Write the tables of constant c in `layout` to `out`
  /// (prepared_bytes(layout) bytes, aligned for Element). c == 0 yields
  /// all-zero tables, so a DotFn treats it as an absent term.
  void prepare(Element c, TableLayout layout, std::uint8_t* out) const;

 protected:
  /// Fill `split` (16 * w/4 entries) with the nibble split tables for c.
  void build_split_tables(Element c, Element* split) const;
};

/// Singleton field for width w ∈ {8, 16, 32}; throws std::invalid_argument
/// for any other width.
const Field& field(unsigned w);

/// dst ^= src over `bytes` bytes using the best available kernel.
void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t bytes);

}  // namespace ppm::gf
