// The multi-destination dot kernels (DotFn), written once over a vector
// policy V and instantiated by each SIMD region TU (region_ssse3.cpp,
// region_avx2.cpp, region_avx512.cpp) under that TU's ISA flags. Everything
// here sits in an unnamed namespace, so each TU's instantiations stay
// internal to it and never merge with another ISA's at link time.
//
// V provides the vector type T, its width kBytes, the count of vector
// registers kRegs, unaligned load/store,
// zero-padded tail load/store of n < kBytes bytes, bcast(p) (a 16-byte lane
// broadcast to every 128-bit lane), shuffle (pshufb within 128-bit lanes),
// the bitwise ops and the shifts the nibble split needs.
//
// Per step of U vectors, every source vector is loaded once and split into
// nibble indices once; each of the Rows outputs then gathers its products
// from its prepared lanes into accumulator registers, and each output is
// stored once. Tables of c(r, j) sit at tables + (j·Rows + r)·W::kTable, the
// TableLayout::kLanes order: lane (k, b) of a coefficient at 16·(k·w/8 + b).
#pragma once

#include <cstddef>
#include <cstdint>

#include "gf/galois_field.h"

namespace ppm::gf::internal {
namespace {

template <class V>
struct DotW8 {
  using T = typename V::T;
  static constexpr std::size_t kTable = 32;
  static constexpr std::size_t kIdxRegs = 2;
  struct Idx {
    T lo, hi;
  };
  static Idx split(T v) {
    const T nib = V::set8(0x0F);
    return {V::and_(v, nib), V::and_(V::srli64(v, 4), nib)};
  }
  static T mul(const Idx& x, const std::uint8_t* t) {
    return V::xor_(V::shuffle(V::bcast(t), x.lo),
                   V::shuffle(V::bcast(t + 16), x.hi));
  }
};

template <class V>
struct DotW16 {
  using T = typename V::T;
  static constexpr std::size_t kTable = 128;
  static constexpr std::size_t kIdxRegs = 4;
  // n[k]: nibble k of each 16-bit symbol at the symbol's low byte, so a
  // pshufb of a byte lane yields that byte of c·(n_k << 4k) per symbol.
  struct Idx {
    T n[4];
  };
  static Idx split(T v) {
    const T nib = V::set8(0x0F);
    const T even = V::set16(0x00FF);
    const T lo = V::and_(v, nib);
    const T hi = V::and_(V::srli64(v, 4), nib);
    return {{V::and_(lo, even), V::and_(hi, even), V::srli16(lo, 8),
             V::srli16(hi, 8)}};
  }
  static T mul(const Idx& x, const std::uint8_t* t) {
    T pl = V::shuffle(V::bcast(t), x.n[0]);
    T ph = V::shuffle(V::bcast(t + 16), x.n[0]);
    for (std::size_t k = 1; k < 4; ++k) {
      pl = V::xor_(pl, V::shuffle(V::bcast(t + 32 * k), x.n[k]));
      ph = V::xor_(ph, V::shuffle(V::bcast(t + 32 * k + 16), x.n[k]));
    }
    return V::xor_(pl, V::slli16(ph, 8));
  }
};

template <class V>
struct DotW32 {
  using T = typename V::T;
  static constexpr std::size_t kTable = 512;
  static constexpr std::size_t kIdxRegs = 8;
  // n[k]: nibble k of each 32-bit symbol at the symbol's low byte.
  struct Idx {
    T n[8];
  };
  static Idx split(T v) {
    const T nib = V::set8(0x0F);
    const T low = V::set32(0x0F);
    const T lo = V::and_(v, nib);
    const T hi = V::and_(V::srli64(v, 4), nib);
    Idx x;
    for (unsigned k = 0; k < 8; ++k) {
      x.n[k] = V::and_(V::srli32((k & 1) ? hi : lo, 8 * (k / 2)), low);
    }
    return x;
  }
  static T mul(const Idx& x, const std::uint8_t* t) {
    T p = V::zero();
    for (std::size_t b = 0; b < 4; ++b) {
      T pb = V::shuffle(V::bcast(t + 16 * b), x.n[0]);
      for (std::size_t k = 1; k < 8; ++k) {
        pb = V::xor_(pb, V::shuffle(V::bcast(t + 16 * (4 * k + b)), x.n[k]));
      }
      p = V::xor_(p, V::slli32(pb, static_cast<unsigned>(8 * b)));
    }
    return p;
  }
};

// Software prefetch distance along each source. With many sources per
// step the hardware streamers lose track of the streams; a prefetch 16
// lines ahead keeps the next lines of every source in flight.
constexpr std::size_t kPrefetchBytes = 1024;

// Vectors per source visit: up to 4, as many as keep every accumulator
// and nibble index of the step (plus the tables and masks) in the V::kRegs
// vector registers. More vectors per visit amortize each source's pointer
// and table loads and give the core independent work.
template <class V, class W, std::size_t Rows>
constexpr std::size_t kUnroll =
    4 * (Rows + W::kIdxRegs) + 4 <= V::kRegs   ? 4
    : 2 * (Rows + W::kIdxRegs) + 4 <= V::kRegs ? 2
                                                : 1;

// U vectors at offset i; Tail (U == 1 only): only the first n bytes exist.
template <class V, class W, std::size_t Rows, std::size_t U, bool Tail>
inline void dot_step(std::uint8_t* const* dst, const std::uint8_t* const* src,
                     std::size_t nsrc, std::size_t i, std::size_t n,
                     const std::uint8_t* tables) {
  using T = typename V::T;
  T acc[U][Rows];
  for (std::size_t u = 0; u < U; ++u) {
    for (std::size_t r = 0; r < Rows; ++r) acc[u][r] = V::zero();
  }
  for (std::size_t j = 0; j < nsrc; ++j) {
    const std::uint8_t* s = src[j] + i;
    typename W::Idx x[U];
    for (std::size_t u = 0; u < U; ++u) {
      if constexpr (!Tail) {
        if ((u * V::kBytes) % 64 == 0) {
          __builtin_prefetch(s + u * V::kBytes + kPrefetchBytes);
        }
      }
      x[u] = W::split(Tail ? V::load_tail(s, n) : V::loadu(s + u * V::kBytes));
    }
    const std::uint8_t* t = tables + j * Rows * W::kTable;
    for (std::size_t r = 0; r < Rows; ++r) {
      for (std::size_t u = 0; u < U; ++u) {
        acc[u][r] = V::xor_(acc[u][r], W::mul(x[u], t + r * W::kTable));
      }
    }
  }
  for (std::size_t u = 0; u < U; ++u) {
    for (std::size_t r = 0; r < Rows; ++r) {
      if constexpr (Tail) {
        V::store_tail(dst[r] + i, acc[u][r], n);
      } else {
        V::storeu(dst[r] + i + u * V::kBytes, acc[u][r]);
      }
    }
  }
}

template <class V, class W, std::size_t Rows>
void dot_rows(std::uint8_t* const* dst, const std::uint8_t* const* src,
              std::size_t nsrc, std::size_t bytes,
              const std::uint8_t* tables) {
  constexpr std::size_t kU = kUnroll<V, W, Rows>;
  std::size_t i = 0;
  for (; i + kU * V::kBytes <= bytes; i += kU * V::kBytes) {
    dot_step<V, W, Rows, kU, false>(dst, src, nsrc, i, 0, tables);
  }
  for (; i + V::kBytes <= bytes; i += V::kBytes) {
    dot_step<V, W, Rows, 1, false>(dst, src, nsrc, i, 0, tables);
  }
  if (i < bytes) {
    dot_step<V, W, Rows, 1, true>(dst, src, nsrc, i, bytes - i, tables);
  }
}

// The DotFn for width policy W: the runtime row count picks the
// instantiation whose accumulators live in registers.
template <class V, class W>
void dot(std::uint8_t* const* dst, std::size_t rows,
         const std::uint8_t* const* src, std::size_t nsrc, std::size_t bytes,
         const std::uint8_t* tables) {
  static_assert(kMaxDotRows == 4);
  switch (rows) {
    case 1: return dot_rows<V, W, 1>(dst, src, nsrc, bytes, tables);
    case 2: return dot_rows<V, W, 2>(dst, src, nsrc, bytes, tables);
    case 3: return dot_rows<V, W, 3>(dst, src, nsrc, bytes, tables);
    default: return dot_rows<V, W, 4>(dst, src, nsrc, bytes, tables);
  }
}

}  // namespace
}  // namespace ppm::gf::internal
