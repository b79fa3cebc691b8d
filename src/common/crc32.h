// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// The integrity check on every path that trusts bytes it did not just
// compute: the scrub sweep, recheck and journal replay (scrub/), survivor
// and recovered-block digests in resilient and overlapped decodes
// (codec/resilient.cpp, serve/overlap.cpp), and the seals of the on-disk
// plan, certificate and repair-journal records (plan_store/,
// search_coeff/cert_store, scrub/journal). It therefore has to run at
// memory speed, not at table-lookup speed.
//
// One function, three kernels, chosen once per process the way the GF
// region kernels are (gf/region_dispatch.cpp): detect_isa() — capped by
// PPM_FORCE_ISA — and the CPU's carry-less multiply support pick
//  * vpclmul512 — VPCLMULQDQ folding of four 512-bit lanes (AVX-512 level
//                 on CPUs with VPCLMULQDQ);
//  * pclmul     — PCLMULQDQ folding of four 128-bit lanes with a Barrett
//                 reduction, the zlib/Chromium crc32_simd shape (SSSE3 and
//                 AVX2 levels, or AVX-512 without VPCLMULQDQ);
//  * slice8     — portable slice-by-8 tables (scalar level, non-x86).
// All three return identical values for every input, so sealed records
// stay byte-identical whichever kernel wrote or reads them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace ppm {

/// CRC-32 of `bytes` bytes at `data`. Pass a previous result as `seed` to
/// chain incremental computation over discontiguous buffers; the empty
/// input maps to 0.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

using Crc32Fn = std::uint32_t (*)(const void* data, std::size_t bytes,
                                  std::uint32_t seed);

/// One member of the kernel family; `fn` has crc32's exact semantics.
struct Crc32Kernel {
  const char* name;
  Crc32Fn fn;
};

/// The kernel crc32 would use at ISA level `level`, capped by detect_isa()
/// and by the CPU's PCLMULQDQ/VPCLMULQDQ support. crc32 itself uses
/// crc32_kernel_for(detect_isa()); tests and benches use this to reach
/// every kernel the host can run.
const Crc32Kernel& crc32_kernel_for(IsaLevel level);

}  // namespace ppm
