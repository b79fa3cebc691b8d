// CPU feature detection used to select the Galois-field region kernels and
// the CRC-32 kernels at runtime.
#pragma once

namespace ppm {

/// Instruction-set levels the GF region kernels are specialized for; the
/// CRC-32 dispatch (common/crc32.h) maps onto the same levels.
enum class IsaLevel {
  kScalar = 0,  ///< portable C++, no vector intrinsics
  kSsse3 = 1,   ///< 128-bit pshufb split-table kernels
  kAvx2 = 2,    ///< 256-bit vpshufb split-table kernels
  kAvx512 = 3,  ///< 512-bit vpshufb split-table kernels (AVX-512BW)
};

/// Highest ISA level supported by the executing CPU.
///
/// Honours the environment variable `PPM_FORCE_ISA` (values: `scalar`,
/// `ssse3`, `avx2`, `avx512`) which caps the detected level; this is how
/// tests and the Fig. 10 CPU-proxy benchmark pin a kernel family (GF
/// region and CRC-32 alike).
IsaLevel detect_isa();

/// Human-readable name for an ISA level.
const char* isa_name(IsaLevel level);

/// Number of hardware threads visible to this process (>= 1).
unsigned hardware_threads();

}  // namespace ppm
