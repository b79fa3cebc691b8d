// Portable slice-by-8 CRC-32 kernel and the runtime kernel dispatch.
#include "common/crc32.h"

#include <array>

#include "common/crc32_kernels.h"

namespace ppm {

namespace internal {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// kTables[0] is the classic byte table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight lookups advance eight bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = make_crc_tables();

std::uint32_t load32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_slice8(const void* data, std::size_t bytes,
                           std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    const std::uint32_t lo = load32le(p) ^ c;
    const std::uint32_t hi = load32le(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; bytes > 0; --bytes, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace internal

namespace {

constexpr Crc32Kernel kSlice8{"slice8", internal::crc32_slice8};
#if defined(__x86_64__) || defined(__i386__)
constexpr Crc32Kernel kPclmul{"pclmul", internal::crc32_pclmul};
constexpr Crc32Kernel kVpclmul{"vpclmul512", internal::crc32_vpclmul};
#endif

}  // namespace

const Crc32Kernel& crc32_kernel_for(IsaLevel level) {
#if defined(__x86_64__) || defined(__i386__)
  // Cap the request at what the CPU (and PPM_FORCE_ISA) allows, then at
  // the carry-less multiply extensions the folding kernels need.
  const IsaLevel avail = detect_isa();
  const IsaLevel use = level < avail ? level : avail;
  __builtin_cpu_init();
  if (use >= IsaLevel::kAvx512 && __builtin_cpu_supports("vpclmulqdq")) {
    return kVpclmul;
  }
  if (use >= IsaLevel::kSsse3 && __builtin_cpu_supports("pclmul") &&
      __builtin_cpu_supports("sse4.1")) {
    return kPclmul;
  }
#else
  (void)level;
#endif
  return kSlice8;
}

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  static const Crc32Fn kernel = crc32_kernel_for(detect_isa()).fn;
  return kernel(data, bytes, seed);
}

}  // namespace ppm
