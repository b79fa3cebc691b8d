// Shared helpers for the PPM test suite.
#pragma once

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "ppm.h"

namespace ppm::test {

/// Slow, obviously-correct reference for one region mult_XOR: per-symbol
/// field multiply + XOR. Kernels of every ISA level are checked against it.
inline void reference_mult_xor(const gf::Field& f, std::uint8_t* dst,
                               const std::uint8_t* src, gf::Element c,
                               std::size_t bytes) {
  const unsigned sym = f.symbol_bytes();
  for (std::size_t i = 0; i < bytes; i += sym) {
    gf::Element s = 0;
    gf::Element d = 0;
    std::memcpy(&s, src + i, sym);
    std::memcpy(&d, dst + i, sym);
    d ^= f.mul(c, s);
    std::memcpy(dst + i, &d, sym);
  }
}

/// Random bytes helper.
inline std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  rng.fill(v.data(), n);
  return v;
}

/// Encode a freshly filled stripe with the traditional decoder and return
/// the reference snapshot.
inline std::vector<std::uint8_t> fill_and_encode(const ErasureCode& code,
                                                 Stripe& stripe,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  stripe.fill_data(rng);
  TraditionalDecoder trad(code);
  const auto enc = trad.encode(stripe.block_ptrs(), stripe.block_bytes());
  if (!enc.has_value()) throw std::runtime_error("reference encode failed");
  return stripe.snapshot();
}

/// A scratch path unique across concurrently running test processes (pid)
/// and within one (counter), removed when the object goes out of scope.
/// The path itself is not created: stores create their own directory, and
/// some tests put a file there instead.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("ppm_" + tag + "_" + std::to_string(::getpid()) + "_" +
               std::to_string(next_id()))) {
    std::filesystem::remove_all(path_);  // a leftover of a recycled pid
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  static unsigned next_id() {
    static std::atomic<unsigned> counter{0};
    return counter.fetch_add(1);
  }

  std::filesystem::path path_;
};

}  // namespace ppm::test
