// Micro-benchmark: CRC-32 throughput per kernel and region size — the
// digest check on every scrub, resilient-decode and store-load path.
#include <benchmark/benchmark.h>

#include <string>

#include "common/aligned_buffer.h"
#include "common/cpu.h"
#include "common/crc32.h"
#include "common/rng.h"

namespace {

using namespace ppm;

void bm_crc32(benchmark::State& state) {
  const auto isa = static_cast<IsaLevel>(state.range(0));
  const std::size_t bytes = static_cast<std::size_t>(state.range(1));
  if (isa > detect_isa()) {
    state.SkipWithError("ISA level not available on this CPU");
    return;
  }
  const Crc32Kernel& kernel = crc32_kernel_for(isa);
  AlignedBuffer buf(bytes);
  Rng rng(1);
  rng.fill(buf.data(), bytes);
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = kernel.fn(buf.data(), bytes, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(std::string(isa_name(isa)) + " " + kernel.name);
}

}  // namespace

BENCHMARK(bm_crc32)
    ->ArgsProduct({{0, 1, 2, 3},  // scalar, ssse3, avx2, avx512
                   {4 << 10, 16 << 10, 64 << 10}})
    ->ArgNames({"isa", "bytes"});
