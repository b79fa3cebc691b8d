#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.h"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

std::vector<bool> calm_windows(const std::vector<std::uint64_t>& steal) {
  std::vector<bool> keep(steal.size(), false);
  if (steal.empty()) return keep;
  std::vector<std::uint64_t> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t limit = sorted[(sorted.size() - 1) / 2];
  for (std::size_t i = 0; i < steal.size(); ++i) keep[i] = steal[i] <= limit;
  return keep;
}

std::vector<double> calm_values(const std::vector<double>& values,
                                const std::vector<std::uint64_t>& steal) {
  const std::vector<bool> calm = calm_windows(steal);
  std::vector<double> out;
  for (std::size_t i = 0; i < values.size() && i < calm.size(); ++i) {
    if (calm[i]) out.push_back(values[i]);
  }
  return out;
}

double calm_median(const std::vector<Sample>& samples) {
  std::vector<double> values;
  std::vector<std::uint64_t> steal;
  for (const Sample& s : samples) {
    values.push_back(s.value);
    steal.push_back(s.steal);
  }
  return median(calm_values(values, steal));
}

double steal_share(std::uint64_t ticks, double seconds) {
  const double ticks_per_s = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const double cpu_ticks =
      seconds * ticks_per_s * static_cast<double>(ppm::hardware_threads());
  return ratio(static_cast<double>(ticks), cpu_ticks);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

RunDir::RunDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::create_directories(path_.parent_path());
  if (!std::filesystem::create_directory(path_)) {
    throw std::runtime_error("run directory already exists: " +
                             path_.string());
  }
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::filesystem::path fresh_subdir(const RunContext& ctx,
                                   const std::string& name) {
  const std::filesystem::path p = ctx.run_dir / name;
  if (!std::filesystem::create_directory(p)) {
    throw std::runtime_error("directory already exists: " + p.string());
  }
  return p;
}

std::size_t count_mismatched(std::uint8_t* const* actual,
                             const std::uint8_t* const* pristine,
                             std::span<const std::size_t> blocks,
                             std::size_t block_bytes) {
  std::size_t bad = 0;
  for (const std::size_t b : blocks) {
    if (std::memcmp(actual[b], pristine[b], block_bytes) != 0) ++bad;
  }
  return bad;
}

int oracle_selftest() {
  // Decode one erased stripe, then corrupt one recovered byte: the oracle
  // must pass the clean decode and flag exactly the corrupted block.
  const ppm::SDCode code(8, 16, 2, 2, 8);
  const std::size_t block = 4096;
  ppm::Stripe pristine(code, block);
  ppm::Rng rng(7);
  pristine.fill_data(rng);
  if (!ppm::TraditionalDecoder(code).encode(pristine.block_ptrs(), block)) {
    return 1;
  }
  ppm::ScenarioGenerator gen(7);
  const ppm::FailureScenario sc = gen.sd_worst_case(code, 2, 2, 1).scenario;
  ppm::Stripe work(code, block);
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    std::memcpy(work.block(b), pristine.block(b), block);
  }
  work.erase(sc);
  ppm::Codec codec(code);
  if (!codec.decode(sc, work.block_ptrs(), block)) return 1;
  const std::size_t clean =
      count_mismatched(work.block_ptrs(), pristine.block_ptrs(), sc.faulty(),
                       block);
  work.block(sc.faulty()[0])[block / 2] ^= 0x01;
  const std::size_t caught =
      count_mismatched(work.block_ptrs(), pristine.block_ptrs(), sc.faulty(),
                       block);
  std::fprintf(stderr, "oracle selftest: clean=%zu corrupted=%zu\n", clean,
               caught);
  return clean == 0 && caught == 1 ? 0 : 1;
}

CodecCounts CodecCounts::of(const ppm::Codec& codec) {
  const ppm::CodecMetrics& m = codec.metrics();
  CodecCounts c;
  c.hits = static_cast<double>(m.plan_hits.value());
  c.misses = static_cast<double>(m.plan_misses.value());
  c.loads = static_cast<double>(m.planstore_loads.value());
  c.decodes = static_cast<double>(m.decodes.value());
  c.placed = static_cast<double>(m.placed_decodes.value());
  return c;
}

CodecCounts CodecCounts::operator-(const CodecCounts& o) const {
  return {hits - o.hits, misses - o.misses, loads - o.loads,
          decodes - o.decodes, placed - o.placed};
}

CodecCounts CodecCounts::operator+(const CodecCounts& o) const {
  return {hits + o.hits, misses + o.misses, loads + o.loads,
          decodes + o.decodes, placed + o.placed};
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> v = {
        {"gf.w8.4k.gbps", "GB/s"},
        {"gf.w16.4k.gbps", "GB/s"},
        {"gf.w8.64k.gbps", "GB/s"},
        {"decode.mult_xors_per_stripe", "count"},
        {"decode.execute_gbps", "GB/s"},
        {"decode.kernel_bound_ratio", "ratio"},
        {"decode.plan_build_us_p50", "us"},
        {"hazard.analyze_us_p50", "us"},
        {"verify_plan.verify_us_p50", "us"},
        {"codec.plan_hit_ratio", "ratio"},
        {"codec.plan_for_us_p50", "us"},
        {"codec.plan_for_us_p99", "us"},
        {"codec.decode_us_p50", "us"},
        {"codec.placed_frac", "ratio"},
        {"plan_store.load_us_p50", "us"},
        {"plan_store.put_us_p50", "us"},
        {"plan_store.served_ratio", "ratio"},
        {"parallel.batch_efficiency", "ratio"},
        {"parallel.placed_bound_ratio", "ratio"},
        {"io.read_us_p50", "us"},
        {"io.read_us_p99", "us"},
        {"io.reads_per_request", "reads/req"},
        {"io.straggled_frac", "ratio"},
        {"serve.queue_ms_p50", "ms"},
        {"serve.queue_ms_p99", "ms"},
        {"serve.fetch_ms_p50", "ms"},
        {"serve.post_fetch_ms_p50", "ms"},
        {"serve.batched_frac", "ratio"},
        {"serve.overlapped_frac", "ratio"},
        {"serve.fallback_frac", "ratio"},
        {"serve.hedge_win_ratio", "ratio"},
        {"serve.hedge_waste_ratio", "ratio"},
        {"common.crc32_gbps", "GB/s"},
        {"scrub.sweep_s", "s"},
        {"scrub.rank_ms", "ms"},
        {"scrub.repair_ms_p50", "ms"},
        {"scrub.detect_ratio", "ratio"},
        {"loadgen.lag_ms_p99", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    for (const char* layer : kLayers) {
      v.push_back({std::string(layer) + ".self_ms", "ms"});
    }
    return v;
  }();
  return metrics;
}

void fill_unmeasured_layers(Report& report) {
  for (const LayerMetric& m : layer_metrics()) {
    report.layer.try_emplace(m.name, 0.0);
  }
}

}  // namespace perfbench
