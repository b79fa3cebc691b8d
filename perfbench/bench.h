// Shared pieces of the repository benchmark: run context, statistics,
// per-run directories, the oracle and the report every workload fills.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ppm.h"
#include "trace.h"

namespace perfbench {

/// Fixed workload constants. They are part of the benchmark definition:
/// changing one changes what every recorded number means.
namespace params {
// degraded-read: open-loop request rates (requests/s over both servers),
// about 1/8 and 1/4 of the seed's closed-loop capacity on a 4-core
// AVX-512 host (530-570 req/s with `--capacity`). The rates leave
// headroom because a shared host takes CPU time away in episodes, and
// near capacity each episode turns into deep queueing: at 1/2 of capacity
// a 12 % CPU load beside the benchmark raised the median latency 6-fold,
// at 1/4 by under 10 %.
inline constexpr double kReadLoRate = 70.0;
inline constexpr double kReadHiRate = 140.0;
/// Latency limit behind read_hi_slo_frac.
inline constexpr double kReadSloMs = 20.0;
inline constexpr std::size_t kReadScenarios = 1000;  ///< per code
inline constexpr double kZipfSkew = 1.0;
inline constexpr std::size_t kReadStripes = 32;      ///< per code
inline constexpr std::size_t kReadBlock = 4096;
// straggler-read: open-loop rate and ablation_serving's transient campaign.
inline constexpr double kStraggleRate = 40.0;
inline constexpr double kStraggleShare = 0.30;
inline constexpr std::int64_t kStraggleDelayUs = 2000;
inline constexpr std::size_t kStraggleStripes = 32;
// Open-loop results are withheld when the generator ran later than this
// (p99 over the windows the result is taken from).
inline constexpr double kLagBoundMs = 10.0;
// rebuild
inline constexpr std::size_t kRebuildStripes = 64;
inline constexpr std::size_t kRebuildBlock = 64 * 1024;
inline constexpr std::size_t kRebuildScenarios = 4;
// scrub-repair
inline constexpr std::size_t kScrubStripes = 32;
inline constexpr std::size_t kScrubBlock = 16 * 1024;
inline constexpr std::size_t kScrubEpochsPerRound = 16;
inline constexpr double kScrubPermanent = 0.005;
inline constexpr double kScrubCorrupt = 0.0067;
// Set-up is repeated this many times per run; setup_s is the median over
// the calmer half of the repetitions (see calm_windows).
inline constexpr int kSetupReps = 7;
}  // namespace params

/// One run's settings, from the command line.
struct RunContext {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Tracer* tracer = nullptr;
  std::filesystem::path run_dir;  ///< fresh, removed at exit
};

/// Everything a workload reports. `e2e` holds the uniform end-to-end
/// metrics (setup_s, p50_ms, gbps); `named` the same results under
/// the workload's own metric names; `layer` the per-layer metrics.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< failed, rejected or mismatched operations
  std::size_t mismatches = 0;  ///< oracle mismatches alone
  std::map<std::string, double> e2e;
  std::map<std::string, std::pair<double, std::string>> named;
  std::map<std::string, double> layer;
  std::map<std::string, double> realized;  ///< input-property shares
  std::map<std::string, std::size_t> samples;
  std::string params_json;  ///< the workload's parameters as a JSON object
  /// Set when an open-loop run's generator lagged past the bound.
  bool withheld = false;
};

// Statistics --------------------------------------------------------------

/// Linear-interpolated q-quantile (q in [0,1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double ratio(double num, double den);  ///< num/den, 0 when den == 0

/// Geometric mean of positive values; 0 for an empty input.
double geomean(const std::vector<double>& values);

/// CPU time the host took from this machine's CPUs (steal), summed over
/// CPUs, in /proc/stat clock ticks; 0 where the counter is unavailable.
std::uint64_t steal_ticks();

/// The calmer half of a run's windows (passes, 1 s windows, cycles): those
/// whose steal is at most the lower median of `steal`, one entry per
/// window. On a shared host the steal comes in episodes of seconds that
/// slow every layer at once; a metric taken over the calmer half moves
/// with the program, not with the neighbours. Ties are kept, so with no
/// steal at all every window is.
std::vector<bool> calm_windows(const std::vector<std::uint64_t>& steal);

/// Host steal as a share of the CPU time of `seconds` of wall time.
double steal_share(std::uint64_t ticks, double seconds);

/// A wall clock that also counts the host steal since its start.
class StealTimer {
 public:
  StealTimer() : steal0_(steal_ticks()) {}
  double seconds() const { return clock_.seconds(); }
  std::uint64_t steal() const { return steal_ticks() - steal0_; }

 private:
  ppm::Timer clock_;
  std::uint64_t steal0_;
};

/// One timed repetition and the host steal during it.
struct Sample {
  double value = 0;
  std::uint64_t steal = 0;
};

/// Median of the values over the calmer half of the samples.
double calm_median(const std::vector<Sample>& samples);
/// The values (one per window, in order) of the calmer half of `steal`.
std::vector<double> calm_values(const std::vector<double>& values,
                                const std::vector<std::uint64_t>& steal);

/// splitmix64 of (seed, tag): independent seeded streams per purpose.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

// Run directories ----------------------------------------------------------

/// Creates `path` and removes it (recursively) on destruction. Refuses,
/// with an exception, a path that already exists, so no run can read
/// another run's store or journal.
class RunDir {
 public:
  explicit RunDir(std::filesystem::path path);
  ~RunDir();
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A fresh subdirectory of the run directory (fails if it exists).
std::filesystem::path fresh_subdir(const RunContext& ctx,
                                   const std::string& name);

// Oracle -------------------------------------------------------------------

/// Byte-compares `blocks` of a stripe against pristine block copies.
/// Returns the number of blocks that differ.
std::size_t count_mismatched(std::uint8_t* const* actual,
                             const std::uint8_t* const* pristine,
                             std::span<const std::size_t> blocks,
                             std::size_t block_bytes);

/// Checks that the oracle catches one corrupted recovered block.
/// Returns 0 when it does.
int oracle_selftest();

// Layer probes ---------------------------------------------------------------

/// Inputs the per-layer probes take from a workload.
struct ProbeInput {
  const ppm::ErasureCode* code = nullptr;
  std::size_t block_bytes = 0;
  /// Scenarios the workload decoded, with how many stripes each covered.
  std::vector<std::pair<ppm::FailureScenario, std::size_t>> decoded;
  /// The codec the workload used (warm), for plan_for/decode timings.
  ppm::Codec* codec = nullptr;
  /// Pristine stripe (block pointers) to decode from.
  const std::uint8_t* const* pristine = nullptr;
};

/// Runs the layer probes that apply to every workload (gf, common,
/// decode, analyze_hazard, verify_plan, plan_store, codec timings,
/// parallel placement)
/// and adds their metrics to `report.layer`. Several inputs (one per code)
/// are merged: rates and latencies are pooled over all of them.
void probe_layers(const RunContext& ctx, const std::vector<ProbeInput>& inputs,
                  Report& report);

/// Codec counter snapshot for deltas over a measured phase.
struct CodecCounts {
  double hits = 0, misses = 0, loads = 0, decodes = 0, placed = 0;
  static CodecCounts of(const ppm::Codec& codec);
  CodecCounts operator-(const CodecCounts& o) const;
  CodecCounts operator+(const CodecCounts& o) const;
};

/// A per-layer metric's name and unit, in report order.
struct LayerMetric {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Fills every per-layer metric the workload did not measure with 0 (the
/// layer was not exercised), so each traced run prints the full set.
void fill_unmeasured_layers(Report& report);

// Workloads ------------------------------------------------------------------

Report run_rebuild(const RunContext& ctx);
Report run_degraded_read(const RunContext& ctx);
Report run_straggler_read(const RunContext& ctx);
Report run_scrub_repair(const RunContext& ctx);

/// Closed-loop capacity of the degraded-read servers (requests/s), used to
/// choose kReadLoRate and kReadHiRate.
double measure_read_capacity(const RunContext& ctx);

}  // namespace perfbench
