// Micro-benchmark: decode planning overhead (log table + partition +
// sub-plan construction) against a full decode — quantifying the paper's
// §III-C claim that the partition/matrix bookkeeping is "relatively low
// when the size of the sector is large" — and the sub-plan execution layer
// on its own (bm_subplan_execute).
#include <benchmark/benchmark.h>

#include <numeric>

#include "ppm.h"

namespace {

using namespace ppm;

struct Fixture {
  SDCode code{8, 16, 2, 2, 8};
  FailureScenario scenario;
  Fixture() {
    ScenarioGenerator gen(7);
    scenario = gen.sd_worst_case(code, 2, 2, 1).scenario;
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void bm_log_table(benchmark::State& state) {
  auto& fx = fixture();
  for (auto _ : state) {
    LogTable t = LogTable::build(fx.code.parity_check(),
                                 fx.scenario.faulty());
    benchmark::DoNotOptimize(t);
  }
}

void bm_partition(benchmark::State& state) {
  auto& fx = fixture();
  const LogTable t =
      LogTable::build(fx.code.parity_check(), fx.scenario.faulty());
  for (auto _ : state) {
    Partition p = make_partition(fx.code.parity_check(), t);
    benchmark::DoNotOptimize(p);
  }
}

void bm_whole_plan(benchmark::State& state) {
  auto& fx = fixture();
  std::vector<std::size_t> rows(fx.code.parity_check().rows());
  std::iota(rows.begin(), rows.end(), 0);
  for (auto _ : state) {
    auto plan = SubPlan::make(fx.code.parity_check(), rows,
                              fx.scenario.faulty(), fx.scenario.faulty(),
                              Sequence::kMatrixFirst);
    benchmark::DoNotOptimize(plan);
  }
}

void bm_full_decode(benchmark::State& state) {
  auto& fx = fixture();
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  Stripe stripe(fx.code, block);
  Rng rng(8);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(fx.code);
  if (!trad.encode(stripe.block_ptrs(), block)) {
    state.SkipWithError("encode failed");
    return;
  }
  const PpmDecoder dec(fx.code);
  for (auto _ : state) {
    stripe.erase(fx.scenario);
    auto res = dec.decode(fx.scenario, stripe.block_ptrs(), block);
    benchmark::DoNotOptimize(res);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block) *
                          static_cast<std::int64_t>(fx.code.total_blocks()));
}

// SubPlan::execute on the SD(8,16,2,2) worst-case plan's shapes: "rest" is
// the normal-sequence H_rest sub-plan (4 unknowns from 124 survivors),
// "group" one 2×6 matrix-first group. Reports the output rate (unknown
// bytes written per second) next to the op-equivalent rate (cost ×
// block bytes per second, what a one-mult_XOR-per-nonzero executor would
// have to stream). The label names the kernel family: run under
// PPM_FORCE_ISA=scalar|ssse3|avx2|avx512 for the per-ISA rows.
void bm_subplan_execute(benchmark::State& state, bool rest) {
  auto& fx = fixture();
  Codec codec(fx.code);
  const auto plan = codec.plan_for(fx.scenario);
  if (plan == nullptr || (rest && !plan->rest().has_value())) {
    state.SkipWithError("no plan");
    return;
  }
  const SubPlan& sub = rest ? *plan->rest() : plan->groups()[0];
  const std::size_t block = static_cast<std::size_t>(state.range(0));
  Stripe stripe(fx.code, block);
  Rng rng(9);
  stripe.fill_data(rng);
  std::uint8_t* const* blocks = stripe.block_ptrs();
  for (auto _ : state) {
    sub.execute(blocks, block);
    benchmark::DoNotOptimize(blocks);
    benchmark::ClobberMemory();
  }
  const double iters = static_cast<double>(state.iterations());
  const double b = static_cast<double>(block);
  state.counters["out_GBps"] = benchmark::Counter(
      iters * b * static_cast<double>(sub.unknowns().size()) / 1e9,
      benchmark::Counter::kIsRate);
  state.counters["op_GBps"] = benchmark::Counter(
      iters * b * static_cast<double>(sub.cost()) / 1e9,
      benchmark::Counter::kIsRate);
  state.SetLabel(isa_name(detect_isa()));
}

}  // namespace

BENCHMARK(bm_log_table);
BENCHMARK(bm_partition);
BENCHMARK(bm_whole_plan);
BENCHMARK(bm_full_decode)
    ->Arg(4 << 10)
    ->Arg(64 << 10)
    ->Arg(512 << 10)
    ->ArgName("block");
BENCHMARK_CAPTURE(bm_subplan_execute, rest, true)
    ->Arg(4 << 10)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->ArgName("block");
BENCHMARK_CAPTURE(bm_subplan_execute, group, false)
    ->Arg(4 << 10)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->ArgName("block");
