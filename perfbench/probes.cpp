// Per-layer probes of the traced run. Each one calls a module's public
// functions directly, with the workload's own code, block size and
// scenario mix, and records a span around the call.
#include <algorithm>
#include <cstring>

#include "bench.h"

namespace perfbench {
namespace {

using ppm::Timer;

/// Region-kernel rate of Field::mult_region_xor (GB/s of source bytes).
double gf_rate(Tracer* tr, unsigned w, std::size_t bytes) {
  const ppm::gf::Field& f = ppm::gf::field(w);
  ppm::AlignedBuffer src(bytes);
  ppm::AlignedBuffer dst(bytes);
  ppm::Rng rng(w * 1000003ULL + bytes);
  rng.fill(src.data(), bytes);
  // Enough calls for ~2 ms per trial; the median trial is reported.
  const std::size_t calls = std::max<std::size_t>(64, (8u << 20) / bytes);
  std::vector<double> rates;
  for (int trial = 0; trial < 9; ++trial) {
    Tracer::Scope span(tr, "gf.mult_region_xor", "gf");
    const Timer t;
    for (std::size_t i = 0; i < calls; ++i) {
      const auto c = static_cast<ppm::gf::Element>(
          2 + rng.bounded(f.max_element() - 1));
      f.mult_region_xor(dst.data(), src.data(), c, bytes);
    }
    rates.push_back(static_cast<double>(calls * bytes) / t.seconds() / 1e9);
  }
  return median(rates);
}

double crc_rate(Tracer* tr, std::size_t bytes) {
  ppm::AlignedBuffer buf(bytes);
  ppm::Rng rng(bytes);
  rng.fill(buf.data(), bytes);
  const std::size_t calls = std::max<std::size_t>(16, (2u << 20) / bytes);
  std::vector<double> rates;
  for (int trial = 0; trial < 7; ++trial) {
    Tracer::Scope span(tr, "common.crc32", "common");
    std::uint32_t chained = 0;  // each call depends on the previous one
    const Timer t;
    for (std::size_t i = 0; i < calls; ++i) {
      chained = ppm::crc32(buf.data(), bytes, chained);
    }
    rates.push_back(static_cast<double>(calls * bytes) / t.seconds() / 1e9);
  }
  return median(rates);
}

/// `count` scenarios drawn in proportion to how often the workload decoded
/// each one — the replay sequence for the codec timings.
std::vector<const ppm::FailureScenario*> replay_sequence(
    const ProbeInput& in, std::size_t count, std::uint64_t seed) {
  std::vector<double> cdf;
  double total = 0;
  for (const auto& [sc, n] : in.decoded) {
    total += static_cast<double>(n);
    cdf.push_back(total);
  }
  std::vector<const ppm::FailureScenario*> out;
  if (in.decoded.empty()) return out;
  ppm::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const auto k = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(cdf.size()) - 1));
    out.push_back(&in.decoded[k].first);
  }
  return out;
}

/// Copy of the pristine stripe with `sc` erased, ready to decode.
void reset_stripe(const ProbeInput& in, ppm::Stripe& work,
                  const ppm::FailureScenario& sc) {
  for (std::size_t b = 0; b < in.code->total_blocks(); ++b) {
    std::memcpy(work.block(b), in.pristine[b], in.block_bytes);
  }
  work.erase(sc);
}

}  // namespace

void probe_layers(const RunContext& ctx, const std::vector<ProbeInput>& inputs,
                  Report& report) {
  Tracer* tr = ctx.tracer;
  auto& L = report.layer;
  L["gf.w8.4k.gbps"] = gf_rate(tr, 8, 4096);
  L["gf.w16.4k.gbps"] = gf_rate(tr, 16, 4096);
  L["gf.w8.64k.gbps"] = gf_rate(tr, 8, 64 * 1024);
  L["common.crc32_gbps"] = crc_rate(tr, inputs.front().block_bytes);

  std::vector<double> build_us, analyze_us, verify_us, plan_for_us, decode_us;
  std::vector<double> put_us, load_us;
  std::size_t store_failures = 0;
  double cost_sum = 0, cost_stripes = 0;
  double exec_bytes = 0, exec_s = 0, kernel_s = 0;
  CodecCounts placed_before, placed_after;
  double placed_ratio = 0;
  std::size_t mismatches = 0;

  for (std::size_t idx = 0; idx < inputs.size(); ++idx) {
    const ProbeInput& in = inputs[idx];
    const ppm::ErasureCode& code = *in.code;
    const unsigned w = code.field().w();

    // decode / analyze_hazard / verify_plan: fresh codecs, no cache or
    // store, over (up to) the 64 most-decoded scenarios.
    std::vector<std::pair<ppm::FailureScenario, std::size_t>> top = in.decoded;
    std::stable_sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    if (top.size() > 64) top.resize(64);
    std::vector<std::shared_ptr<const ppm::CachedPlan>> plans;
    for (int rep = 0; rep < (top.size() < 8 ? 8 : 1); ++rep) {
      plans.clear();
      for (const auto& [sc, n] : top) {
        ppm::Codec fresh(code);
        std::shared_ptr<const ppm::CachedPlan> plan;
        {
          Tracer::Scope span(tr, "decode.plan_build", "decode");
          const Timer t;
          plan = fresh.plan_for(sc);
          build_us.push_back(t.seconds() * 1e6);
        }
        plans.push_back(plan);
        if (plan == nullptr) continue;
        {
          Tracer::Scope span(tr, "hazard.analyze_plan", "analyze_hazard");
          const Timer t;
          const auto analysis = ppm::hazard::analyze_plan(*plan);
          analyze_us.push_back(t.seconds() * 1e6);
          if (!analysis.ok()) ++mismatches;
        }
        {
          Tracer::Scope span(tr, "verify_plan.verify_plan", "verify_plan");
          const Timer t;
          const auto verdict = ppm::planverify::verify_plan(code, sc, *plan);
          verify_us.push_back(t.seconds() * 1e6);
          if (!verdict.ok()) ++mismatches;
        }
      }
    }
    // plan_store: put and zero-trust load of the built plans.
    {
      ppm::planstore::PlanStore store(
          fresh_subdir(ctx, "probe-store" + std::to_string(idx)));
      for (int rep = 0; rep < (top.size() < 8 ? 8 : 1); ++rep) {
        for (std::size_t i = 0; i < plans.size() && i < 32; ++i) {
          if (plans[i] == nullptr) continue;
          const ppm::FailureScenario& sc = top[i].first;
          {
            Tracer::Scope span(tr, "plan_store.put", "plan_store");
            const Timer t;
            if (!store.put(code, sc, *plans[i])) ++store_failures;
            put_us.push_back(t.seconds() * 1e6);
          }
          std::shared_ptr<const ppm::CachedPlan> loaded;
          Tracer::Scope span(tr, "plan_store.load", "plan_store");
          const Timer t;
          if (store.load(code, sc, &loaded) !=
              ppm::planstore::PlanStore::LoadResult::kLoaded) {
            ++store_failures;
          }
          load_us.push_back(t.seconds() * 1e6);
        }
      }
    }

    // Exact mult_XOR count per decoded stripe over the whole mix.
    {
      ppm::Codec all(code);
      for (const auto& [sc, n] : in.decoded) {
        const auto plan = all.plan_for(sc);
        if (plan == nullptr) continue;
        cost_sum += static_cast<double>(plan->cost() * n);
        cost_stripes += static_cast<double>(n);
      }
    }

    // Serial CachedPlan::execute against the kernel-rate prediction.
    const double kernel_rate = gf_rate(nullptr, w, in.block_bytes);
    ppm::Stripe work(code, in.block_bytes);
    for (std::size_t k = 0; k < std::min<std::size_t>(8, top.size()); ++k) {
      if (plans[k] == nullptr) continue;
      std::vector<double> times;
      ppm::DecodeStats stats;
      for (int rep = 0; rep < 5; ++rep) {
        reset_stripe(in, work, top[k].first);
        ppm::DecodeStats s;
        Tracer::Scope span(tr, "decode.execute", "decode");
        const Timer t;
        plans[k]->execute(work.block_ptrs(), in.block_bytes, &s);
        times.push_back(t.seconds());
        stats = s;
      }
      mismatches += count_mismatched(work.block_ptrs(), in.pristine,
                                     top[k].first.faulty(), in.block_bytes);
      const double t = median(times);
      exec_s += t;
      exec_bytes += static_cast<double>(stats.bytes_touched);
      kernel_s += static_cast<double>(stats.bytes_touched) / (kernel_rate * 1e9);
    }

    // parallel: execute_placed on the shared pool against Brent's bound.
    if (idx == 0) {
      for (std::size_t k = 0; k < top.size(); ++k) {
        const auto& plan = plans[k];
        if (plan == nullptr || plan->p() < 2 || !plan->profile().hazard_free) {
          continue;
        }
        const unsigned lanes = ppm::hardware_threads();
        std::vector<double> serial, placed;
        for (int rep = 0; rep < 7; ++rep) {
          reset_stripe(in, work, top[k].first);
          {
            const Timer t;
            plan->execute(work.block_ptrs(), in.block_bytes);
            serial.push_back(t.seconds());
          }
          reset_stripe(in, work, top[k].first);
          {
            Tracer::Scope span(tr, "parallel.execute_placed", "parallel");
            const Timer t;
            plan->execute_placed(work.block_ptrs(), in.block_bytes,
                                 ppm::ThreadPool::shared(), lanes);
            placed.push_back(t.seconds());
          }
          mismatches += count_mismatched(work.block_ptrs(), in.pristine,
                                         top[k].first.faulty(), in.block_bytes);
        }
        const double bound = std::min<double>(
            lanes, plan->profile().speedup_bound());
        placed_ratio = median(serial) / median(placed) / bound;
        break;
      }
    }

    // codec: plan_for and compute-only decode on the warm workload codec,
    // replaying the workload's scenario mix.
    for (const ppm::FailureScenario* sc :
         replay_sequence(in, 2000, mix_seed(ctx.seed, 0xC0DEC + idx))) {
      Tracer::Scope span(tr, "codec.plan_for", "codec");
      const Timer t;
      in.codec->plan_for(*sc);
      plan_for_us.push_back(t.seconds() * 1e6);
    }
    placed_before = placed_before + CodecCounts::of(*in.codec);
    for (const ppm::FailureScenario* sc :
         replay_sequence(in, 200, mix_seed(ctx.seed, 0xDEC0DE + idx))) {
      reset_stripe(in, work, *sc);
      {
        Tracer::Scope span(tr, "codec.decode", "codec");
        const Timer t;
        if (!in.codec->decode(*sc, work.block_ptrs(), in.block_bytes)) {
          ++mismatches;
        }
        decode_us.push_back(t.seconds() * 1e6);
      }
      mismatches += count_mismatched(work.block_ptrs(), in.pristine,
                                     sc->faulty(), in.block_bytes);
    }
    placed_after = placed_after + CodecCounts::of(*in.codec);
  }

  L["decode.plan_build_us_p50"] = median(build_us);
  L["hazard.analyze_us_p50"] = median(analyze_us);
  L["verify_plan.verify_us_p50"] = median(verify_us);
  L["plan_store.put_us_p50"] = median(put_us);
  L["plan_store.load_us_p50"] = median(load_us);
  L["decode.mult_xors_per_stripe"] = ratio(cost_sum, cost_stripes);
  L["decode.execute_gbps"] = ratio(exec_bytes, exec_s) / 1e9;
  L["decode.kernel_bound_ratio"] = ratio(exec_s, kernel_s);
  L["parallel.placed_bound_ratio"] = placed_ratio;
  L["codec.plan_for_us_p50"] = quantile(plan_for_us, 0.5);
  L["codec.plan_for_us_p99"] = quantile(plan_for_us, 0.99);
  L["codec.decode_us_p50"] = median(decode_us);
  const CodecCounts d = placed_after - placed_before;
  L["codec.placed_frac"] = ratio(d.placed, d.decodes);
  report.mismatches += mismatches;
  report.failed += mismatches + store_failures;
}

}  // namespace perfbench
