// rebuild: closed loop, one caller thread. Codec::decode_batch phases
// (disk rebuild) alternate with per-stripe Codec::encode phases (writes)
// over a dataset several times the size of L3.
#include <cstring>
#include <memory>

#include "bench.h"

namespace perfbench {
namespace {

using ppm::Timer;

constexpr std::size_t kN = 8, kR = 16, kM = 2, kS = 2;
constexpr unsigned kW = 8;

struct Member {
  std::unique_ptr<ppm::Stripe> stripe;
  std::vector<std::size_t> kept;        ///< parity ∪ this stripe's faulty set
  std::vector<std::uint8_t> pristine;   ///< reference bytes of `kept`
  std::vector<const std::uint8_t*> ref;  ///< block id -> pristine (or null)
  std::size_t scenario = 0;
};

/// Blocks of `m` that differ from the reference, over `blocks`.
std::size_t stripe_mismatch(Member& m, std::span<const std::size_t> blocks,
                            std::size_t block) {
  return count_mismatched(m.stripe->block_ptrs(), m.ref.data(), blocks, block);
}

void poison(ppm::Stripe& s, std::span<const std::size_t> blocks,
            std::size_t block) {
  for (const std::size_t b : blocks) std::memset(s.block(b), 0xA5, block);
}

}  // namespace

Report run_rebuild(const RunContext& ctx) {
  using params::kRebuildBlock;
  using params::kRebuildScenarios;
  using params::kRebuildStripes;
  Tracer* tr = ctx.tracer;
  Report rep;

  // Inputs: seeded worst-case scenarios (m disks + s sectors, z = 1), each
  // covering one slice of the stripes.
  std::vector<ppm::FailureScenario> scenarios;
  {
    const ppm::SDCode gen_code(kN, kR, kM, kS, kW);
    ppm::ScenarioGenerator gen(mix_seed(ctx.seed, 0x5CE));
    for (std::size_t k = 0; k < kRebuildScenarios; ++k) {
      scenarios.push_back(gen.sd_worst_case(gen_code, kM, kS, 1).scenario);
    }
  }

  // Set-up: certified code construction, codec, plan warm-up.
  std::unique_ptr<ppm::SDCode> code;
  std::unique_ptr<ppm::Codec> codec;
  std::vector<Sample> setup;
  for (int r = 0; r < params::kSetupReps; ++r) {
    codec.reset();
    code.reset();
    ppm::clear_sd_coefficient_cache();
    const StealTimer t;
    code = std::make_unique<ppm::SDCode>(kN, kR, kM, kS, kW);
    codec = std::make_unique<ppm::Codec>(*code);
    codec->plan_for(ppm::FailureScenario::encoding_of(*code));
    for (const auto& sc : scenarios) codec->plan_for(sc);
    setup.push_back({t.seconds(), t.steal()});
  }

  // Data: random data blocks, parity from the reference decoder.
  const std::size_t total = code->total_blocks();
  const auto parity = code->parity_blocks();
  const std::size_t stripe_bytes = total * kRebuildBlock;
  const ppm::TraditionalDecoder reference(*code);
  std::vector<Member> fleet(kRebuildStripes);
  for (std::size_t i = 0; i < kRebuildStripes; ++i) {
    Member& m = fleet[i];
    m.stripe = std::make_unique<ppm::Stripe>(*code, kRebuildBlock);
    ppm::Rng rng(mix_seed(ctx.seed, 1000 + i));
    m.stripe->fill_data(rng);
    if (!reference.encode(m.stripe->block_ptrs(), kRebuildBlock)) {
      throw std::runtime_error("reference encode failed");
    }
    m.scenario = i * kRebuildScenarios / kRebuildStripes;
    m.kept.assign(parity.begin(), parity.end());
    for (const std::size_t b : scenarios[m.scenario].faulty()) m.kept.push_back(b);
    std::sort(m.kept.begin(), m.kept.end());
    m.kept.erase(std::unique(m.kept.begin(), m.kept.end()), m.kept.end());
    m.pristine.resize(m.kept.size() * kRebuildBlock);
    m.ref.assign(total, nullptr);
    for (std::size_t j = 0; j < m.kept.size(); ++j) {
      std::uint8_t* dst = m.pristine.data() + j * kRebuildBlock;
      std::memcpy(dst, m.stripe->block(m.kept[j]), kRebuildBlock);
      m.ref[m.kept[j]] = dst;
    }
  }
  std::vector<std::vector<std::uint8_t* const*>> slices(kRebuildScenarios);
  for (Member& m : fleet) slices[m.scenario].push_back(m.stripe->block_ptrs());

  // One decode phase then one encode phase, each output checked against
  // the reference outside the timed calls.
  struct Pass {
    double encode_s = 0, encode_bytes = 0;
    std::vector<double> batch_gbps;  ///< one per decode_batch call
    std::vector<double> encode_ms;
  };
  const auto run_pass = [&](std::uint64_t pass_id) {
    Pass p;
    Tracer::Scope root(tr, "rebuild.pass", "harness", pass_id);
    for (std::size_t k = 0; k < kRebuildScenarios; ++k) {
      for (Member& m : fleet) {
        if (m.scenario == k) m.stripe->erase(scenarios[k]);
      }
      std::optional<ppm::BatchResult> res;
      double batch_s = 0;
      {
        Tracer::Scope span(tr, "codec.decode_batch", "codec", pass_id, root.id());
        const Timer t;
        res = codec->decode_batch(scenarios[k], slices[k], kRebuildBlock);
        batch_s = t.seconds();
      }
      const auto batch_bytes =
          static_cast<double>(slices[k].size() * stripe_bytes);
      p.batch_gbps.push_back(batch_bytes / batch_s / 1e9);
      for (Member& m : fleet) {
        if (m.scenario != k) continue;
        ++rep.attempted;
        if (!res.has_value() ||
            stripe_mismatch(m, scenarios[k].faulty(), kRebuildBlock) != 0) {
          ++rep.failed;
          if (res.has_value()) ++rep.mismatches;
        }
      }
    }
    for (Member& m : fleet) {
      poison(*m.stripe, parity, kRebuildBlock);
      bool ok = false;
      {
        Tracer::Scope span(tr, "codec.encode", "codec", pass_id, root.id());
        const Timer t;
        ok = codec->encode(m.stripe->block_ptrs(), kRebuildBlock);
        const double s = t.seconds();
        p.encode_s += s;
        p.encode_ms.push_back(s * 1e3);
      }
      p.encode_bytes += static_cast<double>(stripe_bytes);
      ++rep.attempted;
      if (!ok || stripe_mismatch(m, parity, kRebuildBlock) != 0) {
        ++rep.failed;
        if (ok) ++rep.mismatches;
      }
    }
    return p;
  };

  // Warm-up pass (worker pool start, first touch), not reported.
  run_pass(0);

  const CodecCounts before = CodecCounts::of(*codec);
  std::vector<Pass> passes[2];  ///< untraced, traced
  std::vector<std::uint64_t> pass_steal[2];
  std::uint64_t steal_all = 0;
  const Timer clock;
  for (std::uint64_t pass = 1; clock.seconds() < ctx.seconds; ++pass) {
    const int traced = ctx.trace && pass % 2 == 0 ? 1 : 0;
    tr->set_active(traced == 1);
    const std::uint64_t steal0 = steal_ticks();
    passes[traced].push_back(run_pass(tr->new_id()));
    pass_steal[traced].push_back(steal_ticks() - steal0);
    steal_all += pass_steal[traced].back();
    tr->set_active(false);
  }
  const double measured_s = clock.seconds();
  const CodecCounts delta = CodecCounts::of(*codec) - before;

  // Results of the calmer half of the passes (by host steal).
  std::vector<double> encode_ms[2];
  std::vector<double> batch_gbps, encode_rates;  ///< untraced passes
  std::size_t calm_passes = 0;
  for (int traced = 0; traced < 2; ++traced) {
    const std::vector<bool> calm = calm_windows(pass_steal[traced]);
    for (std::size_t i = 0; i < passes[traced].size(); ++i) {
      if (!calm[i]) continue;
      const Pass& p = passes[traced][i];
      encode_ms[traced].insert(encode_ms[traced].end(), p.encode_ms.begin(),
                               p.encode_ms.end());
      if (traced == 0) {
        ++calm_passes;
        batch_gbps.insert(batch_gbps.end(), p.batch_gbps.begin(),
                          p.batch_gbps.end());
        encode_rates.push_back(p.encode_bytes / p.encode_s / 1e9);
      }
    }
  }
  rep.realized["host_steal_frac"] = steal_share(steal_all, measured_s);

  // Median over decode_batch calls: many short samples, so a disturbed
  // stretch of the run moves the rate less than it would a per-pass mean.
  const double rebuild_gbps = median(batch_gbps);
  const double encode_gbps = median(encode_rates);
  rep.e2e["setup_s"] = calm_median(setup);
  rep.e2e["gbps"] = rebuild_gbps;
  rep.e2e["p50_ms"] = quantile(encode_ms[0], 0.5);
  rep.named["rebuild_gbps"] = {rebuild_gbps, "GB/s"};
  rep.named["encode_gbps"] = {encode_gbps, "GB/s"};
  rep.samples["passes"] = passes[0].size();
  rep.samples["calm_passes"] = calm_passes;
  rep.samples["decode_batches"] = batch_gbps.size();
  rep.samples["encodes"] = encode_ms[0].size();

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"code\":\"%s\",\"w\":%u,\"block_bytes\":%zu,\"stripes\":%zu,"
                "\"dataset_bytes\":%zu,\"scenarios\":%zu,\"scenario_shape\":"
                "\"m=2 disks + s=2 sectors, z=1\",\"loop\":\"closed, 1 caller\"}",
                code->name().c_str(), kW, kRebuildBlock, kRebuildStripes,
                kRebuildStripes * stripe_bytes, kRebuildScenarios);
  rep.params_json = buf;

  if (ctx.trace) {
    rep.layer["codec.plan_hit_ratio"] = ratio(delta.hits, delta.hits + delta.misses);
    rep.layer["trace.overhead_frac"] =
        ratio(quantile(encode_ms[1], 0.5), quantile(encode_ms[0], 0.5)) - 1.0;
    tr->set_active(true);
    // parallel: serial execute time of one slice against decode_batch.
    std::vector<double> eff;
    const auto plan = codec->plan_for(scenarios[0]);
    for (int r = 0; r < 3 && plan != nullptr; ++r) {
      for (Member& m : fleet) {
        if (m.scenario == 0) m.stripe->erase(scenarios[0]);
      }
      double batch_s = 0;
      {
        Tracer::Scope span(tr, "parallel.decode_batch", "parallel");
        const Timer t;
        codec->decode_batch(scenarios[0], slices[0], kRebuildBlock);
        batch_s = t.seconds();
      }
      double serial_s = 0;
      for (Member& m : fleet) {
        if (m.scenario != 0) continue;
        m.stripe->erase(scenarios[0]);
        Tracer::Scope span(tr, "decode.execute", "decode");
        const Timer t;
        plan->execute(m.stripe->block_ptrs(), kRebuildBlock);
        serial_s += t.seconds();
      }
      eff.push_back(serial_s / (batch_s * ppm::hardware_threads()));
    }
    rep.layer["parallel.batch_efficiency"] = median(eff);
    for (Member& m : fleet) {
      if (stripe_mismatch(m, m.kept, kRebuildBlock) != 0) {
        ++rep.mismatches;
        ++rep.failed;
      }
    }
    ProbeInput in;
    in.code = code.get();
    in.block_bytes = kRebuildBlock;
    for (std::size_t k = 0; k < kRebuildScenarios; ++k) {
      in.decoded.push_back({scenarios[k], slices[k].size()});
    }
    in.codec = codec.get();
    in.pristine = fleet[0].stripe->block_ptrs();
    probe_layers(ctx, {in}, rep);
    tr->set_active(false);
  }
  return rep;
}

}  // namespace perfbench
