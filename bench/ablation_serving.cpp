// Ablation — serving the decode: what do async survivor fetch, hedged
// reads and readiness-overlapped group solves buy under stragglers?
// Three variants decode the same erased stripe from a fault-injecting
// source rolled with *identical* seeded straggler schedules
// (delay_attempts=1, i.e. transient — a duplicate read is fast):
//
//   serial     decode_resilient: blocking reads, solve after last fetch
//   overlap    decode_overlapped, hedging off: async fetch, each O1 group
//              solves the moment its survivors land
//   hedged     decode_overlapped + hedged reads: stragglers are raced
//              against a duplicate once the latency quantile trips
//
// Under transient stragglers the serial path eats every delay back to
// back, overlap hides those that finish before the slowest read, and
// hedging clips the tail itself — docs/SERVING.md.
#include <cstdio>
#include <cstring>
#include <vector>

#include "codec/codec.h"
#include "io/fault_injection.h"
#include "serve/overlap.h"

#include "bench_common.h"

using namespace ppm;

int main() {
  bench::banner("Ablation", "serial vs overlapped vs hedged decode serving");
  const std::size_t n = 8;
  const std::size_t r = 16;
  const unsigned w = SDCode::recommended_width(n, r);
  const SDCode code(n, r, 2, 2, w);
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  const std::size_t block = 64u << 10;
  const double straggle = 0.30;
  const std::chrono::microseconds delay{2000};

  Stripe stripe(code, block);
  Rng fill(1);
  stripe.fill_data(fill);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block)) return 1;
  const auto snap = stripe.snapshot();
  const std::size_t total = code.total_blocks();
  std::vector<const std::uint8_t*> backing(total);
  for (std::size_t b = 0; b < total; ++b) {
    backing[b] = snap.data() + b * block;
  }
  const std::vector<std::size_t> exempt(g.scenario.faulty().begin(),
                                        g.scenario.faulty().end());

  io::FaultInjectingSource::CampaignOptions campaign;
  campaign.delay = straggle;
  campaign.delay_ns = delay;
  campaign.delay_attempts = 1;

  serve::OverlapOptions overlap;
  overlap.hedge.enabled = false;
  serve::OverlapOptions hedged = overlap;
  hedged.hedge.enabled = true;

  Codec codec(code);
  // Warm the plan cache so every variant measures serving, not planning.
  stripe.erase(g.scenario);
  if (!codec.decode(g.scenario, stripe.block_ptrs(), block)) return 1;

  const std::size_t reps = bench::reps() * 3;
  std::vector<double> t_serial;
  std::vector<double> t_overlap;
  std::vector<double> t_hedged;
  std::size_t hedges_won = 0;
  // Each variant replays the same straggler schedules: one Rng stream
  // per variant, seeded identically, advanced in lockstep per rep.
  Rng rng_serial(7);
  Rng rng_overlap(7);
  Rng rng_hedged(7);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    io::MemoryBlockSource inner(backing.data(), total, block);
    {
      io::FaultInjectingSource source(inner);
      source.roll_campaign(campaign, rng_serial, exempt);
      stripe.erase(g.scenario);
      Timer t;
      if (!codec.decode_resilient(g.scenario, source, stripe.block_ptrs(),
                                  block).complete) {
        return 1;
      }
      t_serial.push_back(t.seconds());
      if (!stripe.equals(snap)) return 1;
    }
    {
      io::FaultInjectingSource source(inner);
      source.roll_campaign(campaign, rng_overlap, exempt);
      stripe.erase(g.scenario);
      Timer t;
      const auto out = serve::decode_overlapped(
          codec, g.scenario, source, stripe.block_ptrs(), block, overlap);
      if (!out.complete) return 1;
      t_overlap.push_back(t.seconds());
      if (!stripe.equals(snap)) return 1;
    }
    {
      io::FaultInjectingSource source(inner);
      source.roll_campaign(campaign, rng_hedged, exempt);
      stripe.erase(g.scenario);
      Timer t;
      const auto out = serve::decode_overlapped(
          codec, g.scenario, source, stripe.block_ptrs(), block, hedged);
      if (!out.complete) return 1;
      t_hedged.push_back(t.seconds());
      hedges_won += out.hedges_won;
    }
    if (!stripe.equals(snap)) return 1;
  }
  const auto maxv = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  const double serial_max = maxv(t_serial);
  const double overlap_max = maxv(t_overlap);
  const double hedged_max = maxv(t_hedged);
  const double serial = bench::median(std::move(t_serial));
  const double over = bench::median(std::move(t_overlap));
  const double hedge = bench::median(std::move(t_hedged));
  std::printf("%10s  %10s %10s  %9s\n", "variant", "median", "max", "vs serial");
  std::printf("%10s  %8.3fms %8.3fms  %8s\n", "serial", serial * 1e3,
              serial_max * 1e3, "--");
  std::printf("%10s  %8.3fms %8.3fms  %8.2fx\n", "overlap", over * 1e3,
              overlap_max * 1e3, serial / over);
  std::printf("%10s  %8.3fms %8.3fms  %8.2fx\n", "hedged", hedge * 1e3,
              hedged_max * 1e3, serial / hedge);
  std::printf("\n(straggle %.0f%% of reads by %lldus, transient: the "
              "duplicate a hedge issues is fast; %zu hedges won across "
              "%zu hedged reps)\n",
              straggle * 100, static_cast<long long>(delay.count()),
              hedges_won, reps);
  std::printf("\nserve metrics: %s\n", serve_metrics().to_json().c_str());
  return 0;
}
