// scrub-repair: closed loop of back-to-back, unpaced Scrubber::run_cycle
// calls over a fleet in MemoryBlockStores. A seeded latent-error arrival
// schedule advances one epoch per cycle; every round of epochs gets a
// fresh schedule, and its arrivals must all be detected and healed with
// the fleet left byte-identical.
#include <atomic>
#include <cstring>
#include <memory>
#include <set>

#include "bench.h"

namespace perfbench {
namespace {

using ppm::Timer;

/// The span reads are attributed to: the current cycle and stage.
struct StageRef {
  std::atomic<std::uint64_t> cycle{0};
  std::atomic<std::uint64_t> span{0};
};

/// The scrubber's view of one stripe: reads and writes go to the current
/// round's fault seam; while the tracer is active, sampled reads record an
/// "io.read" span under the current stage span.
class Seam : public ppm::io::BlockSource, public ppm::io::BlockWriter {
 public:
  Seam(Tracer* tracer, const StageRef* stage, bool sampled)
      : tracer_(tracer), stage_(stage), sampled_(sampled) {}
  void attach(ppm::io::FaultInjectingSource* faults) { faults_ = faults; }
  std::size_t block_count() const override { return faults_->block_count(); }
  std::size_t block_bytes() const override { return faults_->block_bytes(); }
  ppm::io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                           std::size_t bytes) override {
    if (!sampled_ || !tracer_->active()) return faults_->read(block, dst, bytes);
    const std::int64_t t0 = tracer_->now();
    const ppm::io::ReadStatus st = faults_->read(block, dst, bytes);
    tracer_->record("io.read", "io", stage_->cycle.load(), tracer_->new_id(),
                    stage_->span.load(), t0, tracer_->now());
    return st;
  }
  ppm::io::WriteStatus write(std::size_t block, const std::uint8_t* src,
                             std::size_t bytes) override {
    return faults_->write(block, src, bytes);
  }

 private:
  Tracer* tracer_;
  const StageRef* stage_;
  bool sampled_;
  ppm::io::FaultInjectingSource* faults_ = nullptr;
};

struct Member {
  std::unique_ptr<ppm::Stripe> storage;  ///< the "disks"
  std::unique_ptr<ppm::Stripe> scratch;  ///< repair decode buffers
  std::vector<std::uint8_t> pristine;
  std::vector<std::uint32_t> crc;
  std::unique_ptr<ppm::io::MemoryBlockStore> store;
  std::unique_ptr<ppm::io::FaultInjectingSource> faults;
  std::unique_ptr<Seam> seam;
};

bool healthy(const ppm::io::FaultSpec& f) {
  return !f.fail_always && f.fail_reads == 0 && !f.corrupt &&
         f.delay.count() == 0;
}

}  // namespace

Report run_scrub_repair(const RunContext& ctx) {
  using params::kScrubBlock;
  using params::kScrubStripes;
  Tracer* tr = ctx.tracer;
  Report rep;
  StageRef stage;

  // Data (not part of set-up): the fleet, reference-encoded, with digests.
  const ppm::SDCode data_code(8, 16, 2, 2, 8);
  const std::size_t total = data_code.total_blocks();
  const ppm::TraditionalDecoder reference(data_code);
  std::vector<Member> fleet(kScrubStripes);
  for (std::size_t i = 0; i < kScrubStripes; ++i) {
    Member& m = fleet[i];
    m.storage = std::make_unique<ppm::Stripe>(data_code, kScrubBlock);
    ppm::Rng rng(mix_seed(ctx.seed, 0x5C0B + i));
    m.storage->fill_data(rng);
    if (!reference.encode(m.storage->block_ptrs(), kScrubBlock)) {
      throw std::runtime_error("reference encode failed");
    }
    m.pristine = m.storage->snapshot();
    for (std::size_t b = 0; b < total; ++b) {
      m.crc.push_back(ppm::crc32(m.storage->block(b), kScrubBlock));
    }
    m.scratch = std::make_unique<ppm::Stripe>(data_code, kScrubBlock);
    m.store = std::make_unique<ppm::io::MemoryBlockStore>(
        m.storage->block_ptrs(), total, kScrubBlock);
    m.faults = std::make_unique<ppm::io::FaultInjectingSource>(*m.store,
                                                               *m.store);
    m.seam = std::make_unique<Seam>(tr, &stage, i % 4 == 0);
    m.seam->attach(m.faults.get());
  }

  // Set-up: certified code, codec, journal, scrubber with its fleet.
  std::unique_ptr<ppm::SDCode> code;
  std::unique_ptr<ppm::Codec> codec;
  std::unique_ptr<ppm::scrub::RepairJournal> journal;
  std::unique_ptr<ppm::scrub::Scrubber> scrubber;
  std::vector<Sample> setup;
  for (int r = 0; r < params::kSetupReps; ++r) {
    scrubber.reset();
    journal.reset();
    codec.reset();
    code.reset();
    ppm::clear_sd_coefficient_cache();
    const std::filesystem::path dir =
        fresh_subdir(ctx, "journal-setup" + std::to_string(r));
    const StealTimer t;
    code = std::make_unique<ppm::SDCode>(8, 16, 2, 2, 8);
    codec = std::make_unique<ppm::Codec>(*code);
    journal = std::make_unique<ppm::scrub::RepairJournal>(dir);
    scrubber = std::make_unique<ppm::scrub::Scrubber>(
        *codec, ppm::scrub::ScrubOptions{}, journal.get());
    for (std::size_t i = 0; i < kScrubStripes; ++i) {
      ppm::scrub::ScrubTarget target;
      target.source = fleet[i].seam.get();
      target.writer = fleet[i].seam.get();
      target.blocks = fleet[i].scratch->block_ptrs();
      target.expected_crc = fleet[i].crc;
      target.stripe_id = "stripe-" + std::to_string(i);
      scrubber->add_target(std::move(target));
    }
    setup.push_back({t.seconds(), t.steal()});
  }

  ppm::io::FaultInjectingSource::ArrivalOptions arrival_opt;
  arrival_opt.fail_permanent = params::kScrubPermanent;
  arrival_opt.corrupt = params::kScrubCorrupt;
  arrival_opt.epochs = params::kScrubEpochsPerRound;

  std::vector<double> cycle_ms[2], sweep_gbps[2], sweep_s, rank_ms, repair_ms;
  std::vector<std::uint64_t> cycle_steal[2];
  std::map<std::vector<std::size_t>, std::size_t> repaired_mix;
  double seeded = 0, detected_total = 0;
  const CodecCounts before = CodecCounts::of(*codec);
  const Timer clock;
  std::size_t cycle = 0;
  for (std::size_t round = 0; clock.seconds() < ctx.seconds; ++round) {
    ppm::Rng rng(mix_seed(ctx.seed, 0xA441 + round));
    for (Member& m : fleet) {
      m.faults = std::make_unique<ppm::io::FaultInjectingSource>(*m.store,
                                                                 *m.store);
      m.faults->roll_arrivals(arrival_opt, rng);
      m.seam->attach(m.faults.get());
    }
    std::set<std::pair<std::size_t, std::size_t>> detected;
    std::size_t epoch = 0;
    for (; epoch < params::kScrubEpochsPerRound && clock.seconds() < ctx.seconds;
         ++epoch, ++cycle) {
      for (Member& m : fleet) m.faults->advance_epoch();
      const int traced = ctx.trace && cycle % 2 == 1 ? 1 : 0;
      tr->set_active(traced == 1);
      ppm::scrub::SweepReport sweep;
      ppm::scrub::RepairReport repair;
      std::vector<ppm::scrub::RiskAssessment> ranking;
      const StealTimer t;
      if (traced == 0) {
        ppm::scrub::CycleReport report = scrubber->run_cycle();
        sweep = std::move(report.sweep);
        repair = std::move(report.repair);
        ranking = std::move(report.ranking);
      } else {
        // The cycle's three stages, called one by one so that each gets a
        // span and each stripe's repair its own timing.
        Tracer::Scope root(tr, "scrub.cycle", "harness", cycle + 1);
        stage.cycle.store(cycle + 1);
        {
          Tracer::Scope span(tr, "scrub.sweep", "scrub", cycle + 1, root.id());
          stage.span.store(span.id());
          sweep = scrubber->sweep();
        }
        {
          Tracer::Scope span(tr, "scrub.rank", "scrub", cycle + 1, root.id());
          const Timer rt;
          ranking = scrubber->rank(sweep);
          rank_ms.push_back(rt.seconds() * 1e3);
        }
        for (const auto& risk : ranking) {
          Tracer::Scope span(tr, "scrub.repair", "scrub", cycle + 1, root.id());
          stage.span.store(span.id());
          const Timer rt;
          const ppm::scrub::RepairReport one = scrubber->repair({risk});
          repair_ms.push_back(rt.seconds() * 1e3);
          repair.attempted += one.attempted;
          repair.completed += one.completed;
          repair.partial += one.partial;
          repair.failed += one.failed;
        }
      }
      const double secs = t.seconds();
      tr->set_active(false);
      cycle_ms[traced].push_back(secs * 1e3);
      cycle_steal[traced].push_back(t.steal());
      sweep_gbps[traced].push_back(
          static_cast<double>(sweep.blocks_scanned * kScrubBlock) /
          sweep.seconds / 1e9);
      sweep_s.push_back(sweep.seconds);
      for (const auto& damage : sweep.stripes) {
        for (const std::size_t b : damage.latent) {
          detected.insert({damage.stripe, b});
        }
      }
      for (const auto& risk : ranking) ++repaired_mix[risk.faulty];
      ++rep.attempted;
      if (repair.failed != 0 || repair.partial != 0) ++rep.failed;
    }

    // Round oracle: every arrival so far detected and healed, every stripe
    // byte-identical to its reference.
    for (std::size_t i = 0; i < kScrubStripes; ++i) {
      Member& m = fleet[i];
      for (const auto& a : m.faults->arrivals()) {
        if (a.epoch > epoch) continue;
        ++seeded;
        const bool seen = detected.count({i, a.block}) != 0;
        detected_total += seen ? 1 : 0;
        if (!seen || !healthy(m.faults->fault(a.block))) {
          ++rep.failed;
          ++rep.mismatches;
        }
      }
      if (!m.storage->equals(m.pristine)) {
        ++rep.failed;
        ++rep.mismatches;
      }
    }
  }
  const CodecCounts delta = CodecCounts::of(*codec) - before;

  // Results of the calmer half of the untraced cycles (by host steal).
  const std::vector<double> calm_cycle_ms =
      calm_values(cycle_ms[0], cycle_steal[0]);
  const double scrub_cycle_s = median(calm_cycle_ms) / 1e3;
  const double scrub_gbps = median(calm_values(sweep_gbps[0], cycle_steal[0]));
  std::uint64_t steal_all = 0;
  double cycles_s = 0;
  for (int traced = 0; traced < 2; ++traced) {
    for (const std::uint64_t s : cycle_steal[traced]) steal_all += s;
    for (const double ms : cycle_ms[traced]) cycles_s += ms / 1e3;
  }
  rep.realized["host_steal_frac"] = steal_share(steal_all, cycles_s);
  rep.e2e["setup_s"] = calm_median(setup);
  rep.e2e["p50_ms"] = scrub_cycle_s * 1e3;
  rep.e2e["gbps"] = scrub_gbps;
  rep.named["scrub_gbps"] = {scrub_gbps, "GB/s"};
  rep.named["scrub_cycle_s"] = {scrub_cycle_s, "s"};
  rep.samples["cycles"] = cycle_ms[0].size();
  rep.samples["calm_cycles"] = calm_cycle_ms.size();
  rep.realized["arrivals_seeded"] = seeded;
  rep.realized["arrivals_per_cycle"] = ratio(seeded, static_cast<double>(cycle));

  char buf[768];
  std::snprintf(buf, sizeof buf,
                "{\"code\":\"%s\",\"w\":8,\"block_bytes\":%zu,\"stripes\":%zu,"
                "\"dataset_bytes\":%zu,\"epochs_per_round\":%zu,"
                "\"arrivals\":{\"fail_permanent\":%.4f,\"corrupt\":%.4f},"
                "\"loop\":\"closed, back-to-back unpaced run_cycle\"}",
                code->name().c_str(), kScrubBlock, kScrubStripes,
                kScrubStripes * total * kScrubBlock,
                params::kScrubEpochsPerRound, params::kScrubPermanent,
                params::kScrubCorrupt);
  rep.params_json = buf;

  if (ctx.trace) {
    auto& L = rep.layer;
    L["scrub.sweep_s"] = median(sweep_s);
    L["scrub.rank_ms"] = median(rank_ms);
    L["scrub.repair_ms_p50"] = median(repair_ms);
    L["scrub.detect_ratio"] = ratio(detected_total, seeded);
    L["codec.plan_hit_ratio"] = ratio(delta.hits, delta.hits + delta.misses);
    L["trace.overhead_frac"] =
        ratio(median(calm_values(cycle_ms[1], cycle_steal[1])),
              median(calm_cycle_ms)) -
        1.0;
    const std::vector<double> reads = tr->durations_us("io.read");
    L["io.read_us_p50"] = quantile(reads, 0.5);
    L["io.read_us_p99"] = quantile(reads, 0.99);
    std::vector<const std::uint8_t*> pristine(total);
    for (std::size_t b = 0; b < total; ++b) {
      pristine[b] = fleet[0].pristine.data() + b * kScrubBlock;
    }
    ProbeInput in;
    in.code = code.get();
    in.block_bytes = kScrubBlock;
    for (const auto& [faulty, n] : repaired_mix) {
      in.decoded.push_back({ppm::FailureScenario(faulty), n});
    }
    in.codec = codec.get();
    in.pristine = pristine.data();
    tr->set_active(true);
    probe_layers(ctx, {in}, rep);
    tr->set_active(false);
  }
  return rep;
}

}  // namespace perfbench
