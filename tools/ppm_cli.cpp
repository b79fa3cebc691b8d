// ppm_cli — command-line front end for the PPM library.
//
//   ppm_cli info     --code <family> [params]      code geometry + H census
//   ppm_cli costs    --code <family> [params]      C1..C4 + partition shape
//   ppm_cli bench    --code <family> [params]      traditional vs PPM timing
//   ppm_cli batch    --code <family> [params]      Codec batch decode + metrics JSON
//   ppm_cli selftest --code <family> [params]      encode/erase/decode/verify
//   ppm_cli sim      --code <family> [params]      failure-stream simulation
//   ppm_cli verify   --code <family> [params]      static plan verification
//                    [--scenario 1,5,9] [--sweep <disks>]
//   ppm_cli analyze  --code <family> [params]      concurrency-hazard proof +
//                    [--scenario 1,5,9] [--sweep <disks>]   critical-path bounds
//                    [--optimize 1]   proof-carrying XOR-schedule superoptimizer
//   ppm_cli store {build|ls|check|gc} --dir <dir>  persistent plan store:
//                    [--code <family> [params]] [--sweep <disks>]
//                    build/list/re-verify/garbage-collect plan records
//   ppm_cli chaos    --code <family> [params]      seeded fault-injection
//                    [--sweep <disks>] [--seed S] [--rounds R]   campaign
//                    [--permanent P] [--transient P] [--corrupt P]   against
//                    [--straggle P] [--retries N]   the resilient pipeline
//   ppm_cli serve    --code <family> [params]      decode-serving campaign:
//                    [--sweep <disks>] [--seed S] [--rounds R]   async fetch +
//                    [--requests N] [--straggle P] [--delay-us U]  hedged reads
//                    [--queue D] [--dispatchers N]       + overlapped
//                    [--serial 0|1] [--assert-ratio P] [--assert-floor-us U]
//                    [--scrub-rate-kbps K]   group solves vs the serial
//                    resilient baseline, optionally beside a rate-limited
//                    background scrubber
//   ppm_cli scrub    --code <family> [params]      continuous-scrub campaign:
//                    [--stripes N] [--epochs E] [--seed S]   seeded latent-
//                    [--permanent P] [--corrupt P]   error arrivals, sweep +
//                    [--rate-kbps K] [--retries N] [--spot-every N]  risk-
//                    [--dir <journal>] [--drill 1] [--metrics 1]   ranked
//                    repair + crash-consistent journal (see ROBUSTNESS.md)
//   ppm_cli search {certify|best|ls|check|gc}      coefficient certification:
//                    [--n N --r R --m M --s S --w W]   exhaustively prove a
//                    [--coeffs a,b,...] [--dir <d>]    tuple (certify), search
//                    [--candidates N] [--certify-budget N] [--seed S]  for the
//                    [--plan-budget N] [--exact-limit N] [--classes N] Pareto-
//                    [--allow-deficient 1] [--metrics 1]   best one (best), or
//                    re-prove/list/gc the persistent certificate store
//
// Families and their parameters (defaults in parentheses):
//   sd, pmds : --n (8) --r (16) --m (2) --s (2) [--w auto] [--z 1]
//   lrc      : --k (12) --l (3) --g (2)
//   xorbas   : --k (10) --l (2) --g (4)
//   rs       : --k (10) --m (4)
//   crs      : --k (10) --m (4)
//   evenodd, rdp, star : --p (7)
// Common: --block <bytes> (65536), --reps (5), --threads (4), --faults
// (family worst case) — number of whole-disk failures for the generic
// generator.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ppm.h"

using namespace ppm;

namespace {

struct Args {
  std::string command;
  std::string subcommand;  // e.g. "build" in `ppm_cli store build ...`
  std::map<std::string, std::string> flags;

  std::size_t get(const std::string& key, std::size_t fallback) const {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return std::strtoull(it->second.c_str(), nullptr, 10);
  }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  int first_flag = 2;
  if (argc > 2 && argv[2][0] != '-') {
    args.subcommand = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    if (key[0] == '-' && key[1] == '-') {
      args.flags[key + 2] = argv[i + 1];
    }
  }
  return args;
}

std::unique_ptr<ErasureCode> make_code(const Args& args) {
  const std::string family = args.get("code", "sd");
  if (family == "sd" || family == "pmds") {
    const std::size_t n = args.get("n", 8);
    const std::size_t r = args.get("r", 16);
    const std::size_t m = args.get("m", 2);
    const std::size_t s = args.get("s", 2);
    const unsigned w = static_cast<unsigned>(
        args.get("w", SDCode::recommended_width(n, r)));
    if (family == "sd") return std::make_unique<SDCode>(n, r, m, s, w);
    return std::make_unique<PMDSCode>(n, r, m, s, w);
  }
  if (family == "lrc") {
    return std::make_unique<LRCCode>(args.get("k", 12), args.get("l", 3),
                                     args.get("g", 2), 8);
  }
  if (family == "xorbas") {
    return std::make_unique<XorbasLRCCode>(args.get("k", 10),
                                           args.get("l", 2),
                                           args.get("g", 4), 8);
  }
  if (family == "rs") {
    return std::make_unique<RSCode>(args.get("k", 10), args.get("m", 4), 8);
  }
  if (family == "crs") {
    return std::make_unique<CRSCode>(args.get("k", 10), args.get("m", 4), 8);
  }
  if (family == "star") {
    return std::make_unique<StarCode>(args.get("p", 7), 8);
  }
  if (family == "evenodd") {
    return std::make_unique<EvenOddCode>(args.get("p", 7), 8);
  }
  if (family == "rdp") {
    return std::make_unique<RDPCode>(args.get("p", 7), 8);
  }
  throw std::invalid_argument("unknown --code family: " + family);
}

// Family-appropriate worst-case (or --faults whole disks) scenario.
FailureScenario make_scenario(const ErasureCode& code, const Args& args,
                              ScenarioGenerator& gen) {
  const std::string family = args.get("code", "sd");
  if (args.flags.contains("faults")) {
    return gen.disk_failures(code, args.get("faults", 1)).scenario;
  }
  if (family == "sd" || family == "pmds") {
    return gen
        .sd_worst_case(code, args.get("m", 2), args.get("s", 2),
                       args.get("z", 1))
        .scenario;
  }
  if (family == "lrc") {
    const auto& lrc = dynamic_cast<const LRCCode&>(code);
    return gen.lrc_failures(lrc, lrc.l(), 1).scenario;
  }
  if (family == "rs") {
    const auto& rs = dynamic_cast<const RSCode&>(code);
    return gen.rs_failures(rs, rs.m()).scenario;
  }
  // Generic fallback: tolerance-respecting whole-disk failures.
  const std::size_t disks = family == "crs" ? args.get("m", 4)
                            : family == "star" ? std::size_t{3}
                                               : std::size_t{2};  // evenodd/rdp
  return gen.disk_failures(code, std::min(disks, code.disks() - 1)).scenario;
}

int cmd_info(const ErasureCode& code) {
  const Matrix& h = code.parity_check();
  std::printf("code:          %s\n", code.name().c_str());
  std::printf("geometry:      %zu disks x %zu rows = %zu blocks\n",
              code.disks(), code.rows(), code.total_blocks());
  std::printf("data/parity:   %zu / %zu\n", code.data_block_count(),
              code.parity_blocks().size());
  std::printf("H:             %zu x %zu, %zu nonzeros (density %.3f)\n",
              h.rows(), h.cols(), h.nonzeros(),
              static_cast<double>(h.nonzeros()) / (h.rows() * h.cols()));
  std::printf("field:         GF(2^%u)\n", code.field().w());
  std::printf("check rank:    %zu\n", h.rank());
  // Parity arity census — symmetric vs asymmetric at a glance.
  std::map<std::size_t, std::size_t> arity;
  for (std::size_t row = 0; row < h.rows(); ++row) {
    std::size_t nz = 0;
    for (std::size_t c = 0; c < h.cols(); ++c) nz += (h(row, c) != 0);
    ++arity[nz];
  }
  std::printf("row arities:  ");
  for (const auto& [a, count] : arity) std::printf(" %zux%zu", count, a);
  std::printf("  -> %s parity\n",
              arity.size() > 1 ? "ASYMMETRIC" : "symmetric");
  return 0;
}

int cmd_costs(const ErasureCode& code, const Args& args) {
  ScenarioGenerator gen(args.get("seed", 1));
  const FailureScenario sc = make_scenario(code, args, gen);
  std::printf("scenario: %zu faulty blocks\n", sc.count());
  const auto costs = analyze_costs(code, sc);
  if (!costs) {
    std::fprintf(stderr, "scenario undecodable\n");
    return 1;
  }
  std::printf("C1=%zu C2=%zu C3=%zu C4=%zu  p=%zu  ppm=%zu (%.2f%% below "
              "C1)\n",
              costs->c1, costs->c2, costs->c3, costs->c4, costs->p,
              costs->ppm_best(),
              100.0 * (costs->c1 - costs->ppm_best()) / costs->c1);
  return 0;
}

int cmd_bench(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 65536);
  const std::size_t reps = args.get("reps", 5);
  ScenarioGenerator gen(args.get("seed", 1));
  const FailureScenario sc = make_scenario(code, args, gen);

  Stripe stripe(code, block);
  Rng rng(args.get("seed", 1) + 1);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block)) return 1;
  const auto snap = stripe.snapshot();

  PpmOptions opts;
  opts.threads = static_cast<unsigned>(args.get("threads", 4));
  const PpmDecoder ppm_dec(code, opts);

  stripe.erase(sc);  // warm-up
  if (!trad.decode(sc, stripe.block_ptrs(), block)) return 1;

  std::vector<double> tt;
  std::vector<double> tp;
  std::vector<double> tmodel;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    stripe.erase(sc);
    const auto tr = trad.decode(sc, stripe.block_ptrs(), block);
    if (!tr) return 1;
    tt.push_back(tr->seconds);
    stripe.erase(sc);
    const auto pr = ppm_dec.decode(sc, stripe.block_ptrs(), block);
    if (!pr) return 1;
    tp.push_back(pr->seconds);
    tmodel.push_back(pr->modeled_seconds());
  }
  if (!stripe.equals(snap)) {
    std::fprintf(stderr, "VERIFICATION FAILED\n");
    return 1;
  }
  std::sort(tt.begin(), tt.end());
  std::sort(tp.begin(), tp.end());
  std::sort(tmodel.begin(), tmodel.end());
  const double t1 = tt[tt.size() / 2];
  const double t2 = tp[tp.size() / 2];
  const double t3 = tmodel[tmodel.size() / 2];
  std::printf("traditional: %8.3f ms\n", t1 * 1e3);
  std::printf("PPM (wall):  %8.3f ms  (%+.2f%%)\n", t2 * 1e3,
              100 * (t1 / t2 - 1));
  std::printf("PPM (model): %8.3f ms  (%+.2f%%, %zu threads)\n", t3 * 1e3,
              100 * (t1 / t3 - 1), args.get("threads", 4));
  return 0;
}

// Batch decode through the Codec (the disk-rebuild serving path) and emit
// the codec's metrics as one JSON object on stdout — plan-cache hits /
// misses / evictions, mult_XOR volume, and latency histograms.
int cmd_batch(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 65536);
  const std::size_t batch = args.get("stripes", 64);
  ScenarioGenerator gen(args.get("seed", 1));
  const FailureScenario sc = make_scenario(code, args, gen);

  const TraditionalDecoder trad(code);
  std::vector<std::unique_ptr<Stripe>> stripes;
  std::vector<std::vector<std::uint8_t>> snaps;
  std::vector<std::uint8_t* const*> ptrs;
  Rng rng(args.get("seed", 1) + 3);
  for (std::size_t i = 0; i < batch; ++i) {
    stripes.push_back(std::make_unique<Stripe>(code, block));
    stripes.back()->fill_data(rng);
    if (!trad.encode(stripes.back()->block_ptrs(), block)) return 1;
    snaps.push_back(stripes.back()->snapshot());
    stripes.back()->erase(sc);
    ptrs.push_back(stripes.back()->block_ptrs());
  }

  Codec::Options copts;
  copts.threads = static_cast<unsigned>(args.get("threads", 4));
  copts.cache_capacity = args.get("capacity", 64);
  copts.cache_shards = args.get("shards", 0);
  Codec codec(code, copts);
  const auto result = codec.decode_batch(sc, ptrs, block);
  if (!result.has_value()) {
    std::fprintf(stderr, "scenario undecodable\n");
    return 1;
  }
  for (std::size_t i = 0; i < batch; ++i) {
    if (!stripes[i]->equals(snaps[i])) {
      std::fprintf(stderr, "VERIFICATION FAILED: stripe %zu\n", i);
      return 1;
    }
  }
  std::fprintf(stderr,
               "%zu stripes x %zuKiB decoded in %.3f ms (plan %.3f ms, "
               "%u threads, cache %zu/%zu in %zu shards)\n",
               result->stripes, block / 1024, result->seconds * 1e3,
               result->plan_seconds * 1e3, copts.threads, codec.cache_size(),
               codec.cache_capacity(), codec.cache_shards());
  std::printf("%s\n", codec.metrics_json().c_str());
  return 0;
}

int cmd_sim(const ErasureCode& code, const Args& args) {
  SimParams params;
  params.hours = static_cast<double>(args.get("hours", 24 * 365));
  params.disk_mtbf_hours =
      static_cast<double>(args.get("mtbf", 20000));
  params.sector_errors_per_disk_hour =
      1.0 / static_cast<double>(args.get("sector_mtbh", 5000));
  params.repair_hours = static_cast<double>(args.get("repair", 8));
  params.stripes = args.get("stripes", 256);
  params.block_bytes = args.get("block", 8192);
  params.seed = args.get("seed", 1);

  const ArraySimulator sim(code, params);
  const SimResult trad = sim.run(RepairPolicy::kTraditional);
  const SimResult ppm = sim.run(RepairPolicy::kPpm);
  std::printf("%s over %.0f hours: %zu disk failures, %zu sector errors, "
              "%zu repairs, %zu loss events\n",
              code.name().c_str(), params.hours, trad.disk_failures,
              trad.sector_errors, trad.repair_events, trad.data_loss_events);
  std::printf("repair mult_XORs: traditional %zu, PPM %zu (%.2f%% saved)\n",
              trad.compute.mult_xors, ppm.compute.mult_xors,
              trad.compute.mult_xors == 0
                  ? 0.0
                  : 100.0 *
                        (static_cast<double>(trad.compute.mult_xors) -
                         static_cast<double>(ppm.compute.mult_xors)) /
                        static_cast<double>(trad.compute.mult_xors));
  return 0;
}

// Parse "1,5,9" into a scenario.
FailureScenario parse_scenario_spec(const std::string& spec) {
  std::vector<std::size_t> faulty;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    faulty.push_back(std::strtoull(p, &end, 10));
    if (end == p) throw std::invalid_argument("bad --scenario: " + spec);
    p = *end == ',' ? end + 1 : end;
  }
  return FailureScenario(faulty);
}

// Statically verify the plan for one scenario: the planverify pass over
// the cached plan, plus — for every sub-plan whose applied matrix is
// binary — an incremental XOR schedule planned and symbolically replayed.
// Returns all violations found (empty = sound).
std::vector<planverify::Violation> verify_one(Codec& codec,
                                              const ErasureCode& code,
                                              const FailureScenario& sc,
                                              bool* undecodable,
                                              std::size_t* schedules) {
  *undecodable = false;
  const auto plan = codec.plan_for(sc);
  if (plan == nullptr) {
    *undecodable = true;
    return {};
  }
  auto verdict = planverify::verify_plan(code, sc, *plan);
  const auto check_schedule = [&](const SubPlan& sub) {
    const Matrix& applied =
        sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
    const auto sched = plan_xor_schedule(applied);
    if (!sched.has_value()) return;  // non-binary system: no XOR schedule
    ++*schedules;
    auto xv = planverify::verify_xor_schedule(applied, *sched);
    verdict.violations.insert(verdict.violations.end(),
                              xv.violations.begin(), xv.violations.end());
  };
  for (const SubPlan& sub : plan->groups()) check_schedule(sub);
  if (plan->rest().has_value()) check_schedule(*plan->rest());
  return std::move(verdict.violations);
}

// Drive `run_one` over the scenario selection shared by `verify` and
// `analyze`: an explicit --scenario, every combination of up to --sweep
// whole-disk failures, or the family worst case.
template <typename Fn>
void for_each_selected_scenario(const ErasureCode& code, const Args& args,
                                const Fn& run_one) {
  if (args.flags.contains("sweep")) {
    // Every combination of 1..sweep failed disks (each disk failure
    // erases that disk's blocks in every row of the stripe).
    const std::size_t max_disks =
        std::min(args.get("sweep", 1), code.disks());
    std::vector<std::size_t> combo;
    const auto recurse = [&](auto&& self, std::size_t next,
                             std::size_t remaining) -> void {
      if (remaining == 0) {
        std::vector<std::size_t> faulty;
        for (const std::size_t d : combo) {
          for (std::size_t row = 0; row < code.rows(); ++row) {
            faulty.push_back(code.block_id(row, d));
          }
        }
        run_one(FailureScenario(faulty));
        return;
      }
      for (std::size_t d = next; d + remaining <= code.disks(); ++d) {
        combo.push_back(d);
        self(self, d + 1, remaining - 1);
        combo.pop_back();
      }
    };
    for (std::size_t k = 1; k <= max_disks; ++k) recurse(recurse, 0, k);
  } else if (args.flags.contains("scenario")) {
    run_one(parse_scenario_spec(args.get("scenario", std::string{})));
  } else {
    ScenarioGenerator gen(args.get("seed", 1));
    run_one(make_scenario(code, args, gen));
  }
}

std::string scenario_ids(const FailureScenario& sc) {
  std::string ids;
  for (const std::size_t b : sc.faulty()) {
    ids += (ids.empty() ? "" : ",") + std::to_string(b);
  }
  return ids;
}

// Offline plan-space vetting for operators: verify the plan of one
// scenario (--scenario or the family default), or of every combination of
// up to --sweep whole-disk failures. Pass/fail report on stderr; the
// Violation list as JSON on stdout when verification fails.
int cmd_verify(const ErasureCode& code, const Args& args) {
  Codec codec(code);
  std::size_t checked = 0;
  std::size_t undecodable_count = 0;
  std::size_t schedules = 0;
  std::vector<planverify::Violation> violations;

  for_each_selected_scenario(code, args, [&](const FailureScenario& sc) {
    bool undecodable = false;
    auto v = verify_one(codec, code, sc, &undecodable, &schedules);
    ++checked;
    if (undecodable) {
      ++undecodable_count;
      return;
    }
    if (!v.empty()) {
      std::fprintf(stderr, "FAIL: scenario [%s]: %zu violation(s)\n",
                   scenario_ids(sc).c_str(), v.size());
      violations.insert(violations.end(), v.begin(), v.end());
    }
  });

  std::fprintf(stderr,
               "%s: %zu scenario(s) verified (%zu undecodable skipped), "
               "%zu XOR schedule(s) replayed\n",
               code.name().c_str(), checked - undecodable_count,
               undecodable_count, schedules);
  if (!violations.empty()) {
    std::printf("%s\n", planverify::to_json(violations).c_str());
    std::fprintf(stderr, "FAIL: %zu violation(s)\n", violations.size());
    return 1;
  }
  if (checked == undecodable_count && checked > 0 &&
      !args.flags.contains("sweep")) {
    std::fprintf(stderr, "FAIL: scenario undecodable\n");
    return 2;
  }
  std::fprintf(stderr, "PASS\n");
  return 0;
}

// Static concurrency-hazard analysis: prove every parallel region the
// decoders would run for a scenario race-free under all interleavings and
// report the plan's parallelism profile (critical path, per-level width,
// max-speedup bound). Covers the PPM group fan-out (analyze_plan), every
// binary sub-system's XOR schedule as a parallel program over target
// units (analyze_schedule), and the region-split slice geometry the
// BlockParallelDecoder would use for --block/--threads (analyze_slices).
// With --optimize 1, the proof-carrying superoptimizer (ppm::xoropt) runs
// over every binary sub-system: the codec builds plans with the
// optimize_xor knob, the CLI re-proves each optimized schedule
// independently, and the sweep JSON gains naive/greedy/optimized op
// totals plus accept/reject counts. Profile JSON on stdout; violations
// JSON on stdout with exit 1.
int cmd_analyze(const ErasureCode& code, const Args& args) {
  const bool optimize = args.get("optimize", 0) != 0;
  Codec::Options codec_options;
  codec_options.optimize_xor = optimize;
  Codec codec(code, codec_options);
  const std::size_t block = args.get("block", 65536);
  const unsigned threads = static_cast<unsigned>(args.get("threads", 4));
  const unsigned sym = code.field().symbol_bytes();
  const Matrix& h = code.parity_check();

  std::size_t checked = 0;
  std::size_t undecodable_count = 0;
  std::size_t schedules = 0;
  std::size_t slice_sets = 0;
  std::size_t work_sum = 0;
  std::size_t critical_sum = 0;
  std::size_t placed_sum = 0;      // LPT makespan on --threads lanes
  std::size_t roundrobin_sum = 0;  // Algorithm-1 makespan, same lanes
  std::size_t max_width = 0;
  double best_speedup = 1.0;
  std::size_t opt_naive_sum = 0;      // Σ u(M) over optimized sub-systems
  std::size_t opt_greedy_sum = 0;     // Σ greedy schedule cost, same
  std::size_t opt_optimized_sum = 0;  // Σ proven optimized cost, same
  std::size_t opt_accepted = 0;
  std::size_t opt_rejected = 0;
  std::size_t opt_below_naive = 0;  // schedules strictly under u(M)
  std::string profile_json;  // per-scenario profile (last scenario wins)
  std::vector<planverify::Violation> violations;

  for_each_selected_scenario(code, args, [&](const FailureScenario& sc) {
    ++checked;
    const auto plan = codec.plan_for(sc);
    if (plan == nullptr) {
      ++undecodable_count;
      return;
    }
    const auto take = [&](const hazard::Analysis& a, const char* what) {
      if (!a.ok()) {
        std::fprintf(stderr, "FAIL: scenario [%s] %s: %zu violation(s)\n",
                     scenario_ids(sc).c_str(), what, a.violations.size());
        violations.insert(violations.end(), a.violations.begin(),
                          a.violations.end());
      }
    };

    // 1. The PPM group fan-out: every plan carries its hazard/cost
    //    profile from birth (Codec::build_plan analyzes it once), so read
    //    profile() instead of re-running the analyzer; only a hazardous
    //    plan is re-analyzed, to recover the violation details.
    const PlanProfile& prof = plan->profile();
    if (!prof.hazard_free) take(hazard::analyze_plan(*plan), "plan");
    work_sum += prof.work;
    critical_sum += prof.critical_path;
    max_width = std::max(max_width, prof.max_width);
    best_speedup = std::max(best_speedup, prof.speedup_bound());

    // Placement the executor would run on --threads lanes, vs. the
    // Algorithm-1 baseline — both in exact mult_XOR units (group-phase
    // makespan + the rest tail that follows every lane).
    std::vector<std::size_t> group_work;
    group_work.reserve(plan->p());
    for (const SubPlan& sub : plan->groups()) {
      group_work.push_back(sub.cost());
    }
    const std::size_t rest_cost =
        plan->rest().has_value() ? plan->rest()->cost() : 0;
    const std::size_t placed =
        hazard::place_lpt(group_work, threads).makespan + rest_cost;
    const std::size_t roundrobin =
        hazard::place_round_robin(group_work, threads).makespan + rest_cost;
    placed_sum += placed;
    roundrobin_sum += roundrobin;

    // 2. Every binary sub-system's XOR schedule, as a parallel program.
    const auto check_schedule = [&](const SubPlan& sub) {
      const Matrix& applied =
          sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
      const auto sched = plan_xor_schedule(applied);
      if (!sched.has_value()) return;  // non-binary system: no XOR schedule
      ++schedules;
      take(hazard::analyze_schedule(*sched, applied), "xor schedule");
      if (!optimize) return;
      // Superoptimize and re-prove from the CLI's side — independent of
      // the gate inside xoropt::optimize, so a bug in the accept path
      // cannot certify its own output.
      const auto result = xoropt::optimize(applied, *sched);
      opt_naive_sum += sched->naive_ops;
      opt_greedy_sum += sched->cost();
      opt_optimized_sum += result.schedule.cost();
      opt_accepted += result.stats.rewrites_accepted;
      opt_rejected += result.stats.rewrites_rejected;
      if (result.schedule.cost() < result.schedule.naive_ops) {
        ++opt_below_naive;
      }
      const auto proof = xoropt::prove(applied, result.schedule);
      if (!proof.empty()) {
        std::fprintf(stderr,
                     "FAIL: scenario [%s] optimized xor schedule: "
                     "%zu violation(s)\n",
                     scenario_ids(sc).c_str(), proof.size());
        violations.insert(violations.end(), proof.begin(), proof.end());
      }
    };
    for (const SubPlan& sub : plan->groups()) check_schedule(sub);
    if (plan->rest().has_value()) check_schedule(*plan->rest());

    // 3. The slice geometry BlockParallelDecoder would fan out.
    std::vector<std::size_t> all_rows(h.rows());
    std::iota(all_rows.begin(), all_rows.end(), 0);
    const auto whole = SubPlan::make(h, all_rows, sc.faulty(), sc.faulty(),
                                     Sequence::kMatrixFirst);
    if (whole.has_value()) {
      ++slice_sets;
      const auto ranges = plan_slices(block, sym, threads);
      take(hazard::analyze_slices(*whole, ranges, block, sym), "slices");
    }

    std::string widths;
    for (const std::size_t w : prof.level_width) {
      widths += (widths.empty() ? "" : ",") + std::to_string(w);
    }
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"scenario\":[%s],\"units\":%zu,"
                  "\"work_mult_xors\":%zu,\"critical_path_mult_xors\":%zu,"
                  "\"level_width\":[%s],\"max_width\":%zu,"
                  "\"max_speedup_bound\":%.4f,\"lanes\":%u,"
                  "\"placed_makespan_mult_xors\":%zu,"
                  "\"roundrobin_makespan_mult_xors\":%zu}",
                  scenario_ids(sc).c_str(),
                  prof.level_width.empty()
                      ? std::size_t{0}
                      : std::accumulate(prof.level_width.begin(),
                                        prof.level_width.end(),
                                        std::size_t{0}),
                  prof.work, prof.critical_path, widths.c_str(),
                  prof.max_width, prof.speedup_bound(), threads, placed,
                  roundrobin);
    profile_json = buf;
    if (!args.flags.contains("sweep")) {
      std::fprintf(stderr,
                   "scenario [%s]: work=%zu critical_path=%zu "
                   "width=%zu speedup<=%.2f placed=%zu roundrobin=%zu "
                   "(T=%u)\n",
                   scenario_ids(sc).c_str(), prof.work, prof.critical_path,
                   prof.max_width, prof.speedup_bound(), placed, roundrobin,
                   threads);
    }
  });

  std::fprintf(stderr,
               "%s: %zu scenario(s) analyzed (%zu undecodable skipped), "
               "%zu XOR schedule(s), %zu slice fan-out(s)\n",
               code.name().c_str(), checked - undecodable_count,
               undecodable_count, schedules, slice_sets);
  if (optimize) {
    std::fprintf(stderr,
                 "xoropt: naive=%zu greedy=%zu optimized=%zu accepted=%zu "
                 "rejected=%zu below_naive=%zu\n",
                 opt_naive_sum, opt_greedy_sum, opt_optimized_sum,
                 opt_accepted, opt_rejected, opt_below_naive);
  }
  if (!violations.empty()) {
    std::printf("%s\n", planverify::to_json(violations).c_str());
    std::fprintf(stderr, "FAIL: %zu violation(s)\n", violations.size());
    return 1;
  }
  if (checked == undecodable_count && checked > 0 &&
      !args.flags.contains("sweep")) {
    std::fprintf(stderr, "FAIL: scenario undecodable\n");
    return 2;
  }
  if (args.flags.contains("sweep")) {
    std::string xoropt_json;
    if (optimize) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    ",\"xoropt\":{\"naive_ops\":%zu,\"greedy_ops\":%zu,"
                    "\"optimized_ops\":%zu,\"accepted\":%zu,"
                    "\"rejected\":%zu,\"below_naive\":%zu}",
                    opt_naive_sum, opt_greedy_sum, opt_optimized_sum,
                    opt_accepted, opt_rejected, opt_below_naive);
      xoropt_json = buf;
    }
    std::printf("{\"scenarios\":%zu,\"undecodable\":%zu,\"schedules\":%zu,"
                "\"work_mult_xors\":%zu,\"critical_path_mult_xors\":%zu,"
                "\"max_width\":%zu,\"best_speedup_bound\":%.4f,"
                "\"lanes\":%u,\"placed_makespan_mult_xors\":%zu,"
                "\"roundrobin_makespan_mult_xors\":%zu%s}\n",
                checked, undecodable_count, schedules, work_sum, critical_sum,
                max_width, best_speedup, threads, placed_sum, roundrobin_sum,
                xoropt_json.c_str());
  } else if (!profile_json.empty()) {
    std::printf("%s\n", profile_json.c_str());
  }
  std::fprintf(stderr, "PASS: hazard-free\n");
  return 0;
}

// Seeded chaos campaign against the resilient decode pipeline
// (docs/ROBUSTNESS.md):
//
//   ppm_cli chaos --code <family> [params] [--sweep N|--scenario 1,5]
//           [--seed S] [--rounds R] [--permanent P] [--transient P]
//           [--corrupt P] [--straggle P] [--retries N]
//
// For every selected scenario, `--rounds` independent fault campaigns are
// rolled from the seed (probabilities are percentages per survivor block)
// and decode_resilient runs against the faulted source with per-block CRC
// digests. Every run is then checked against an independent expectation:
//
//   * if the scenario plus every permanently unreadable survivor is still
//     decodable, the run must end complete and byte-identical;
//   * any incomplete run's recovered set must equal exactly the
//     independent O1 groups (and, when all groups solved, H_rest) whose
//     survivors are readable, and those blocks must be byte-identical.
//
// Outcome histogram JSON on stdout; exit 1 on any expectation failure.
// Deterministic from --seed: rerunning reproduces every fault and every
// outcome bit-for-bit.
int cmd_chaos(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 4096);
  const std::size_t rounds = args.get("rounds", 3);
  const std::size_t retries = args.get("retries", 3);
  io::FaultInjectingSource::CampaignOptions campaign;
  campaign.fail_permanent =
      static_cast<double>(args.get("permanent", 8)) / 100.0;
  campaign.fail_transient =
      static_cast<double>(args.get("transient", 12)) / 100.0;
  campaign.corrupt = static_cast<double>(args.get("corrupt", 8)) / 100.0;
  campaign.delay = static_cast<double>(args.get("straggle", 0)) / 100.0;
  campaign.delay_ns = std::chrono::microseconds{100};

  // One reference stripe: encode once, snapshot, digest per block.
  Stripe stripe(code, block);
  Rng fill_rng(args.get("seed", 1) + 17);
  stripe.fill_data(fill_rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block)) return 1;
  const auto snap = stripe.snapshot();
  const std::size_t total = code.total_blocks();
  std::vector<const std::uint8_t*> backing(total);
  std::vector<std::uint32_t> digests(total);
  for (std::size_t b = 0; b < total; ++b) {
    backing[b] = snap.data() + b * block;
    digests[b] = crc32(backing[b], block);
  }
  const auto restore = [&] {
    for (std::size_t b = 0; b < total; ++b) {
      std::memcpy(stripe.block(b), backing[b], block);
    }
  };

  Codec codec(code);
  ResilienceOptions ropt;
  ropt.max_read_retries = retries;
  Rng rng(args.get("seed", 1));

  std::size_t runs = 0;
  std::size_t complete = 0;
  std::size_t partial = 0;
  std::size_t none = 0;  // incomplete with nothing recovered
  std::size_t verify_failures = 0;
  std::size_t retries_sum = 0;
  std::size_t escalations_sum = 0;
  std::size_t corruption_sum = 0;
  std::size_t failures_injected = 0;
  std::size_t corruptions_injected = 0;

  const auto mirror_partial_expectation =
      [&](const FailureScenario& final_sc,
          const io::FaultInjectingSource& source) {
        // Independent recomputation of what partial recovery must achieve:
        // walk the O1 decomposition of the final faulty set and keep every
        // group whose system is solvable and whose survivors the fault
        // schedule lets through; H_rest joins only once every group did.
        const Matrix& h = code.parity_check();
        const LogTable table = LogTable::build(h, final_sc.faulty());
        const Partition part = make_partition(h, table);
        std::vector<std::size_t> expected;
        const auto readable = [&](std::span<const std::size_t> survivors) {
          for (const std::size_t s : survivors) {
            if (std::binary_search(expected.begin(), expected.end(), s)) {
              continue;  // recovered by an earlier group: in-buffer
            }
            if (source.fault(s).permanently_unreadable(retries)) return false;
          }
          return true;
        };
        for (const IndependentGroup& g : part.groups) {
          const auto sub = SubPlan::make(h, g.rows, g.faulty_cols,
                                         final_sc.faulty(),
                                         Sequence::kMatrixFirst);
          if (!sub.has_value() || !readable(sub->survivors())) continue;
          for (const std::size_t b : g.faulty_cols) {
            expected.insert(
                std::upper_bound(expected.begin(), expected.end(), b), b);
          }
        }
        if (!part.rest_empty() &&
            expected.size() + part.rest_faulty.size() ==
                final_sc.count()) {
          const auto sub = SubPlan::make(h, part.rest_rows, part.rest_faulty,
                                         part.rest_faulty,
                                         Sequence::kMatrixFirst);
          if (sub.has_value() && readable(sub->survivors())) {
            for (const std::size_t b : part.rest_faulty) {
              expected.insert(
                  std::upper_bound(expected.begin(), expected.end(), b), b);
            }
          }
        }
        return expected;
      };

  for_each_selected_scenario(code, args, [&](const FailureScenario& sc) {
    for (std::size_t round = 0; round < rounds; ++round) {
      restore();
      stripe.erase(sc);
      io::MemoryBlockSource inner(backing.data(), total, block);
      io::FaultInjectingSource source(inner);
      const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                            sc.faulty().end());
      source.roll_campaign(campaign, rng, exempt);

      const auto out = codec.decode_resilient(sc, source, stripe.block_ptrs(),
                                              block, ropt, digests);
      ++runs;
      retries_sum += out.retries;
      escalations_sum += out.escalations;
      corruption_sum += out.corruption_detected;
      failures_injected += source.failures_injected();
      corruptions_injected += source.corruptions_injected();

      const auto flag = [&](const char* what) {
        ++verify_failures;
        std::fprintf(stderr, "VERIFY FAIL: scenario [%s] round %zu: %s\n",
                     scenario_ids(sc).c_str(), round, what);
      };

      // Worst-case escalated set: the scenario plus every survivor the
      // schedule makes permanently unreadable under this retry budget.
      std::vector<std::size_t> worst(sc.faulty().begin(), sc.faulty().end());
      for (std::size_t b = 0; b < total; ++b) {
        if (!sc.contains(b) &&
            source.fault(b).permanently_unreadable(retries)) {
          worst.push_back(b);
        }
      }
      const FailureScenario worst_sc(worst);
      const bool worst_decodable =
          worst_sc.count() <= code.check_rows() &&
          codec.plan_for(worst_sc) != nullptr;

      if (out.complete) {
        ++complete;
        if (!stripe.equals(snap)) flag("complete but not byte-identical");
        const auto final_faulty = out.final_scenario.faulty();
        if (out.recovered !=
            std::vector<std::size_t>(final_faulty.begin(),
                                     final_faulty.end())) {
          flag("complete but recovered != final faulty set");
        }
      } else {
        if (worst_decodable) {
          flag("within-capability scenario did not recover completely");
        }
        const auto expected =
            mirror_partial_expectation(out.final_scenario, source);
        if (out.recovered != expected) {
          flag("recovered set != independent groups with intact inputs");
        }
        if (!stripe.blocks_equal(snap, out.recovered)) {
          flag("partially recovered blocks not byte-identical");
        }
        ++(out.recovered.empty() ? none : partial);
      }
    }
  });

  std::fprintf(stderr,
               "%s: %zu chaos run(s): %zu complete, %zu partial, %zu "
               "unrecovered, %zu verify failure(s)\n",
               code.name().c_str(), runs, complete, partial, none,
               verify_failures);
  std::printf(
      "{\"code\":\"%s\",\"runs\":%zu,\"outcomes\":{\"complete\":%zu,"
      "\"partial\":%zu,\"none\":%zu},\"verify_failures\":%zu,"
      "\"retries\":%zu,\"escalations\":%zu,\"corruption_detected\":%zu,"
      "\"injected\":{\"read_failures\":%zu,\"corruptions\":%zu}}\n",
      code.name().c_str(), runs, complete, partial, none, verify_failures,
      retries_sum, escalations_sum, corruption_sum, failures_injected,
      corruptions_injected);
  return verify_failures == 0 ? 0 : 1;
}

// Serving campaign (docs/SERVING.md): drive the DecodeServer +
// decode_overlapped front end over the selected scenarios in three
// phases — clean source, seeded transient stragglers with hedging, and
// (--serial 1) the serial decode_resilient baseline on the *same*
// straggler schedules — verifying byte-identity on every request and
// reporting per-phase latency histograms (p50/p99/p999) plus hedge,
// fallback and overlap counters as one JSON object on stdout.
//
// CI contract: exits 1 on any verify failure; with --assert-ratio R
// additionally requires hedged p99 <= max(R% of clean p99,
// --assert-floor-us) and, when the serial phase ran, hedged p99 strictly
// below serial p99.
int cmd_serve(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 4096);
  const std::size_t rounds = args.get("rounds", 2);
  const std::size_t per_scenario = std::max<std::size_t>(
      1, args.get("requests", 4));
  const std::size_t retries = args.get("retries", 3);
  const double straggle =
      static_cast<double>(args.get("straggle", 25)) / 100.0;
  const std::chrono::microseconds delay{args.get("delay-us", 3000)};
  const bool run_serial = args.get("serial", 1) != 0;
  const std::size_t assert_ratio = args.get("assert-ratio", 0);  // percent
  const std::size_t assert_floor_us = args.get("assert-floor-us", 2000);
  const std::uint64_t seed = args.get("seed", 1);

  // One reference stripe: encode once, snapshot, digest per block.
  Stripe reference(code, block);
  Rng fill_rng(seed + 17);
  reference.fill_data(fill_rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(reference.block_ptrs(), block)) return 1;
  const auto snap = reference.snapshot();
  const std::size_t total = code.total_blocks();
  std::vector<const std::uint8_t*> backing(total);
  std::vector<std::uint32_t> digests(total);
  for (std::size_t b = 0; b < total; ++b) {
    backing[b] = snap.data() + b * block;
    digests[b] = crc32(backing[b], block);
  }

  std::vector<FailureScenario> scenarios;
  for_each_selected_scenario(
      code, args, [&](const FailureScenario& sc) { scenarios.push_back(sc); });

  Codec codec(code);
  io::FaultInjectingSource::CampaignOptions campaign;
  campaign.delay = straggle;
  campaign.delay_ns = delay;
  campaign.delay_attempts = 1;  // transient stragglers: duplicates are fast

  serve::ServerOptions sopts;
  sopts.queue_depth = args.get("queue", 64);
  sopts.dispatchers = static_cast<unsigned>(args.get("dispatchers", 2));
  sopts.overlap.resilience.max_read_retries = retries;

  struct PhaseStats {
    LatencyHistogram latency;  ///< per-request decode wall time
    std::size_t requests = 0;
    std::size_t rejected = 0;
    std::size_t verify_failures = 0;
    std::size_t fallbacks = 0;
    std::size_t overlapped = 0;  ///< solves started before last read
    std::size_t hedges_launched = 0;
    std::size_t hedges_won = 0;
    std::size_t hedges_wasted = 0;
  };

  const auto flag = [](PhaseStats& st, const char* phase,
                       const FailureScenario& sc, const char* what) {
    ++st.verify_failures;
    std::fprintf(stderr, "VERIFY FAIL: %s phase, scenario [%s]: %s\n", phase,
                 scenario_ids(sc).c_str(), what);
  };

  // One served phase: per scenario and round, `per_scenario` concurrent
  // requests (same plan key — the server batches them) over per-request
  // fault-injecting sources rolled from one seeded stream.
  const auto run_served = [&](bool inject, const char* name, PhaseStats& st,
                              std::uint64_t phase_seed) {
    Rng rng(phase_seed);
    serve::DecodeServer server(codec, sopts);
    for (std::size_t round = 0; round < rounds; ++round) {
      for (const FailureScenario& sc : scenarios) {
        const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                              sc.faulty().end());
        std::vector<std::unique_ptr<Stripe>> stripes;
        std::vector<std::unique_ptr<io::MemoryBlockSource>> inners;
        std::vector<std::unique_ptr<io::FaultInjectingSource>> sources;
        std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
        for (std::size_t k = 0; k < per_scenario; ++k) {
          auto stripe = std::make_unique<Stripe>(code, block);
          for (std::size_t b = 0; b < total; ++b) {
            std::memcpy(stripe->block(b), backing[b], block);
          }
          stripe->erase(sc);
          auto inner = std::make_unique<io::MemoryBlockSource>(
              backing.data(), total, block);
          auto source =
              std::make_unique<io::FaultInjectingSource>(*inner);
          if (inject) source->roll_campaign(campaign, rng, exempt);
          serve::ServeRequest req;
          req.scenario = sc;
          req.source = source.get();
          req.blocks = stripe->block_ptrs();
          req.block_bytes = block;
          req.expected_crc = digests;
          ++st.requests;
          futures.push_back(server.submit(std::move(req)));
          stripes.push_back(std::move(stripe));
          inners.push_back(std::move(inner));
          sources.push_back(std::move(source));
        }
        for (std::size_t k = 0; k < per_scenario; ++k) {
          if (!futures[k].has_value()) {
            ++st.rejected;
            continue;
          }
          const serve::OverlapResult out = futures[k]->get();
          st.latency.record_nanos(static_cast<std::uint64_t>(out.total_ns));
          st.fallbacks += out.fallback ? 1 : 0;
          st.overlapped += out.overlapped ? 1 : 0;
          st.hedges_launched += out.hedges_launched;
          st.hedges_won += out.hedges_won;
          st.hedges_wasted += out.hedges_wasted;
          if (!out.complete) flag(st, name, sc, "request did not complete");
          if (!stripes[k]->equals(snap)) {
            flag(st, name, sc, "decoded stripe not byte-identical");
          }
        }
      }
    }
    server.shutdown();
  };

  // Optional background scrubber (--scrub-rate-kbps): a token-bucket
  // rate-limited Scrubber patrols its own small fleet for the whole
  // campaign, continuously finding and repairing planted corruption.
  // It shares the process (allocator, caches, cores) with the serving
  // path — the p99 ratio gate below then proves a paced scrub does not
  // break the serving SLO.
  const double scrub_rate_kbps =
      static_cast<double>(args.get("scrub-rate-kbps", 0));
  std::vector<std::unique_ptr<Stripe>> scrub_storage;
  std::vector<std::unique_ptr<Stripe>> scrub_scratch;
  std::vector<std::unique_ptr<io::MemoryBlockStore>> scrub_stores;
  std::vector<std::unique_ptr<io::FaultInjectingSource>> scrub_seams;
  std::optional<Codec> scrub_codec;
  std::optional<scrub::Scrubber> scrubber;
  std::atomic<bool> scrub_stop{false};
  std::size_t scrub_cycles = 0;
  std::thread scrub_thread;
  if (scrub_rate_kbps > 0.0) {
    scrub_codec.emplace(code);  // own plan cache: don't pollute serving's
    scrub::ScrubOptions scrub_opt;
    scrub_opt.rate_bytes_per_sec = scrub_rate_kbps * 1024.0;
    scrub_opt.sweep_read_retries = retries;
    scrub_opt.repair.max_read_retries = retries;
    scrubber.emplace(*scrub_codec, scrub_opt);
    for (std::size_t i = 0; i < 2; ++i) {
      auto storage = std::make_unique<Stripe>(code, block);
      for (std::size_t b = 0; b < total; ++b) {
        std::memcpy(storage->block(b), backing[b], block);
      }
      auto store = std::make_unique<io::MemoryBlockStore>(
          storage->block_ptrs(), total, block);
      auto seam = std::make_unique<io::FaultInjectingSource>(*store, *store);
      scrub::ScrubTarget target;
      target.source = seam.get();
      target.writer = seam.get();
      scrub_scratch.push_back(std::make_unique<Stripe>(code, block));
      target.blocks = scrub_scratch.back()->block_ptrs();
      target.expected_crc = digests;
      target.stripe_id = "serve-scrub-" + std::to_string(i);
      scrubber->add_target(std::move(target));
      scrub_storage.push_back(std::move(storage));
      scrub_stores.push_back(std::move(store));
      scrub_seams.push_back(std::move(seam));
    }
    scrub_thread = std::thread([&] {
      std::size_t iter = 0;
      while (!scrub_stop.load(std::memory_order_relaxed)) {
        // Plant a fresh silent corruption each cycle; only this thread
        // touches these seams, so set_fault/run_cycle never race.
        io::FaultSpec rot;
        rot.corrupt = true;
        rot.corrupt_offset = iter % block;
        rot.corrupt_bytes = 4;
        scrub_seams[iter % scrub_seams.size()]->set_fault(iter % total, rot);
        scrubber->run_cycle();
        ++scrub_cycles;
        ++iter;
      }
    });
  }

  PhaseStats clean;
  PhaseStats hedged;
  PhaseStats serial;
  run_served(false, "clean", clean, seed);
  run_served(true, "hedged", hedged, seed + 1000);

  if (run_serial) {
    // The serial baseline replays the hedged phase's exact straggler
    // schedules (same seed stream) through decode_resilient.
    Rng rng(seed + 1000);
    ResilienceOptions ropt;
    ropt.max_read_retries = retries;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (const FailureScenario& sc : scenarios) {
        const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                              sc.faulty().end());
        for (std::size_t k = 0; k < per_scenario; ++k) {
          Stripe stripe(code, block);
          for (std::size_t b = 0; b < total; ++b) {
            std::memcpy(stripe.block(b), backing[b], block);
          }
          stripe.erase(sc);
          io::MemoryBlockSource inner(backing.data(), total, block);
          io::FaultInjectingSource source(inner);
          source.roll_campaign(campaign, rng, exempt);
          ++serial.requests;
          const Timer timer;
          const auto out = codec.decode_resilient(
              sc, source, stripe.block_ptrs(), block, ropt, digests);
          serial.latency.record_nanos(
              static_cast<std::uint64_t>(timer.nanos()));
          if (!out.complete) flag(serial, "serial", sc, "incomplete");
          if (!stripe.equals(snap)) {
            flag(serial, "serial", sc, "decoded stripe not byte-identical");
          }
        }
      }
    }
  }

  if (scrub_thread.joinable()) {
    scrub_stop.store(true, std::memory_order_relaxed);
    scrub_thread.join();
    std::fprintf(stderr,
                 "%s: background scrub: %zu cycle(s) at %.0f KiB/s beside "
                 "the serving campaign\n",
                 code.name().c_str(), scrub_cycles, scrub_rate_kbps);
  }

  const std::size_t verify_failures = clean.verify_failures +
                                      hedged.verify_failures +
                                      serial.verify_failures;
  const auto phase_json = [](std::string& out, const char* name,
                             const PhaseStats& st) {
    out += "\"";
    out += name;
    out += "\":{\"requests\":" + std::to_string(st.requests);
    out += ",\"rejected\":" + std::to_string(st.rejected);
    out += ",\"verify_failures\":" + std::to_string(st.verify_failures);
    out += ",\"fallbacks\":" + std::to_string(st.fallbacks);
    out += ",\"overlapped\":" + std::to_string(st.overlapped);
    out += ",\"hedges\":{\"launched\":" + std::to_string(st.hedges_launched);
    out += ",\"won\":" + std::to_string(st.hedges_won);
    out += ",\"wasted\":" + std::to_string(st.hedges_wasted);
    out += "},\"latency\":";
    st.latency.append_json(out);
    out += "}";
  };
  std::string json = "{\"code\":\"" + code.name() + "\",";
  phase_json(json, "clean", clean);
  json += ",";
  phase_json(json, "hedged", hedged);
  if (run_serial) {
    json += ",";
    phase_json(json, "serial", serial);
  }
  json += ",\"verify_failures\":" + std::to_string(verify_failures) + "}";
  std::printf("%s\n", json.c_str());
  if (args.get("metrics", 0) != 0) {
    std::fprintf(stderr, "%s\n", serve_metrics().to_json().c_str());
  }

  const double clean_p99 = clean.latency.quantile_seconds(0.99);
  const double hedged_p99 = hedged.latency.quantile_seconds(0.99);
  const double serial_p99 = serial.latency.quantile_seconds(0.99);
  std::fprintf(stderr,
               "%s: serve campaign: %zu requests, p99 clean %.3gms hedged "
               "%.3gms serial %.3gms, %zu hedges (%zu won), %zu fallbacks, "
               "%zu verify failure(s)\n",
               code.name().c_str(),
               clean.requests + hedged.requests + serial.requests,
               clean_p99 * 1e3, hedged_p99 * 1e3, serial_p99 * 1e3,
               hedged.hedges_launched, hedged.hedges_won, hedged.fallbacks,
               verify_failures);
  if (verify_failures != 0) return 1;
  if (assert_ratio > 0) {
    const double allowed =
        std::max(clean_p99 * static_cast<double>(assert_ratio) / 100.0,
                 static_cast<double>(assert_floor_us) * 1e-6);
    if (hedged_p99 > allowed) {
      std::fprintf(stderr,
                   "ASSERT FAIL: hedged p99 %.6fs > allowed %.6fs "
                   "(%zu%% of clean p99 %.6fs, floor %zuus)\n",
                   hedged_p99, allowed, assert_ratio, clean_p99,
                   assert_floor_us);
      return 1;
    }
    if (run_serial && hedged_p99 >= serial_p99) {
      std::fprintf(stderr,
                   "ASSERT FAIL: hedged p99 %.6fs does not beat serial "
                   "p99 %.6fs\n",
                   hedged_p99, serial_p99);
      return 1;
    }
  }
  return 0;
}

// Continuous-scrub campaign (docs/ROBUSTNESS.md, "Scrubbing & proactive
// repair"):
//
//   ppm_cli scrub --code <family> [params] [--stripes N] [--block B]
//           [--seed S] [--epochs E] [--permanent P] [--corrupt P]
//           [--rate-kbps K] [--retries N] [--spot-every N]
//           [--dir <journal dir>] [--drill 1] [--metrics 1]
//
// A fleet of --stripes independent stripes sits behind read/write fault
// seams. Latent errors (permanent death, silent corruption; percentages
// per block) *arrive* on a seeded epoch schedule (roll_arrivals); each
// epoch the scrubber sweeps, risk-ranks and repairs, writing repaired
// blocks back through the seam (which heals the fault — the storage is
// actually fixed, not re-detected forever).
//
// The campaign is judged against the schedule alone, like `chaos`:
//   * every scheduled arrival must appear in some sweep's latent set
//     (zero detection misses);
//   * every stripe whose cumulative damage stays within the code's
//     capability at every epoch must end byte-identical to its reference
//     with zero residual damage in a final sweep;
//   * with a journal attached, a closing zero-trust replay must verify
//     every committed claim (zero false "repaired" claims).
// Exit 1 on any miss. Deterministic from --seed.
//
// --drill 1 runs the crash-replay drill instead: plant one latent error,
// crash the repairer between journal intent and commit
// (crash_after_intents), restart with a fresh journal + scrubber, and
// require replay to surface the pending intent with no false claims
// before the re-run repairs and re-verifies cleanly.
int cmd_scrub(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 4096);
  const std::size_t stripes = std::max<std::size_t>(1, args.get("stripes", 6));
  const std::size_t epochs = std::max<std::size_t>(1, args.get("epochs", 4));
  const std::size_t retries = args.get("retries", 3);
  const std::uint64_t seed = args.get("seed", 1);
  const std::string dir = args.get("dir", std::string{});
  const bool drill = args.get("drill", 0) != 0;

  io::FaultInjectingSource::ArrivalOptions arrivals;
  arrivals.fail_permanent =
      static_cast<double>(args.get("permanent", 6)) / 100.0;
  arrivals.corrupt = static_cast<double>(args.get("corrupt", 8)) / 100.0;
  arrivals.epochs = epochs;

  const std::size_t total = code.total_blocks();

  // The fleet: per stripe, mutable storage (the "disks"), a decode
  // scratch stripe, reference snapshot + digests, and the store/fault
  // seam the scrubber patrols through.
  struct Member {
    std::unique_ptr<Stripe> storage;
    std::unique_ptr<Stripe> scratch;
    std::vector<std::uint8_t> snap;
    std::vector<std::uint32_t> digests;
    std::unique_ptr<io::MemoryBlockStore> store;
    std::unique_ptr<io::FaultInjectingSource> seam;
  };
  const TraditionalDecoder trad(code);
  Rng fill_rng(seed + 17);
  std::vector<Member> fleet(stripes);
  for (Member& m : fleet) {
    m.storage = std::make_unique<Stripe>(code, block);
    m.storage->fill_data(fill_rng);
    if (!trad.encode(m.storage->block_ptrs(), block)) return 1;
    m.snap = m.storage->snapshot();
    m.digests.resize(total);
    for (std::size_t b = 0; b < total; ++b) {
      m.digests[b] = crc32(m.storage->block(b), block);
    }
    m.scratch = std::make_unique<Stripe>(code, block);
    m.store = std::make_unique<io::MemoryBlockStore>(
        m.storage->block_ptrs(), total, block);
    m.seam = std::make_unique<io::FaultInjectingSource>(*m.store, *m.store);
  }

  Codec codec(code);
  scrub::ScrubOptions sopt;
  sopt.sweep_read_retries = retries;
  sopt.spot_check_every = args.get("spot-every", 0);
  sopt.rate_bytes_per_sec =
      static_cast<double>(args.get("rate-kbps", 0)) * 1024.0;
  sopt.repair.max_read_retries = retries;

  const auto add_targets = [&](scrub::Scrubber& scrubber) {
    for (std::size_t i = 0; i < stripes; ++i) {
      scrub::ScrubTarget target;
      target.source = fleet[i].seam.get();
      target.writer = fleet[i].seam.get();
      target.blocks = fleet[i].scratch->block_ptrs();
      target.expected_crc = fleet[i].digests;
      target.stripe_id = "stripe-" + std::to_string(i);
      scrubber.add_target(std::move(target));
    }
  };

  std::size_t failures = 0;
  const auto flag = [&](const char* what) {
    ++failures;
    std::fprintf(stderr, "VERIFY FAIL: %s\n", what);
  };
  const auto print_metrics = [&] {
    if (args.get("metrics", 0) != 0) {
      std::fprintf(stderr, "%s\n", scrub_metrics().to_json().c_str());
    }
  };

  if (drill) {
    if (dir.empty()) {
      std::fprintf(stderr, "scrub --drill requires --dir <journal dir>\n");
      return 2;
    }
    // The drill is a self-contained simulation: start from an empty
    // journal so records from an earlier drill cannot be mistaken for
    // this run's crash evidence.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    // Plant one silent corruption, then crash between intent and commit.
    const std::size_t victim = 1 % total;
    io::FaultSpec rot;
    rot.corrupt = true;
    rot.corrupt_offset = 3 % block;
    rot.corrupt_bytes = 8;
    fleet[0].seam->set_fault(victim, rot);
    {
      scrub::ScrubOptions crash_opt = sopt;
      crash_opt.crash_after_intents = 1;
      scrub::RepairJournal wal(dir);
      scrub::Scrubber crasher(codec, crash_opt, &wal);
      add_targets(crasher);
      const scrub::CycleReport cycle = crasher.run_cycle();
      if (cycle.sweep.latent_total == 0) flag("drill: corruption not detected");
      if (!cycle.repair.crashed_for_test) flag("drill: crash hook never fired");
      if (cycle.repair.completed != 0) {
        flag("drill: a repair committed before the crash");
      }
    }
    // "Restart": fresh journal + scrubber over the same fleet. Replay
    // must surface the pending intent, claim nothing repaired, and hand
    // the outstanding damage to the next cycle.
    scrub::RepairJournal wal(dir);
    scrub::Scrubber scrubber(codec, sopt, &wal);
    add_targets(scrubber);
    const scrub::ReplayReport replay = scrubber.replay();
    if (replay.pending_intents == 0) flag("drill: no pending intent found");
    if (replay.false_claims != 0) flag("drill: false repaired claim");
    if (replay.outstanding.empty()) {
      flag("drill: outstanding damage not surfaced");
    }
    const scrub::CycleReport cycle = scrubber.run_cycle();
    if (cycle.repair.completed == 0) {
      flag("drill: post-restart repair did not complete");
    }
    if (!fleet[0].storage->equals(fleet[0].snap)) {
      flag("drill: repaired stripe not byte-identical");
    }
    const scrub::ReplayReport replay2 = scrubber.replay();
    if (replay2.false_claims != 0) flag("drill: committed claim re-verify");
    if (!replay2.outstanding.empty()) flag("drill: damage survived repair");
    std::printf(
        "{\"code\":\"%s\",\"drill\":true,\"pending_intents\":%zu,"
        "\"false_claims\":%zu,\"verified_commits\":%zu,"
        "\"verify_failures\":%zu}\n",
        code.name().c_str(), replay.pending_intents,
        replay.false_claims + replay2.false_claims, replay2.verified_commits,
        failures);
    print_metrics();
    return failures == 0 ? 0 : 1;
  }

  // Roll every stripe's arrival schedule from one seeded stream; the
  // schedule is the oracle everything below is judged against.
  Rng rng(seed);
  for (Member& m : fleet) m.seam->roll_arrivals(arrivals, rng);
  std::size_t scheduled = 0;
  for (const Member& m : fleet) scheduled += m.seam->arrivals().size();

  std::optional<scrub::RepairJournal> journal;
  if (!dir.empty()) {
    // The campaign owns its journal dir: records from an earlier run
    // would be replayed against this run's fleet and judged as stale.
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    journal.emplace(dir);
  }
  scrub::Scrubber scrubber(codec, sopt,
                           journal.has_value() ? &*journal : nullptr);
  add_targets(scrubber);

  std::set<std::pair<std::size_t, std::size_t>> detected;
  std::size_t landed = 0;
  std::size_t repairs_attempted = 0;
  std::size_t repairs_completed = 0;
  std::size_t repairs_partial = 0;
  std::size_t repairs_failed = 0;
  for (std::size_t epoch = 1; epoch <= epochs; ++epoch) {
    for (Member& m : fleet) landed += m.seam->advance_epoch();
    const scrub::CycleReport cycle = scrubber.run_cycle();
    for (const scrub::StripeDamage& damage : cycle.sweep.stripes) {
      for (const std::size_t b : damage.latent) {
        detected.insert({damage.stripe, b});
      }
    }
    repairs_attempted += cycle.repair.attempted;
    repairs_completed += cycle.repair.completed;
    repairs_partial += cycle.repair.partial;
    repairs_failed += cycle.repair.failed;
  }
  const scrub::SweepReport final_sweep = scrubber.sweep();

  // Judge 1: zero detection misses. Every scheduled arrival was
  // installed before its epoch's sweep ran, so it must have been seen.
  std::size_t missed = 0;
  for (std::size_t i = 0; i < stripes; ++i) {
    for (const auto& arrival : fleet[i].seam->arrivals()) {
      if (detected.count({i, arrival.block}) == 0) {
        ++missed;
        std::fprintf(stderr,
                     "VERIFY FAIL: stripe %zu block %zu (epoch %zu) "
                     "was never detected\n",
                     i, arrival.block, arrival.epoch);
        ++failures;
      }
    }
  }

  // Judge 2: schedule-derived repair expectation. Replay the arrival
  // schedule through the capability model: damage accumulates per epoch
  // and clears whenever the cumulative set is decodable (that is what a
  // correct scrub cycle must achieve, since writebacks heal the seam).
  // A stripe that ever exceeds capability is excused from then on —
  // partial recovery there is best-effort.
  for (std::size_t i = 0; i < stripes; ++i) {
    std::vector<std::size_t> active;
    bool excused = false;
    for (std::size_t epoch = 1; epoch <= epochs && !excused; ++epoch) {
      for (const auto& arrival : fleet[i].seam->arrivals()) {
        if (arrival.epoch == epoch) active.push_back(arrival.block);
      }
      const FailureScenario sc(active);
      if (sc.count() <= code.check_rows() &&
          codec.plan_for(sc) != nullptr) {
        active.clear();
      } else if (!sc.empty()) {
        excused = true;
      }
    }
    if (excused) continue;
    if (!fleet[i].storage->equals(fleet[i].snap)) {
      std::fprintf(stderr,
                   "VERIFY FAIL: within-capability stripe %zu not "
                   "byte-identical after repair\n",
                   i);
      ++failures;
    }
    if (!final_sweep.stripes[i].latent.empty()) {
      std::fprintf(stderr,
                   "VERIFY FAIL: stripe %zu has residual damage after "
                   "the campaign\n",
                   i);
      ++failures;
    }
  }

  // Judge 3: with a journal, every committed claim must re-verify.
  std::size_t false_claims = 0;
  std::size_t verified_commits = 0;
  if (journal.has_value()) {
    const scrub::ReplayReport replay = scrubber.replay();
    false_claims = replay.false_claims;
    verified_commits = replay.verified_commits;
    if (false_claims != 0) flag("journal replay found false claims");
  }

  std::fprintf(stderr,
               "%s: scrub campaign: %zu stripe(s) x %zu epoch(s), %zu "
               "arrival(s) (%zu landed), %zu detected, %zu missed, "
               "repairs %zu/%zu complete, %zu verify failure(s)\n",
               code.name().c_str(), stripes, epochs, scheduled, landed,
               detected.size(), missed, repairs_completed, repairs_attempted,
               failures);
  std::printf(
      "{\"code\":\"%s\",\"stripes\":%zu,\"epochs\":%zu,\"arrivals\":%zu,"
      "\"detected\":%zu,\"missed\":%zu,\"repairs\":{\"attempted\":%zu,"
      "\"completed\":%zu,\"partial\":%zu,\"failed\":%zu},"
      "\"journal\":{\"verified_commits\":%zu,\"false_claims\":%zu},"
      "\"rate_limit_waits\":%zu,\"verify_failures\":%zu}\n",
      code.name().c_str(), stripes, epochs, scheduled, detected.size(),
      missed, repairs_attempted, repairs_completed, repairs_partial,
      repairs_failed, verified_commits, false_claims,
      scrubber.bucket().waits(), failures);
  print_metrics();
  return failures == 0 ? 0 : 1;
}

int cmd_selftest(const ErasureCode& code, const Args& args) {
  const std::size_t block = args.get("block", 65536);
  ScenarioGenerator gen(args.get("seed", 1));
  Stripe stripe(code, block);
  Rng rng(args.get("seed", 1) + 2);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(code);
  if (!trad.encode(stripe.block_ptrs(), block)) {
    std::printf("FAIL: encode\n");
    return 1;
  }
  if (!stripe_consistent(code, stripe.block_ptrs(), block)) {
    std::printf("FAIL: syndrome after encode\n");
    return 1;
  }
  const auto snap = stripe.snapshot();
  const PpmDecoder ppm_dec(code);
  for (int wave = 0; wave < 5; ++wave) {
    const FailureScenario sc = make_scenario(code, args, gen);
    stripe.erase(sc);
    const auto res = ppm_dec.decode(sc, stripe.block_ptrs(), block);
    if (!res || !stripe.equals(snap)) {
      std::printf("FAIL: decode wave %d\n", wave);
      return 1;
    }
  }
  std::printf("OK: %s — encode + 5 decode waves verified\n",
              code.name().c_str());
  return 0;
}

// Persistent plan store operations (docs/PLAN_STORE.md):
//
//   store build --dir D [--sweep N|--scenario ...]   plan, verify, persist
//   store ls    --dir D                              list records on disk
//   store check --dir D                              zero-trust re-verify all
//   store gc    --dir D                              drop quarantined + tmp
//
// `check` exits 1 unless every record re-proves sound AND at least one
// record warmed a fresh Codec's plan cache — the CI restart drill.
int cmd_store(const ErasureCode& code, const Args& args) {
  const std::string action = args.subcommand;
  const std::string dir = args.get("dir", std::string{});
  if (dir.empty()) {
    std::fprintf(stderr, "store %s: --dir is required\n", action.c_str());
    return 2;
  }

  if (action == "build") {
    Codec::Options copts;
    copts.cache_capacity = args.get("capacity", 4096);
    Codec codec(code, copts);
    codec.attach_store(dir);
    std::size_t built = 0;
    std::size_t undecodable = 0;
    for_each_selected_scenario(code, args, [&](const FailureScenario& sc) {
      if (codec.plan_for(sc) == nullptr) {
        ++undecodable;
      } else {
        ++built;
      }
    });
    const std::uint64_t stored = codec.metrics().planstore_stores.value();
    std::fprintf(stderr, "%s: %zu plan(s) built (%zu undecodable), %llu "
                 "persisted to %s\n",
                 code.name().c_str(), built, undecodable,
                 static_cast<unsigned long long>(stored), dir.c_str());
    std::printf("{\"built\":%zu,\"undecodable\":%zu,\"stored\":%llu}\n",
                built, undecodable,
                static_cast<unsigned long long>(stored));
    return built > 0 ? 0 : 1;
  }

  if (action == "ls") {
    const planstore::PlanStore store(dir);
    std::size_t records = 0;
    std::size_t quarantined = 0;
    for (const auto& entry : store.list()) {
      std::printf("%10ju  %s%s\n", entry.bytes, entry.filename.c_str(),
                  entry.quarantined ? "  [QUARANTINED]" : "");
      ++(entry.quarantined ? quarantined : records);
    }
    std::fprintf(stderr, "%zu record(s), %zu quarantined\n", records,
                 quarantined);
    return 0;
  }

  if (action == "check") {
    planstore::PlanStore store(dir);
    const auto report = store.check(code);
    // Restart drill: a fresh Codec must be able to warm its cache from
    // what survived the check.
    Codec::Options copts;
    copts.cache_capacity = args.get("capacity", 4096);
    Codec codec(code, copts);
    codec.attach_store(dir);
    const std::size_t warmed = codec.warm();
    const std::uint64_t warm_hits =
        codec.metrics().planstore_warm_hits.value();
    std::printf("{\"checked\":%zu,\"verified\":%zu,\"quarantined\":%zu,"
                "\"warm_hits\":%llu}\n",
                report.checked, report.verified, report.quarantined,
                static_cast<unsigned long long>(warm_hits));
    if (report.checked == 0) {
      std::fprintf(stderr, "FAIL: store has no records for %s\n",
                   code.name().c_str());
      return 1;
    }
    if (report.quarantined > 0 || report.verified != report.checked) {
      std::fprintf(stderr, "FAIL: %zu of %zu record(s) quarantined\n",
                   report.quarantined, report.checked);
      return 1;
    }
    std::fprintf(stderr, "PASS: %zu record(s) re-verified, %zu warmed\n",
                 report.verified, warmed);
    return 0;
  }

  if (action == "gc") {
    planstore::PlanStore store(dir);
    const auto report = store.gc(args.get("keep-quarantined", 0));
    std::printf("{\"removed_quarantined\":%zu,\"removed_tmp\":%zu}\n",
                report.removed_quarantined, report.removed_tmp);
    return 0;
  }

  std::fprintf(stderr, "usage: ppm_cli store {build|ls|check|gc} --dir <d> "
               "[--code ... --sweep N] [--keep-quarantined N]\n");
  return 2;
}

// --- ppm_cli search — coefficient certification & search (search_coeff/).
// Dispatched before make_code: certifying does not require (and must not
// pay for) a full code construction.

coeffsearch::Geometry search_geometry(const Args& args) {
  const std::size_t n = args.get("n", 8);
  const std::size_t r = args.get("r", 16);
  return coeffsearch::Geometry{
      n, r, args.get("m", 2), args.get("s", 2),
      static_cast<unsigned>(args.get("w", SDCode::recommended_width(n, r)))};
}

coeffsearch::CertifyOptions search_certify_options(const Args& args) {
  coeffsearch::CertifyOptions opts;
  opts.exact_class_limit = args.get("exact-limit", opts.exact_class_limit);
  opts.stratified_classes = args.get("classes", opts.stratified_classes);
  opts.plan_budget = args.get("plan-budget", opts.plan_budget);
  opts.optimize_xor = args.get("optimize", 1) != 0;
  opts.allow_deficient = args.get("allow-deficient", 0) != 0;
  opts.threads = static_cast<unsigned>(args.get("threads", 0));
  return opts;
}

std::vector<gf::Element> parse_coeffs(const std::string& csv) {
  std::vector<gf::Element> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t end = csv.find(',', pos);
    if (end == std::string::npos) end = csv.size();
    out.push_back(static_cast<gf::Element>(
        std::strtoull(csv.substr(pos, end - pos).c_str(), nullptr, 10)));
    pos = end + 1;
  }
  return out;
}

void print_search_metrics(const Args& args) {
  if (args.get("metrics", 0) != 0) {
    std::printf("%s\n", search_metrics().to_json().c_str());
  }
}

int cmd_search(const Args& args) {
  const std::string action = args.subcommand;
  const std::string dir = args.get("dir", std::string{});

  if (action == "certify") {
    const coeffsearch::Geometry g = search_geometry(args);
    const std::string csv = args.get("coeffs", std::string{});
    if (csv.empty()) {
      std::fprintf(stderr, "search certify: --coeffs a,b,... is required\n");
      return 2;
    }
    const std::vector<gf::Element> coeffs = parse_coeffs(csv);
    const coeffsearch::CertifyResult res =
        coeffsearch::certify_tuple(g, coeffs, search_certify_options(args));
    if (!res.certified) {
      std::fprintf(stderr, "REFUTED: %s\n", res.reason.c_str());
      std::string reason = res.reason;  // keep the stdout JSON escape-free
      for (char& c : reason)
        if (c == '"' || c == '\\' || c == '\n') c = '\'';
      std::printf("{\"certified\":false,\"reason\":\"%s\"}\n", reason.c_str());
      print_search_metrics(args);
      return 1;
    }
    std::printf("%s\n", res.cert.to_json().c_str());
    std::fprintf(stderr,
                 "CERTIFIED: %llu/%llu canonical classes rank-proven "
                 "(%s), %llu plan-proven, %llu deficient\n",
                 static_cast<unsigned long long>(res.cert.rank_checked),
                 static_cast<unsigned long long>(res.cert.canonical),
                 res.cert.exact ? "exact" : "stratified",
                 static_cast<unsigned long long>(res.cert.plans_proven),
                 static_cast<unsigned long long>(res.cert.deficient_classes));
    if (!dir.empty()) {
      coeffsearch::CertStore store(dir);
      if (!store.put(res.cert)) {
        std::fprintf(stderr, "FAIL: could not persist certificate\n");
        return 1;
      }
      std::fprintf(stderr, "persisted to %s/%s\n", dir.c_str(),
                   coeffsearch::CertStore::record_filename(g).c_str());
    }
    print_search_metrics(args);
    return 0;
  }

  if (action == "best") {
    const coeffsearch::Geometry g = search_geometry(args);
    coeffsearch::SearchOptions opts;
    opts.candidate_budget = args.get("candidates", 512);
    opts.certify_budget = args.get("certify-budget", 4);
    opts.seed = args.get("seed", 0);
    opts.threads = static_cast<unsigned>(args.get("threads", 0));
    opts.certify = search_certify_options(args);
    const coeffsearch::SearchResult res = coeffsearch::search_best(g, opts);
    std::string out = "{\"found\":";
    out += res.found ? "true" : "false";
    out += ",\"candidates\":" + std::to_string(res.candidates_considered);
    out += ",\"rank_pruned\":" + std::to_string(res.rank_pruned);
    out += ",\"certified\":" + std::to_string(res.certified);
    out += ",\"refuted\":" + std::to_string(res.refuted);
    if (res.found) {
      out += ",\"tuple\":[";
      for (std::size_t i = 0; i < res.best.tuple.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(res.best.tuple[i]);
      }
      out += "],\"worst_case\":{\"critical_path\":" +
             std::to_string(res.best.cert.worst_case.critical_path) +
             ",\"work\":" + std::to_string(res.best.cert.worst_case.work) +
             ",\"optimized_ops\":" +
             std::to_string(res.best.cert.worst_case.optimized_ops) +
             "},\"pareto\":" + std::to_string(res.pareto.size());
    }
    out += '}';
    std::printf("%s\n", out.c_str());
    if (!res.found) {
      std::fprintf(stderr, "NO TUPLE FOUND: %s\n", res.reason.c_str());
      print_search_metrics(args);
      return 1;
    }
    std::fprintf(stderr, "best tuple of %llu certified (pareto %zu)\n",
                 static_cast<unsigned long long>(res.certified),
                 res.pareto.size());
    if (!dir.empty()) {
      coeffsearch::CertStore store(dir);
      if (!store.put(res.best.cert)) {
        std::fprintf(stderr, "FAIL: could not persist certificate\n");
        return 1;
      }
      std::fprintf(stderr, "persisted to %s/%s\n", dir.c_str(),
                   coeffsearch::CertStore::record_filename(g).c_str());
    }
    print_search_metrics(args);
    return 0;
  }

  if (dir.empty()) {
    std::fprintf(stderr, "search %s: --dir is required\n", action.c_str());
    return 2;
  }

  if (action == "ls") {
    const coeffsearch::CertStore store(dir);
    std::size_t records = 0;
    std::size_t quarantined = 0;
    for (const auto& entry : store.list()) {
      std::printf("%10ju  %s%s\n", entry.bytes, entry.filename.c_str(),
                  entry.quarantined ? "  [QUARANTINED]" : "");
      ++(entry.quarantined ? quarantined : records);
    }
    std::fprintf(stderr, "%zu record(s), %zu quarantined\n", records,
                 quarantined);
    return 0;
  }

  if (action == "check") {
    coeffsearch::CertStore store(dir);
    const auto report = store.check();
    std::printf("{\"checked\":%zu,\"verified\":%zu,\"quarantined\":%zu}\n",
                report.checked, report.verified, report.quarantined);
    print_search_metrics(args);
    if (report.checked == 0) {
      std::fprintf(stderr, "FAIL: store has no certificates\n");
      return 1;
    }
    if (report.quarantined > 0 || report.verified != report.checked) {
      std::fprintf(stderr, "FAIL: %zu of %zu certificate(s) quarantined\n",
                   report.quarantined, report.checked);
      return 1;
    }
    std::fprintf(stderr, "PASS: %zu certificate(s) re-proven\n",
                 report.verified);
    return 0;
  }

  if (action == "gc") {
    coeffsearch::CertStore store(dir);
    const auto report = store.gc(args.get("keep-quarantined", 0));
    std::printf("{\"removed_quarantined\":%zu,\"removed_tmp\":%zu}\n",
                report.removed_quarantined, report.removed_tmp);
    return 0;
  }

  std::fprintf(stderr,
               "usage: ppm_cli search {certify|best|ls|check|gc} "
               "[--n N --r R --m M --s S --w W] [--coeffs a,b,...] "
               "[--dir <d>] [--candidates N] [--plan-budget N] "
               "[--exact-limit N] [--classes N] [--allow-deficient 1] "
               "[--keep-quarantined N] [--metrics 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.command.empty()) {
    std::fprintf(stderr,
                 "usage: %s {info|costs|bench|batch|selftest|sim|verify|"
                 "analyze|store|chaos|serve|scrub|search} "
                 "--code {sd|pmds|lrc|xorbas|rs|crs|evenodd|rdp|star} "
                 "[params]\n"
                 "       %s store {build|ls|check|gc} --dir <dir> [params]\n"
                 "       %s chaos --code <family> [--sweep N] [--seed S] "
                 "[--rounds R] [--permanent P] [--transient P] [--corrupt P] "
                 "[--straggle P] [--retries N]\n"
                 "       %s serve --code <family> [--sweep N] [--seed S] "
                 "[--rounds R] [--requests N] [--straggle P] [--delay-us U] "
                 "[--serial 0|1] [--assert-ratio P] [--scrub-rate-kbps K]\n"
                 "       %s scrub --code <family> [--stripes N] [--epochs E] "
                 "[--seed S] [--permanent P] [--corrupt P] [--rate-kbps K] "
                 "[--dir <d>] [--drill 1]\n"
                 "       %s search {certify|best|ls|check|gc} "
                 "[--n N --r R --m M --s S --w W] [--coeffs a,b,...] "
                 "[--dir <d>]\n",
                 argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
    return 2;
  }
  try {
    // `search` works on a geometry, not a constructed code — dispatch
    // before make_code so certification costs are only paid once,
    // inside the search pipeline itself.
    if (args.command == "search") return cmd_search(args);
    const auto code = make_code(args);
    if (args.command == "info") return cmd_info(*code);
    if (args.command == "costs") return cmd_costs(*code, args);
    if (args.command == "bench") return cmd_bench(*code, args);
    if (args.command == "batch") return cmd_batch(*code, args);
    if (args.command == "sim") return cmd_sim(*code, args);
    if (args.command == "selftest") return cmd_selftest(*code, args);
    if (args.command == "verify") return cmd_verify(*code, args);
    if (args.command == "analyze") return cmd_analyze(*code, args);
    if (args.command == "store") return cmd_store(*code, args);
    if (args.command == "chaos") return cmd_chaos(*code, args);
    if (args.command == "serve") return cmd_serve(*code, args);
    if (args.command == "scrub") return cmd_scrub(*code, args);
    std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
