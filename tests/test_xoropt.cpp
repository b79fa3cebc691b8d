// Proof-carrying XOR-schedule superoptimizer (optimize_xor/): the pass
// pipeline must only ever accept rewrites that re-prove — symbolic GF(2)
// replay against the original matrix plus hazard re-analysis — and every
// accepted schedule must decode byte-identically to the serial greedy
// one. The oracle gate itself is exercised with hand-built wrong rewrites
// (dropped source, stale temporary, dependency-violating reorder,
// fragmented span), each of which must be rejected with the matching
// structured violation kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <vector>

#include "analyze_hazard/hazard.h"
#include "codec/codec.h"
#include "codes/crs_code.h"
#include "codes/evenodd_code.h"
#include "codes/lrc_code.h"
#include "codes/pmds_code.h"
#include "codes/rdp_code.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "codes/star_code.h"
#include "codes/xorbas_lrc_code.h"
#include "common/crc32.h"
#include "decode/xor_schedule.h"
#include "matrix/solve.h"
#include "optimize_xor/xoropt.h"
#include "plan_store/plan_store.h"
#include "test_util.h"
#include "verify_plan/plan_verify.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

bool has_kind(const std::vector<planverify::Violation>& violations,
              planverify::ViolationKind kind) {
  return std::any_of(violations.begin(), violations.end(),
                     [kind](const planverify::Violation& v) {
                       return v.kind == kind;
                     });
}

// targets = G * sources over GF(2) regions, the obviously-correct way.
std::vector<std::vector<std::uint8_t>> naive_apply(
    const Matrix& g, const std::vector<std::vector<std::uint8_t>>& sources,
    std::size_t bytes) {
  std::vector<std::vector<std::uint8_t>> out(g.rows(),
                                             std::vector<std::uint8_t>(bytes));
  for (std::size_t r = 0; r < g.rows(); ++r) {
    for (std::size_t c = 0; c < g.cols(); ++c) {
      if (g(r, c) == 0) continue;
      for (std::size_t i = 0; i < bytes; ++i) out[r][i] ^= sources[c][i];
    }
  }
  return out;
}

// Run `schedule` (temps-aware) and expect the exact G * sources bytes.
void expect_bytes_exact(const Matrix& g, const XorSchedule& schedule,
                        std::uint64_t seed) {
  const std::size_t bytes = 96;
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> sources(g.cols());
  std::vector<std::uint8_t*> src_ptrs(g.cols());
  for (std::size_t c = 0; c < g.cols(); ++c) {
    sources[c] = test::random_bytes(rng, bytes);
    src_ptrs[c] = sources[c].data();
  }
  std::vector<std::vector<std::uint8_t>> targets(
      g.rows(), std::vector<std::uint8_t>(bytes, 0xEE));
  std::vector<std::uint8_t*> tgt_ptrs(g.rows());
  for (std::size_t r = 0; r < g.rows(); ++r) tgt_ptrs[r] = targets[r].data();
  execute_xor_schedule(schedule, g.rows(), src_ptrs.data(), tgt_ptrs.data(),
                       bytes);
  EXPECT_EQ(targets, naive_apply(g, sources, bytes));
}

// Optimize the greedy schedule of `g` and require: passing proof, cost no
// worse than greedy, honest stats, byte-exact execution.
xoropt::Result optimize_and_check(const Matrix& g, std::uint64_t seed) {
  const auto base = plan_xor_schedule(g);
  EXPECT_TRUE(base.has_value());
  const auto result = xoropt::optimize(g, *base);
  EXPECT_TRUE(xoropt::prove(g, result.schedule).empty());
  EXPECT_LE(result.schedule.cost(), base->cost());
  EXPECT_EQ(result.schedule.naive_ops, base->naive_ops);
  EXPECT_EQ(result.stats.rewrites_accepted + result.stats.rewrites_rejected,
            result.stats.passes);
  EXPECT_EQ(result.stats.ops_saved, base->cost() - result.schedule.cost());
  expect_bytes_exact(g, result.schedule, seed);
  return result;
}

TEST(XorOpt, CseExtractsPairSharedByThreeRows) {
  // Rows 0..2 share columns {0,1}; the greedy planner cannot exploit it
  // (pairwise row differences are as wide as the rows), but one temporary
  // t = c0 ^ c1 turns 9 greedy ops into 2 (def) + 3×2 (reads) = 8.
  const Matrix g(gf::field(8), 3, 5,
                 {1, 1, 1, 0, 0,
                  1, 1, 0, 1, 0,
                  1, 1, 0, 0, 1});
  const auto base = plan_xor_schedule(g);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(base->cost(), 9u);
  const auto result = optimize_and_check(g, 41);
  EXPECT_LT(result.schedule.cost(), base->cost());
  EXPECT_GE(result.schedule.temps, 1u);
  EXPECT_GT(result.stats.rewrites_accepted, 0u);
}

TEST(XorOpt, RandomBinaryMatricesStayByteIdentical) {
  Rng rng(4242);
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t rows = 1 + rng.bounded(10);
    const std::size_t cols = 1 + rng.bounded(18);
    Matrix g(gf::field(8), rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        g(r, c) = rng.bounded(100) < 45 ? 1 : 0;
      }
    }
    optimize_and_check(g, 5000 + static_cast<std::uint64_t>(trial));
  }
}

TEST(XorOpt, CrsDecodeMatrixGoesStrictlyBelowNaive) {
  // The headline case from the paper's cost model: a CRS whole-strip
  // failure's bit-matrix decode. The optimizer must land strictly below
  // u(M) — the floor the naive one-XOR-per-nonzero execution pays.
  const CRSCode code(8, 2, 8);
  std::vector<std::size_t> faulty = code.strip_blocks(3);
  std::sort(faulty.begin(), faulty.end());
  const Matrix& h = code.parity_check();
  const Matrix f_cols = h.select_columns(faulty);
  const auto sel = independent_rows(f_cols);
  ASSERT_TRUE(sel.has_value());
  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < code.total_blocks(); ++c) {
    if (!std::binary_search(faulty.begin(), faulty.end(), c)) {
      survivors.push_back(c);
    }
  }
  const Matrix g = *f_cols.select_rows(*sel).inverse() *
                   h.select_columns(survivors).select_rows(*sel);
  const auto result = optimize_and_check(g, 77);
  EXPECT_LT(result.schedule.cost(), result.schedule.naive_ops);
  EXPECT_GT(result.schedule.saving(), 0.0);
}

// ---------------------------------------------------------------------------
// The oracle gate: hand-built wrong rewrites must be rejected with the
// matching structured violation kind — prove() is what stands between a
// plausible-looking rewrite and a corrupted decode.

TEST(XorOpt, ProveCatchesDroppedSource) {
  const Matrix g(gf::field(8), 1, 3, {1, 1, 1});
  XorSchedule s;
  s.naive_ops = 3;
  // "CSE" that lost a term: target 0 = c0 ^ c1, missing c2.
  s.ops = {{false, 0, 0, true}, {false, 1, 0, false}};
  const auto violations = xoropt::prove(g, s);
  EXPECT_TRUE(has_kind(violations, planverify::ViolationKind::kXorWrongResult));
}

TEST(XorOpt, ProveCatchesStaleTemporaryRead) {
  const Matrix g(gf::field(8), 1, 2, {1, 1});
  XorSchedule s;
  s.naive_ops = 2;
  s.temps = 1;
  // Target 0 reads temporary register 1 BEFORE the temp's definition runs
  // — a rewrite that consumed a value from a stale op ordering.
  s.ops = {{true, 1, 0, true},
           {false, 0, 1, true},
           {false, 1, 1, false}};
  const auto violations = xoropt::prove(g, s);
  EXPECT_TRUE(
      has_kind(violations, planverify::ViolationKind::kXorReadBeforeFinal));
}

TEST(XorOpt, ProveCatchesReorderAcrossDependency) {
  // Serially fine — target 1's from_output read of target 0 happens after
  // target 0's last write — but the UNITS overlap: target 1 starts before
  // target 0 finalizes, so a unit-concurrent executor could observe a
  // partial value. The hazard half of the proof must refuse it.
  const Matrix g(gf::field(8), 2, 2,
                 {1, 1,
                  0, 1});
  XorSchedule s;
  s.naive_ops = 3;
  s.ops = {{false, 0, 0, true},
           {false, 0, 1, true},
           {false, 1, 0, false},
           {true, 0, 1, false}};
  const auto violations = xoropt::prove(g, s);
  EXPECT_TRUE(has_kind(violations,
                       planverify::ViolationKind::kUnorderedFromOutputUse));
}

TEST(XorOpt, ProveCatchesFragmentedTargetSpan) {
  // Two independent targets with interleaved op spans: serially correct,
  // but neither span is a schedulable unit any more. The analyzer must
  // report the structured fragmentation kind, not certify a wrong span.
  const Matrix g(gf::field(8), 2, 3,
                 {1, 1, 0,
                  0, 0, 1});
  XorSchedule s;
  s.naive_ops = 3;
  s.ops = {{false, 0, 0, true},
           {false, 2, 1, true},
           {false, 1, 0, false}};
  const auto violations = xoropt::prove(g, s);
  EXPECT_TRUE(has_kind(violations,
                       planverify::ViolationKind::kXorTargetSpanFragmented));
}

TEST(XorOpt, OptimizedScheduleRunsUnitParallelByteIdentically) {
  // Temp-bearing schedules must also execute correctly through the
  // unit-parallel DAG executor: each temporary is its own unit over a
  // scratch region, and consumers wait on its completion signal.
  const CRSCode code(8, 2, 8);
  std::vector<std::size_t> faulty = code.strip_blocks(2);
  std::sort(faulty.begin(), faulty.end());
  const Matrix& h = code.parity_check();
  const Matrix f_cols = h.select_columns(faulty);
  const auto sel = independent_rows(f_cols);
  ASSERT_TRUE(sel.has_value());
  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < code.total_blocks(); ++c) {
    if (!std::binary_search(faulty.begin(), faulty.end(), c)) {
      survivors.push_back(c);
    }
  }
  const Matrix g = *f_cols.select_rows(*sel).inverse() *
                   h.select_columns(survivors).select_rows(*sel);
  const auto base = plan_xor_schedule(g);
  ASSERT_TRUE(base.has_value());
  const auto result = xoropt::optimize(g, *base);
  ASSERT_GT(result.schedule.temps, 0u);  // the CSE win is the point here
  ASSERT_TRUE(xoropt::prove(g, result.schedule).empty());

  const std::size_t bytes = 256;
  Rng rng(67);
  std::vector<std::vector<std::uint8_t>> sources(g.cols());
  std::vector<std::uint8_t*> src_ptrs(g.cols());
  for (std::size_t c = 0; c < g.cols(); ++c) {
    sources[c] = test::random_bytes(rng, bytes);
    src_ptrs[c] = sources[c].data();
  }
  std::vector<std::vector<std::uint8_t>> targets(
      g.rows(), std::vector<std::uint8_t>(bytes, 0xEE));
  std::vector<std::uint8_t*> tgt_ptrs(g.rows());
  for (std::size_t r = 0; r < g.rows(); ++r) tgt_ptrs[r] = targets[r].data();
  const ParallelXorReport report = execute_xor_schedule_parallel(
      result.schedule, g.rows(), src_ptrs.data(), tgt_ptrs.data(), bytes, 4);
  EXPECT_EQ(targets, naive_apply(g, sources, bytes));
  // Whether the DAG engaged or the provable-safety screen fell back to
  // serial, the bytes above already had to be exact; just pin that the
  // report is coherent.
  if (report.parallel) {
    EXPECT_GE(report.workers, 2u);
  }
}

TEST(XorOpt, TamperedRewritesAreRejectedAndBaseSurvives) {
  const Matrix g(gf::field(8), 3, 5,
                 {1, 1, 1, 0, 0,
                  1, 1, 0, 1, 0,
                  1, 1, 0, 0, 1});
  const auto base = plan_xor_schedule(g);
  ASSERT_TRUE(base.has_value());
  xoropt::Options options;
  // Corrupt every candidate the passes produce: drop the final op. The
  // gate must reject each one and hand back the untouched base schedule.
  options.tamper_for_test = [](XorSchedule& s) {
    if (!s.ops.empty()) s.ops.pop_back();
  };
  const auto result = xoropt::optimize(g, *base, options);
  EXPECT_GT(result.stats.passes, 0u);
  EXPECT_EQ(result.stats.rewrites_accepted, 0u);
  EXPECT_EQ(result.stats.rewrites_rejected, result.stats.passes);
  EXPECT_EQ(result.stats.ops_saved, 0u);
  EXPECT_EQ(result.schedule.cost(), base->cost());
  EXPECT_EQ(result.schedule.temps, base->temps);
  EXPECT_TRUE(xoropt::prove(g, result.schedule).empty());
  expect_bytes_exact(g, result.schedule, 91);
}

// ---------------------------------------------------------------------------
// Nine-family sweep: the optimizer over every binary sub-system the codec
// plans, proof-clean and byte-identical everywhere.

void expect_optimized_subplans_clean(const ErasureCode& code,
                                     bool expect_binary_systems = true) {
  Codec codec(code);
  std::size_t optimized = 0;
  const auto check = [&](const FailureScenario& sc) {
    const auto plan = codec.plan_for(sc);
    if (plan == nullptr) return;  // beyond tolerance
    const auto check_sub = [&](const SubPlan& sub) {
      const Matrix& applied =
          sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
      const auto base = plan_xor_schedule(applied);
      if (!base.has_value()) return;  // non-binary system
      const auto result = xoropt::optimize(applied, *base);
      EXPECT_TRUE(xoropt::prove(applied, result.schedule).empty())
          << code.name();
      EXPECT_LE(result.schedule.cost(), base->cost()) << code.name();
      expect_bytes_exact(applied, result.schedule, 1300 + optimized);
      ++optimized;
    };
    for (const SubPlan& sub : plan->groups()) check_sub(sub);
    if (plan->rest().has_value()) check_sub(*plan->rest());
  };
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    check(FailureScenario({b}));
  }
  // One whole-disk pair, the family's canonical repair case.
  std::vector<std::size_t> faulty;
  for (std::size_t row = 0; row < code.rows(); ++row) {
    faulty.push_back(code.block_id(row, 0));
    faulty.push_back(code.block_id(row, code.disks() / 2));
  }
  check(FailureScenario(faulty));
  // RS over GF(2^8) plans no binary sub-system at all — the sweep is
  // then vacuous (and must stay crash-free); every other family has at
  // least one.
  if (expect_binary_systems) {
    EXPECT_GT(optimized, 0u) << code.name();
  } else {
    EXPECT_EQ(optimized, 0u) << code.name();
  }
}

TEST(XorOptSweep, SD) {
  expect_optimized_subplans_clean(SDCode(6, 8, 2, 2, 8));
}
TEST(XorOptSweep, PMDS) {
  expect_optimized_subplans_clean(PMDSCode(6, 6, 2, 2, 8));
}
TEST(XorOptSweep, LRC) {
  expect_optimized_subplans_clean(LRCCode(12, 3, 2, 8));
}
TEST(XorOptSweep, XorbasLRC) {
  expect_optimized_subplans_clean(XorbasLRCCode(10, 2, 4, 8));
}
TEST(XorOptSweep, RS) {
  expect_optimized_subplans_clean(RSCode(10, 4, 8), false);
}
TEST(XorOptSweep, CRS) { expect_optimized_subplans_clean(CRSCode(6, 3, 8)); }
TEST(XorOptSweep, EvenOdd) {
  expect_optimized_subplans_clean(EvenOddCode(7));
}
TEST(XorOptSweep, RDP) { expect_optimized_subplans_clean(RDPCode(7)); }
TEST(XorOptSweep, Star) { expect_optimized_subplans_clean(StarCode(7)); }

// ---------------------------------------------------------------------------
// Codec integration: the optimize_xor knob attaches proven schedules to
// the plan and surfaces the xoropt metric group.

FailureScenario disk_failure(const ErasureCode& code, std::size_t disk) {
  std::vector<std::size_t> faulty;
  for (std::size_t row = 0; row < code.rows(); ++row) {
    faulty.push_back(code.block_id(row, disk));
  }
  return FailureScenario(faulty);
}

TEST(XorOptCodec, KnobAttachesProvenSchedulesAndCountsMetrics) {
  const CRSCode code(6, 3, 8);
  Codec::Options options;
  options.optimize_xor = true;
  Codec codec(code, options);
  const FailureScenario sc = disk_failure(code, 1);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  ASSERT_FALSE(plan->schedules().empty());
  for (const PlanSchedule& ps : plan->schedules()) {
    ASSERT_LE(ps.sub, plan->groups().size());
    const SubPlan& sub = ps.sub < plan->groups().size()
                             ? plan->groups()[ps.sub]
                             : *plan->rest();
    const Matrix& applied =
        sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
    EXPECT_TRUE(xoropt::prove(applied, ps.schedule).empty());
    expect_bytes_exact(applied, ps.schedule, 1700 + ps.sub);
  }
  const xoropt::Stats& stats = plan->xoropt_stats();
  EXPECT_GT(stats.passes, 0u);
  EXPECT_EQ(stats.rewrites_accepted + stats.rewrites_rejected, stats.passes);
  EXPECT_EQ(codec.metrics().xoropt_passes.value(), stats.passes);
  EXPECT_EQ(codec.metrics().xoropt_rewrites_accepted.value(),
            stats.rewrites_accepted);
  EXPECT_EQ(codec.metrics().xoropt_rewrites_rejected.value(),
            stats.rewrites_rejected);
  EXPECT_EQ(codec.metrics().xoropt_ops_saved.value(), stats.ops_saved);
  EXPECT_NE(codec.metrics_json().find("\"xoropt\":{"), std::string::npos);
}

TEST(XorOptCodec, KnobOffLeavesPlansScheduleFree) {
  const CRSCode code(6, 3, 8);
  Codec codec(code);
  const auto plan = codec.plan_for(disk_failure(code, 1));
  ASSERT_NE(plan, nullptr);
  EXPECT_TRUE(plan->schedules().empty());
  EXPECT_EQ(codec.metrics().xoropt_passes.value(), 0u);
}

// ---------------------------------------------------------------------------
// Plan store: optimized schedules persist through the v2 record format,
// reload only after re-proving, and a record whose schedule no longer
// proves is quarantined — zero trust extends to the optimizer's output.

TEST(XorOptPlanStore, SchedulesRoundTripThroughDisk) {
  const CRSCode code(6, 3, 8);
  const FailureScenario sc = disk_failure(code, 0);
  test::TempDir dir("roundtrip");

  Codec::Options options;
  options.optimize_xor = true;
  std::size_t want_schedules = 0;
  {
    Codec writer(code, options);
    writer.attach_store(dir.path().string());
    const auto plan = writer.plan_for(sc);
    ASSERT_NE(plan, nullptr);
    ASSERT_FALSE(plan->schedules().empty());
    want_schedules = plan->schedules().size();
    ASSERT_EQ(writer.metrics().planstore_stores.value(), 1u);
  }

  // A fresh codec — optimizer knob OFF — warms the optimized schedules
  // straight from disk: the store's re-proof, not the optimizer, is what
  // readmits them.
  Codec reader(code);
  reader.attach_store(dir.path().string());
  const auto loaded = reader.plan_for(sc);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(reader.metrics().planstore_loads.value(), 1u);
  ASSERT_EQ(loaded->schedules().size(), want_schedules);
  for (const PlanSchedule& ps : loaded->schedules()) {
    const SubPlan& sub = ps.sub < loaded->groups().size()
                             ? loaded->groups()[ps.sub]
                             : *loaded->rest();
    const Matrix& applied =
        sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
    EXPECT_TRUE(xoropt::prove(applied, ps.schedule).empty());
  }
}

TEST(XorOptPlanStore, TamperedScheduleIsQuarantinedOnLoad) {
  const CRSCode code(6, 3, 8);
  const FailureScenario sc = disk_failure(code, 0);
  test::TempDir dir("tamper");

  Codec::Options options;
  options.optimize_xor = true;
  Codec writer(code, options);
  writer.attach_store(dir.path().string());
  ASSERT_NE(writer.plan_for(sc), nullptr);

  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(record, std::ios::binary);
    ASSERT_TRUE(in.is_open());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // The schedules section closes the payload; the final op's source field
  // sits 16 bytes from the end. Flip its low byte and re-seal the CRC so
  // the record still PARSES — only the schedule re-proof can catch it.
  ASSERT_GT(bytes.size(), 24u + 17u);
  bytes[bytes.size() - 16] ^= 1;
  const std::uint32_t fresh_crc = crc32(bytes.data() + 24, bytes.size() - 24);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((fresh_crc >> (8 * i)) & 0xFFu);
  }
  {
    std::ofstream out(record, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  planstore::PlanStore store(dir.path());
  std::shared_ptr<const CachedPlan> out;
  std::string why;
  EXPECT_EQ(store.load(code, sc, &out, &why),
            planstore::PlanStore::LoadResult::kRejected);
  EXPECT_NE(why.find("schedule re-proof"), std::string::npos) << why;
  EXPECT_TRUE(fs::exists(record.string() + ".quarantined"));
}

}  // namespace
}  // namespace ppm
