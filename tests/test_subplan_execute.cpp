// SubPlan::execute — the fused multi-destination executor — against a
// symbol-wise reference computed straight from the plan's Matrix entries
// and Field::mul. The oracle deliberately shares no code with the executor
// (TraditionalDecoder runs through the same SubPlan::execute, so a kernel
// bug would cancel out against it). Plans come from SubPlan::from_parts
// with random matrices: zero columns, zero entries, all-zero rows, up to
// 130 sources and more unknowns than one kernel batch holds. CI runs this
// suite once per PPM_FORCE_ISA value, so every kernel family is covered.
#include <gtest/gtest.h>

#include <cstring>
#include <latch>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "codec/codec.h"
#include "codes/sd_code.h"
#include "common/rng.h"
#include "decode/plan.h"
#include "gf/galois_field.h"
#include "parallel/thread_pool.h"
#include "test_util.h"
#include "workload/scenario_gen.h"
#include "workload/stripe.h"

namespace ppm {
namespace {

using gf::Element;

// Random f×cols matrix: about a quarter of the entries zero (dense enough
// that rows fuse into multi-row kernel batches), every fifth column
// zero, and row `zero_row` (if < f) all zero.
Matrix random_matrix(const gf::Field& fld, std::size_t f, std::size_t cols,
                     Rng& rng, std::size_t zero_row) {
  Matrix m(fld, f, cols);
  for (std::size_t r = 0; r < f; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r == zero_row || c % 5 == 4 || (rng.next() & 3) == 0) continue;
      m(r, c) = static_cast<Element>(rng.next()) & fld.max_element();
    }
  }
  return m;
}

std::size_t nonzero_columns(const Matrix& m) {
  std::size_t n = 0;
  for (std::size_t c = 0; c < m.cols(); ++c) n += !m.column_is_zero(c);
  return n;
}

// Unknowns are block ids 0..f-1, survivors f..f+cols-1. For kNormal, `a`
// is F⁻¹ (f×f) and `b` is S (f×cols); for kMatrixFirst, `a` is G.
SubPlan plan_from(const gf::Field& fld, Sequence seq, Matrix a, Matrix b) {
  const std::size_t f = a.rows();
  const std::size_t cols = seq == Sequence::kNormal ? b.cols() : a.cols();
  std::vector<std::size_t> unknowns(f);
  std::iota(unknowns.begin(), unknowns.end(), 0);
  std::vector<std::size_t> survivors(cols);
  std::iota(survivors.begin(), survivors.end(), f);
  const std::size_t cost = a.nonzeros() + b.nonzeros();
  const std::size_t reads =
      nonzero_columns(seq == Sequence::kNormal ? b : a);
  return SubPlan::from_parts(fld, seq, std::move(unknowns),
                             std::move(survivors), {}, std::move(a),
                             std::move(b), cost, reads);
}

SubPlan random_plan(const gf::Field& fld, Sequence seq, std::size_t f,
                    std::size_t cols, Rng& rng, std::size_t zero_row) {
  if (seq == Sequence::kMatrixFirst) {
    return plan_from(fld, seq, random_matrix(fld, f, cols, rng, zero_row),
                     Matrix(fld, 0, 0));
  }
  // F⁻¹ gets the zero row (an all-zero output); S keeps its zero columns.
  return plan_from(fld, seq, random_matrix(fld, f, f, rng, zero_row),
                   random_matrix(fld, f, cols, rng, f));
}

// One set of block regions, each at a different whole-symbol offset from a
// 64-byte boundary so no kernel can rely on aligned base pointers.
class Blocks {
 public:
  Blocks(std::size_t count, std::size_t bytes, unsigned sym, Rng& rng)
      : storage_(count), ptrs_(count) {
    for (std::size_t i = 0; i < count; ++i) {
      storage_[i].resize(bytes + 128);
      rng.fill(storage_[i].data(), storage_[i].size());
      auto base = reinterpret_cast<std::uintptr_t>(storage_[i].data());
      base = (base + 63) & ~std::uintptr_t{63};
      ptrs_[i] = reinterpret_cast<std::uint8_t*>(base) + sym * (i % 7 + 1);
    }
  }
  std::uint8_t* const* ptrs() const { return ptrs_.data(); }

 private:
  std::vector<std::vector<std::uint8_t>> storage_;
  std::vector<std::uint8_t*> ptrs_;
};

Element load_symbol(const std::uint8_t* p, unsigned sym) {
  Element v = 0;
  for (unsigned b = 0; b < sym; ++b) v |= Element{p[b]} << (8 * b);
  return v;
}

// rows × cols matrix applied to `in` (one symbol array per column).
std::vector<std::vector<Element>> apply_matrix(
    const Matrix& m,
                                        const std::vector<std::vector<Element>>& in) {
  const gf::Field& fld = m.field();
  const std::size_t n = in.empty() ? 0 : in[0].size();
  std::vector<std::vector<Element>> out(m.rows(), std::vector<Element>(n, 0));
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const Element coeff = m(r, c);
      if (coeff == 0) continue;
      for (std::size_t x = 0; x < n; ++x) out[r][x] ^= fld.mul(coeff, in[c][x]);
    }
  }
  return out;
}

// The reference: expected symbols of every unknown, from the matrices.
std::vector<std::vector<Element>> reference(const SubPlan& plan,
                                            std::uint8_t* const* blocks,
                                            std::size_t bytes) {
  const gf::Field& fld = plan.finv().field();
  const unsigned sym = fld.symbol_bytes();
  std::vector<std::vector<Element>> src;
  for (const std::size_t s : plan.survivors()) {
    std::vector<Element> v(bytes / sym);
    for (std::size_t x = 0; x < v.size(); ++x) {
      v[x] = load_symbol(blocks[s] + x * sym, sym);
    }
    src.push_back(std::move(v));
  }
  if (plan.sequence() == Sequence::kMatrixFirst) return apply_matrix(plan.finv(), src);
  return apply_matrix(plan.finv(), apply_matrix(plan.s(), src));
}

// Execute and compare every unknown, symbol by symbol; also checks the
// DecodeStats the executor reports.
void expect_matches(const SubPlan& plan, std::uint8_t* const* blocks,
                    std::size_t bytes, const std::string& what) {
  const auto expect = reference(plan, blocks, bytes);
  DecodeStats stats;
  plan.execute(blocks, bytes, &stats);
  const unsigned sym = plan.finv().field().symbol_bytes();
  for (std::size_t i = 0; i < plan.unknowns().size(); ++i) {
    const std::uint8_t* out = blocks[plan.unknowns()[i]];
    for (std::size_t x = 0; x < bytes / sym; ++x) {
      ASSERT_EQ(load_symbol(out + x * sym, sym), expect[i][x])
          << what << " unknown=" << i << " symbol=" << x;
    }
  }
  EXPECT_EQ(stats.mult_xors, plan.cost()) << what;
  EXPECT_EQ(stats.bytes_touched, plan.cost() * bytes) << what;
  EXPECT_EQ(stats.blocks_read, plan.source_blocks()) << what;
}

class SubPlanExecuteTest
    : public ::testing::TestWithParam<std::tuple<unsigned, Sequence>> {
 protected:
  const gf::Field& fld() const { return gf::field(std::get<0>(GetParam())); }
  Sequence seq() const { return std::get<1>(GetParam()); }
  unsigned sym() const { return fld().symbol_bytes(); }
};

TEST_P(SubPlanExecuteTest, RandomShapesAcrossBlockSizes) {
  // f from one row to past R + 3 and to 20; sources up to 130.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 9},   {2, 6},  {3, 14}, {4, 124}, {5, 33},
      {6, 2}, {7, 40},  {8, 17}, {9, 130}, {20, 24}};
  Rng rng(100 + std::get<0>(GetParam()));
  for (const auto& [f, cols] : shapes) {
    for (const std::size_t bytes :
         {std::size_t{sym()}, std::size_t{60}, std::size_t{64},
          std::size_t{4096}, std::size_t{4100}}) {
      const SubPlan plan = random_plan(fld(), seq(), f, cols, rng, f / 2);
      Blocks blocks(f + cols, bytes, sym(), rng);
      expect_matches(plan, blocks.ptrs(), bytes,
                     "f=" + std::to_string(f) + " cols=" +
                         std::to_string(cols) + " bytes=" +
                         std::to_string(bytes));
    }
  }
}

TEST_P(SubPlanExecuteTest, LargeBlockSpansManyTiles) {
  Rng rng(200 + std::get<0>(GetParam()));
  const std::size_t bytes = 65536 + sym();
  for (const auto& [f, cols] :
       {std::pair<std::size_t, std::size_t>{2, 6}, {5, 12}}) {
    const SubPlan plan = random_plan(fld(), seq(), f, cols, rng, f);
    Blocks blocks(f + cols, bytes, sym(), rng);
    expect_matches(plan, blocks.ptrs(), bytes, "f=" + std::to_string(f));
  }
}

TEST_P(SubPlanExecuteTest, AllZeroMatrixWritesZeros) {
  Rng rng(300);
  const std::size_t f = 6;
  const std::size_t cols = 5;
  const SubPlan plan =
      seq() == Sequence::kMatrixFirst
          ? plan_from(fld(), seq(), Matrix(fld(), f, cols), Matrix(fld(), 0, 0))
          : plan_from(fld(), seq(), random_matrix(fld(), f, f, rng, f),
                      Matrix(fld(), f, cols));
  Blocks blocks(f + cols, 200, sym(), rng);
  expect_matches(plan, blocks.ptrs(), 200, "zero");
}

INSTANTIATE_TEST_SUITE_P(
    Widths, SubPlanExecuteTest,
    ::testing::Combine(::testing::Values(8u, 16u, 32u),
                       ::testing::Values(Sequence::kNormal,
                                         Sequence::kMatrixFirst)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Sequence::kNormal ? "Normal"
                                                           : "MatrixFirst");
    });

TEST(SubPlanExecuteExhaustiveTest, EveryW8CoefficientInOneByOnePlans) {
  const gf::Field& fld = gf::field(8);
  Rng rng(400);
  for (Element c = 0; c < 256; ++c) {
    Matrix g(fld, 1, 1);
    g(0, 0) = c;
    Matrix finv(fld, 1, 1);
    finv(0, 0) = 255 - c;
    Blocks blocks(2, 200, 1, rng);
    expect_matches(plan_from(fld, Sequence::kMatrixFirst, g,
                             Matrix(fld, 0, 0)),
                   blocks.ptrs(), 200, "mf c=" + std::to_string(c));
    expect_matches(plan_from(fld, Sequence::kNormal, finv, g), blocks.ptrs(),
                   200, "normal c=" + std::to_string(c));
  }
}

TEST(SubPlanExecuteExhaustiveTest, EveryW8CoefficientInTwoByTwoPlans) {
  // Each of the four entry positions takes every value 0..255.
  const gf::Field& fld = gf::field(8);
  Rng rng(401);
  for (Element c = 0; c < 256; ++c) {
    Matrix m(fld, 2, 2);
    m(0, 0) = c;
    m(0, 1) = c ^ 0x5A;
    m(1, 0) = 255 - c;
    m(1, 1) = (c * 7 + 3) & 255;
    Blocks blocks(4, 130, 1, rng);
    expect_matches(plan_from(fld, Sequence::kMatrixFirst, m,
                             Matrix(fld, 0, 0)),
                   blocks.ptrs(), 130, "mf c=" + std::to_string(c));
    expect_matches(plan_from(fld, Sequence::kNormal, m, m), blocks.ptrs(), 130,
                   "normal c=" + std::to_string(c));
  }
}

TEST(SubPlanExecuteStatsTest, SdRebuildPlanKeepsItsCountsAndBytes) {
  // The SD(8,16,2,2) worst-case plan of the rebuild benchmark: 15 groups
  // of 2×6 plus a normal-sequence rest, 452 mult_XORs per stripe. Both
  // stripe executors — tile-interleaved serial and lane-placed — must
  // restore the encoded stripe and report the same counts. The block spans
  // several tiles plus a partial one.
  const SDCode code(8, 16, 2, 2, 8);
  ScenarioGenerator gen(7);
  const FailureScenario sc = gen.sd_worst_case(code, 2, 2, 1).scenario;
  Codec codec(code);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->cost(), 452u);
  std::size_t reads = 0;
  for (const SubPlan& g : plan->groups()) reads += g.source_blocks();
  if (plan->rest().has_value()) reads += plan->rest()->source_blocks();

  const std::size_t block = 2 * SubPlan::kTileBytes + 64;
  Stripe stripe(code, block);
  const auto snap = test::fill_and_encode(code, stripe, 5);
  ThreadPool pool(4);
  for (const bool placed : {false, true}) {
    stripe.erase(sc);
    DecodeStats stats;
    if (placed) {
      EXPECT_TRUE(plan->execute_placed(stripe.block_ptrs(), block, pool, 4,
                                       &stats));
    } else {
      plan->execute(stripe.block_ptrs(), block, &stats);
    }
    EXPECT_EQ(stripe.snapshot(), snap) << "placed=" << placed;
    EXPECT_EQ(stats.mult_xors, 452u);
    EXPECT_EQ(stats.bytes_touched, 452u * block);
    EXPECT_EQ(stats.blocks_read, reads);
  }
}

TEST(SubPlanExecuteConcurrencyTest, EightThreadsShareOneFreshPlan) {
  // The plan's prepared tables are built by whichever execute comes first
  // and published once; every thread must see complete tables.
  const gf::Field& fld = gf::field(8);
  Rng rng(500);
  for (const Sequence seq : {Sequence::kNormal, Sequence::kMatrixFirst}) {
    const std::size_t f = 6;
    const std::size_t cols = 40;
    const std::size_t bytes = 4100;
    const SubPlan plan = random_plan(fld, seq, f, cols, rng, f);
    constexpr int kThreads = 8;
    std::vector<Blocks> sets;
    for (int t = 0; t < kThreads; ++t) sets.emplace_back(f + cols, bytes, 1, rng);
    std::vector<std::vector<std::vector<Element>>> expect;
    for (const Blocks& b : sets) expect.push_back(reference(plan, b.ptrs(), bytes));

    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        plan.execute(sets[t].ptrs(), bytes);
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < f; ++i) {
        const std::uint8_t* out = sets[t].ptrs()[i];
        for (std::size_t x = 0; x < bytes; ++x) {
          ASSERT_EQ(out[x], expect[t][i][x]) << "thread " << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppm
