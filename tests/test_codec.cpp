// Codec facade: plan caching and batch decode.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "codec/codec.h"
#include "test_util.h"

namespace ppm {
namespace {

TEST(Codec, DecodeMatchesPpmDecoder) {
  const SDCode code(8, 8, 2, 2, 8);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 540);
  ScenarioGenerator gen(541);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  stripe.erase(g.scenario);
  Codec codec(code);
  DecodeStats stats;
  ASSERT_TRUE(codec.decode(g.scenario, stripe.block_ptrs(), 512, &stats));
  EXPECT_TRUE(stripe.equals(snap));
  // Cached plan realizes PPM's cost.
  const auto costs = analyze_costs(code, g.scenario);
  ASSERT_TRUE(costs.has_value());
  EXPECT_EQ(stats.mult_xors, costs->ppm_best());
}

TEST(Codec, PlanIsCachedAcrossDecodes) {
  const SDCode code(8, 8, 2, 2, 8);
  Codec codec(code);
  ScenarioGenerator gen(542);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Stripe stripe(code, 256);
  const auto snap = test::fill_and_encode(code, stripe, 543);
  for (int i = 0; i < 5; ++i) {
    stripe.erase(g.scenario);
    ASSERT_TRUE(codec.decode(g.scenario, stripe.block_ptrs(), 256));
  }
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(codec.cache_misses(), 1u);
  EXPECT_EQ(codec.cache_hits(), 4u);
  EXPECT_EQ(codec.cache_size(), 1u);
}

TEST(Codec, CacheEvictsLruAtCapacity) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Codec::Options opts;
  opts.cache_capacity = 2;
  opts.cache_shards = 1;  // single shard: deterministic global LRU order
  Codec codec(code, opts);
  for (const std::size_t b : {0u, 1u}) {
    EXPECT_NE(codec.plan_for(FailureScenario({b})), nullptr);
  }
  // Touch {0}: {1} becomes the LRU victim of the next insert.
  EXPECT_NE(codec.plan_for(FailureScenario({0})), nullptr);
  EXPECT_EQ(codec.cache_hits(), 1u);
  EXPECT_NE(codec.plan_for(FailureScenario({2})), nullptr);
  EXPECT_EQ(codec.cache_size(), 2u);
  EXPECT_EQ(codec.cache_evictions(), 1u);
  // {0} survived (recently used); {1} was evicted, re-planning it misses.
  const std::size_t misses = codec.cache_misses();
  EXPECT_NE(codec.plan_for(FailureScenario({0})), nullptr);
  EXPECT_EQ(codec.cache_misses(), misses);
  EXPECT_NE(codec.plan_for(FailureScenario({1})), nullptr);
  EXPECT_EQ(codec.cache_misses(), misses + 1);
}

TEST(Codec, CacheChurnKeepsBookkeepingConsistent) {
  // Evicted-then-reinserted scenarios must not corrupt the eviction order
  // (the old FIFO vector accumulated duplicate keys under this pattern).
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Codec::Options opts;
  opts.cache_capacity = 2;
  opts.cache_shards = 1;
  Codec codec(code, opts);
  for (int round = 0; round < 6; ++round) {
    for (const std::size_t b : {0u, 1u, 2u, 3u}) {
      ASSERT_NE(codec.plan_for(FailureScenario({b})), nullptr);
      ASSERT_LE(codec.cache_size(), 2u);
    }
  }
  EXPECT_EQ(codec.cache_hits() + codec.cache_misses(), 24u);
  // Every miss inserted a plan; all but the residents were evicted.
  EXPECT_EQ(codec.cache_evictions(),
            codec.cache_misses() - codec.cache_size());
  // A plan held by a caller survives eviction (shared_ptr pins it).
  const auto pinned = codec.plan_for(FailureScenario({0}));
  ASSERT_NE(pinned, nullptr);
  for (const std::size_t b : {1u, 2u, 3u}) {
    ASSERT_NE(codec.plan_for(FailureScenario({b})), nullptr);
  }
  EXPECT_GT(pinned->cost(), 0u);  // still valid after being evicted
}

TEST(Codec, ShardedCacheBoundsTotalResidency) {
  const SDCode code(8, 4, 2, 2, 8);
  Codec::Options opts;
  opts.cache_capacity = 8;
  Codec codec(code, opts);
  EXPECT_EQ(codec.cache_shards(), 8u);
  ScenarioGenerator gen(549);
  for (int i = 0; i < 40; ++i) {
    const auto g = gen.sd_worst_case(code, 2, 2, 1);
    ASSERT_NE(codec.plan_for(g.scenario), nullptr);
    ASSERT_LE(codec.cache_size(), 8u);
  }
}

TEST(Codec, MetricsJsonReflectsTraffic) {
  const SDCode code(8, 8, 2, 2, 8);
  Codec codec(code);
  Stripe stripe(code, 256);
  const auto snap = test::fill_and_encode(code, stripe, 550);
  ScenarioGenerator gen(551);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  for (int i = 0; i < 3; ++i) {
    stripe.erase(g.scenario);
    ASSERT_TRUE(codec.decode(g.scenario, stripe.block_ptrs(), 256));
  }
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_EQ(codec.metrics().decodes.value(), 3u);
  EXPECT_EQ(codec.metrics().decode_seconds.count(), 3u);
  EXPECT_EQ(codec.metrics().plan_seconds.count(), 1u);  // one miss, one build
  const auto costs = analyze_costs(code, g.scenario);
  EXPECT_EQ(codec.metrics().mult_xors.value(), 3 * costs->ppm_best());
  const std::string json = codec.metrics_json();
  EXPECT_NE(json.find("\"hits\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"misses\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"evictions\":0"), std::string::npos) << json;
}

TEST(Codec, UndecodableScenarioReturnsFalse) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Codec codec(code);
  Stripe stripe(code, 256);
  test::fill_and_encode(code, stripe, 544);
  EXPECT_FALSE(codec.decode(FailureScenario({0, 1, 2}), stripe.block_ptrs(),
                            256));
  EXPECT_EQ(codec.plan_for(FailureScenario({0, 1, 2})), nullptr);
}

TEST(Codec, DecodableMatchesPlanForWithoutCaching) {
  // The nine families at ppm_cli's default parameters, over its --sweep 2
  // scenarios (every one- and two-disk failure), each also probed with
  // one more erased block — the question Scrubber::rank asks.
  std::vector<std::unique_ptr<ErasureCode>> codes;
  codes.push_back(std::make_unique<SDCode>(8, 16, 2, 2,
                                           SDCode::recommended_width(8, 16)));
  codes.push_back(std::make_unique<PMDSCode>(
      8, 16, 2, 2, SDCode::recommended_width(8, 16)));
  codes.push_back(std::make_unique<LRCCode>(12, 3, 2, 8));
  codes.push_back(std::make_unique<XorbasLRCCode>(10, 2, 4, 8));
  codes.push_back(std::make_unique<RSCode>(10, 4, 8));
  codes.push_back(std::make_unique<CRSCode>(10, 4, 8));
  codes.push_back(std::make_unique<StarCode>(7, 8));
  codes.push_back(std::make_unique<EvenOddCode>(7, 8));
  codes.push_back(std::make_unique<RDPCode>(7, 8));
  for (const auto& code : codes) {
    Codec codec(*code);
    std::size_t undecodable = 0;
    const auto check = [&](const std::vector<std::size_t>& faulty) {
      const FailureScenario sc(faulty);
      const std::size_t cached = codec.cache_size();
      const bool decodable = codec.decodable(sc);
      EXPECT_EQ(codec.cache_size(), cached);
      EXPECT_EQ(decodable, codec.plan_for(sc) != nullptr)
          << code->name() << " faulty=" << faulty.size();
      if (!decodable) ++undecodable;
    };
    const std::size_t disks = code->disks();
    for (std::size_t d0 = 0; d0 < disks; ++d0) {
      for (std::size_t d1 = d0; d1 < disks; ++d1) {
        std::vector<std::size_t> faulty;
        for (std::size_t row = 0; row < code->rows(); ++row) {
          faulty.push_back(code->block_id(row, d0));
          if (d1 != d0) faulty.push_back(code->block_id(row, d1));
        }
        check(faulty);
        // One more erasure on the next disk over, first and last row.
        const std::size_t d2 = (d1 + 1) % disks;
        if (d2 == d0) continue;
        for (const std::size_t row :
             std::set<std::size_t>{0, code->rows() - 1}) {
          std::vector<std::size_t> probe = faulty;
          probe.push_back(code->block_id(row, d2));
          check(probe);
        }
      }
    }
    // Then whole disks 0, 1, 2, ... until the code gives out, so every
    // family answers "no" at least once.
    std::vector<std::size_t> faulty;
    for (std::size_t d = 0; d < disks && undecodable == 0; ++d) {
      for (std::size_t row = 0; row < code->rows(); ++row) {
        faulty.push_back(code->block_id(row, d));
      }
      check(faulty);
    }
    EXPECT_GT(undecodable, 0u) << code->name();
  }
}

TEST(Codec, EncodeMatchesTraditional) {
  const SDCode code(6, 4, 2, 2, 8);
  Stripe a(code, 256);
  Stripe b(code, 256);
  Rng rng(545);
  a.fill_data(rng);
  std::memcpy(b.block(0), a.block(0), a.stripe_bytes());
  const TraditionalDecoder trad(code);
  ASSERT_TRUE(trad.encode(a.block_ptrs(), 256));
  Codec codec(code);
  ASSERT_TRUE(codec.encode(b.block_ptrs(), 256));
  EXPECT_TRUE(b.equals(a.snapshot()));
}

TEST(Codec, BatchDecodeRestoresEveryStripe) {
  const SDCode code(8, 8, 2, 2, 8);
  ScenarioGenerator gen(546);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);

  constexpr std::size_t kStripes = 12;
  std::vector<std::unique_ptr<Stripe>> stripes;
  std::vector<std::vector<std::uint8_t>> snaps;
  std::vector<std::uint8_t* const*> ptrs;
  for (std::size_t i = 0; i < kStripes; ++i) {
    stripes.push_back(std::make_unique<Stripe>(code, 256));
    snaps.push_back(test::fill_and_encode(code, *stripes.back(), 547 + i));
    stripes.back()->erase(g.scenario);
    ptrs.push_back(stripes.back()->block_ptrs());
  }

  Codec::Options opts;
  opts.threads = 3;
  Codec codec(code, opts);
  const auto result = codec.decode_batch(g.scenario, ptrs, 256);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->stripes, kStripes);
  for (std::size_t i = 0; i < kStripes; ++i) {
    EXPECT_TRUE(stripes[i]->equals(snaps[i])) << "stripe " << i;
  }
  // Stats sum over stripes: kStripes * per-stripe cost.
  const auto costs = analyze_costs(code, g.scenario);
  EXPECT_EQ(result->stats.mult_xors, kStripes * costs->ppm_best());
}

TEST(Codec, BatchDecodeEmptyBatch) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Codec codec(code);
  const auto result =
      codec.decode_batch(FailureScenario({0}), {}, 256);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->stripes, 0u);
  EXPECT_EQ(result->stats.mult_xors, 0u);
}

TEST(Codec, EmptyScenarioDecodeIsNoOp) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Codec codec(code);
  Stripe stripe(code, 256);
  const auto snap = test::fill_and_encode(code, stripe, 548);
  ASSERT_TRUE(codec.decode(FailureScenario{}, stripe.block_ptrs(), 256));
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(CachedPlan, CostAccountsGroupsAndRest) {
  const SDCode code(4, 4, 1, 1, 8, {1, 2});
  Codec codec(code);
  const auto plan = codec.plan_for(FailureScenario({2, 6, 10, 13, 14}));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->p(), 3u);
  EXPECT_EQ(plan->cost(), 29u);  // C4 from the paper's example
}

}  // namespace
}  // namespace ppm
