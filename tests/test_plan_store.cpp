// Persistent plan store: serialization round trips, write-through /
// read-through / warm wiring in the Codec, and — the load-bearing part —
// the zero-trust gate: corrupted, truncated, or version-bumped records
// must be quarantined and rebuilt, never served and never fatal.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "codes/lrc_code.h"
#include "codes/sd_code.h"
#include "common/rng.h"
#include "decode/scenario.h"
#include "decode/traditional_decoder.h"
#include "plan_store/plan_store.h"
#include "test_util.h"
#include "workload/stripe.h"

namespace ppm {
namespace {

namespace fs = std::filesystem;

SDCode test_code() {
  return SDCode(6, 8, 2, 2, SDCode::recommended_width(6, 8));
}

// Whole-disk failure scenario: every block of `disk`.
FailureScenario disk_failure(const ErasureCode& code, std::size_t disk) {
  std::vector<std::size_t> faulty;
  for (std::size_t row = 0; row < code.rows(); ++row) {
    faulty.push_back(code.block_id(row, disk));
  }
  return FailureScenario(faulty);
}

std::vector<std::uint8_t> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Encode a stripe, erase `sc`, decode with `plan`, and require the
// original bytes back.
void expect_plan_decodes(const ErasureCode& code, const FailureScenario& sc,
                         const CachedPlan& plan) {
  constexpr std::size_t kBlock = 512;
  Stripe stripe(code, kBlock);
  Rng rng(7);
  stripe.fill_data(rng);
  const TraditionalDecoder trad(code);
  ASSERT_TRUE(trad.encode(stripe.block_ptrs(), kBlock));
  const auto snap = stripe.snapshot();
  stripe.erase(sc);
  plan.execute(stripe.block_ptrs(), kBlock);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(CodeSignature, StableForSameParameters) {
  const SDCode a = test_code();
  const SDCode b = test_code();
  EXPECT_EQ(a.code_signature().text, b.code_signature().text);
  EXPECT_EQ(a.code_signature().digest, b.code_signature().digest);
  EXPECT_EQ(a.code_signature(), b.code_signature());
}

TEST(CodeSignature, DistinctAcrossParametersAndFamilies) {
  const SDCode base = test_code();
  const SDCode other_geom(6, 8, 2, 1, SDCode::recommended_width(6, 8));
  const LRCCode lrc(12, 3, 2, 8);
  EXPECT_NE(base.code_signature().digest, other_geom.code_signature().digest);
  EXPECT_NE(base.code_signature().digest, lrc.code_signature().digest);
  EXPECT_NE(base.code_signature().text, other_geom.code_signature().text);
}

TEST(PlanProfile, PopulatedAtBuildTime) {
  const SDCode code = test_code();
  Codec codec(code);
  const auto plan = codec.plan_for(disk_failure(code, 0));
  ASSERT_NE(plan, nullptr);
  const PlanProfile& prof = plan->profile();
  EXPECT_EQ(prof.cost, plan->cost());
  EXPECT_TRUE(prof.hazard_free);
  EXPECT_GT(prof.work, 0u);
  EXPECT_LE(prof.critical_path, prof.work);
  EXPECT_GE(prof.speedup_bound(), 1.0);
  EXPECT_GE(prof.max_width, 1u);
}

TEST(PlanStoreFormat, SerializeDeserializeRoundTrip) {
  const SDCode code = test_code();
  Codec codec(code);
  const FailureScenario sc = disk_failure(code, 1);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);

  const auto bytes = planstore::serialize_plan(code, sc, *plan);
  std::string err;
  const auto stored = planstore::deserialize_plan(bytes, code, &err);
  ASSERT_TRUE(stored.has_value()) << err;
  EXPECT_EQ(stored->stored_profile, plan->profile());
  EXPECT_EQ(std::vector<std::size_t>(stored->scenario.faulty().begin(),
                                     stored->scenario.faulty().end()),
            std::vector<std::size_t>(sc.faulty().begin(), sc.faulty().end()));
  expect_plan_decodes(code, sc, stored->plan);
}

TEST(PlanStoreFormat, RejectsRecordOfForeignCode) {
  const SDCode code = test_code();
  Codec codec(code);
  const FailureScenario sc = disk_failure(code, 0);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  const auto bytes = planstore::serialize_plan(code, sc, *plan);

  const SDCode foreign(6, 8, 2, 1, SDCode::recommended_width(6, 8));
  std::string err;
  EXPECT_FALSE(planstore::deserialize_plan(bytes, foreign, &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(PlanStore, PutThenLoadReVerifies) {
  const SDCode code = test_code();
  const test::TempDir dir("put_load");
  planstore::PlanStore store(dir.path());
  Codec codec(code);
  const FailureScenario sc = disk_failure(code, 2);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(store.put(code, sc, *plan));

  std::shared_ptr<const CachedPlan> loaded;
  EXPECT_EQ(store.load(code, sc, &loaded),
            planstore::PlanStore::LoadResult::kLoaded);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->profile(), plan->profile());
  expect_plan_decodes(code, sc, *loaded);

  // A key with no record is kMissing, not an error.
  std::shared_ptr<const CachedPlan> missing;
  EXPECT_EQ(store.load(code, disk_failure(code, 3), &missing),
            planstore::PlanStore::LoadResult::kMissing);
  EXPECT_EQ(missing, nullptr);
}

TEST(PlanStore, CodecWriteThroughAndReadThrough) {
  const SDCode code = test_code();
  const test::TempDir dir("write_read");
  const FailureScenario sc = disk_failure(code, 0);

  Codec writer(code);
  writer.attach_store(dir.path().string());
  ASSERT_NE(writer.plan_for(sc), nullptr);
  EXPECT_EQ(writer.metrics().planstore_stores.value(), 1u);
  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  EXPECT_TRUE(fs::exists(record));

  // A fresh process (new Codec) read-throughs the record instead of
  // rebuilding — and the loaded plan decodes correctly.
  Codec reader(code);
  reader.attach_store(dir.path().string());
  const auto plan = reader.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(reader.metrics().planstore_loads.value(), 1u);
  EXPECT_EQ(reader.metrics().planstore_stores.value(), 0u);
  expect_plan_decodes(code, sc, *plan);
}

TEST(PlanStore, WarmPopulatesShardedCache) {
  const SDCode code = test_code();
  const test::TempDir dir("warm");
  Codec writer(code);
  writer.attach_store(dir.path().string());
  for (std::size_t d = 0; d < 3; ++d) {
    ASSERT_NE(writer.plan_for(disk_failure(code, d)), nullptr);
  }

  Codec cold(code);
  cold.attach_store(dir.path().string());
  EXPECT_EQ(cold.warm(), 3u);
  EXPECT_EQ(cold.metrics().planstore_warm_hits.value(), 3u);
  EXPECT_EQ(cold.cache_size(), 3u);
  // First decode after warm() is a pure cache hit: no load, no rebuild.
  const auto before_hits = cold.cache_hits();
  ASSERT_NE(cold.plan_for(disk_failure(code, 1)), nullptr);
  EXPECT_EQ(cold.cache_hits(), before_hits + 1);
  EXPECT_EQ(cold.metrics().planstore_loads.value(), 3u);
}

TEST(PlanStore, ScenarioListWarmLoadsSelectedKeys) {
  const SDCode code = test_code();
  const test::TempDir dir("warm_list");
  Codec writer(code);
  writer.attach_store(dir.path().string());
  const std::vector<FailureScenario> scenarios = {disk_failure(code, 0),
                                                  disk_failure(code, 1)};
  for (const auto& sc : scenarios) {
    ASSERT_NE(writer.plan_for(sc), nullptr);
  }
  Codec cold(code);
  cold.attach_store(dir.path().string());
  EXPECT_EQ(cold.warm(scenarios), 2u);
  EXPECT_EQ(cold.cache_size(), 2u);
}

TEST(PlanStore, CorruptPayloadIsQuarantinedAndRebuilt) {
  const SDCode code = test_code();
  const test::TempDir dir("corrupt");
  const FailureScenario sc = disk_failure(code, 1);
  Codec writer(code);
  writer.attach_store(dir.path().string());
  ASSERT_NE(writer.plan_for(sc), nullptr);

  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  auto bytes = read_file(record);
  ASSERT_GT(bytes.size(), 32u);
  bytes[30] ^= 0xFF;  // inside the CRC-protected payload
  write_file(record, bytes);

  planstore::PlanStore store(dir.path());
  std::shared_ptr<const CachedPlan> out;
  std::string why;
  EXPECT_EQ(store.load(code, sc, &out, &why),
            planstore::PlanStore::LoadResult::kRejected);
  EXPECT_EQ(out, nullptr);
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(fs::exists(record));
  EXPECT_TRUE(fs::exists(record.string() + ".quarantined"));

  // A codec facing the corrupt record rebuilds from the code, decodes
  // correctly, and re-persists a healthy record.
  write_file(record, bytes);  // fresh corrupt copy
  Codec reader(code);
  reader.attach_store(dir.path().string());
  const auto plan = reader.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(reader.metrics().planstore_load_failures.value(), 1u);
  EXPECT_EQ(reader.metrics().planstore_quarantined.value(), 1u);
  EXPECT_EQ(reader.metrics().planstore_stores.value(), 1u);
  EXPECT_TRUE(fs::exists(record));
  expect_plan_decodes(code, sc, *plan);
}

TEST(PlanStore, TruncatedRecordIsQuarantined) {
  const SDCode code = test_code();
  const test::TempDir dir("truncate");
  const FailureScenario sc = disk_failure(code, 0);
  Codec writer(code);
  writer.attach_store(dir.path().string());
  ASSERT_NE(writer.plan_for(sc), nullptr);

  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  auto bytes = read_file(record);
  bytes.resize(bytes.size() / 2);
  write_file(record, bytes);

  planstore::PlanStore store(dir.path());
  std::shared_ptr<const CachedPlan> out;
  EXPECT_EQ(store.load(code, sc, &out),
            planstore::PlanStore::LoadResult::kRejected);
  EXPECT_TRUE(fs::exists(record.string() + ".quarantined"));
}

TEST(PlanStore, FutureFormatVersionIsQuarantined) {
  const SDCode code = test_code();
  const test::TempDir dir("version");
  const FailureScenario sc = disk_failure(code, 0);
  Codec writer(code);
  writer.attach_store(dir.path().string());
  ASSERT_NE(writer.plan_for(sc), nullptr);

  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  auto bytes = read_file(record);
  bytes[8] += 1;  // format-version u32 sits after the 8-byte magic
  write_file(record, bytes);

  planstore::PlanStore store(dir.path());
  std::shared_ptr<const CachedPlan> out;
  std::string why;
  EXPECT_EQ(store.load(code, sc, &out, &why),
            planstore::PlanStore::LoadResult::kRejected);
  EXPECT_NE(why.find("version"), std::string::npos);
  EXPECT_TRUE(fs::exists(record.string() + ".quarantined"));
}

TEST(PlanStore, PutReportsFailureWhenTmpPathUnwritable) {
  // Plant a directory at the .tmp staging path: the serialized write cannot
  // even open. put() must report false and leave no record behind. (A
  // directory blocks root too, unlike permission bits.)
  const SDCode code = test_code();
  const test::TempDir dir("put_tmp_blocked");
  planstore::PlanStore store(dir.path());
  Codec codec(code);
  const FailureScenario sc = disk_failure(code, 0);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);

  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  fs::create_directories(record.string() + ".tmp");

  EXPECT_FALSE(store.put(code, sc, *plan));
  EXPECT_FALSE(fs::exists(record));
}

TEST(PlanStore, PutReportsFailureWhenPublishBlockedAndRemovesTmp) {
  // Plant a directory at the target .plan path: the write succeeds but the
  // atomic rename cannot publish. put() must report false and must not
  // leak the staged .tmp file.
  const SDCode code = test_code();
  const test::TempDir dir("put_publish_blocked");
  planstore::PlanStore store(dir.path());
  Codec codec(code);
  const FailureScenario sc = disk_failure(code, 1);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);

  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  fs::create_directories(record);

  EXPECT_FALSE(store.put(code, sc, *plan));
  EXPECT_TRUE(fs::is_directory(record));  // untouched
  EXPECT_FALSE(fs::exists(record.string() + ".tmp"));
}

TEST(PlanStore, CodecCountsStoreFailureAndStillDecodes) {
  // Write-through durability is best-effort: when put() fails the decode
  // path must proceed untroubled, and the failure must surface as the
  // planstore.store_failures counter rather than an exception.
  const SDCode code = test_code();
  const test::TempDir dir("put_counter");
  const FailureScenario sc = disk_failure(code, 2);

  Codec codec(code);
  codec.attach_store(dir.path().string());
  const fs::path record =
      dir.path() / planstore::PlanStore::record_filename(code, sc);
  fs::create_directories(record.string() + ".tmp");

  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(codec.metrics().planstore_stores.value(), 0u);
  EXPECT_EQ(codec.metrics().planstore_store_failures.value(), 1u);
  expect_plan_decodes(code, sc, *plan);

  const std::string json = codec.metrics().to_json();
  EXPECT_NE(json.find("\"store_failures\":1"), std::string::npos);
}

TEST(PlanStore, CheckReportsAndGcRemovesQuarantined) {
  const SDCode code = test_code();
  const test::TempDir dir("check_gc");
  Codec writer(code);
  writer.attach_store(dir.path().string());
  for (std::size_t d = 0; d < 3; ++d) {
    ASSERT_NE(writer.plan_for(disk_failure(code, d)), nullptr);
  }

  planstore::PlanStore store(dir.path());
  auto report = store.check(code);
  EXPECT_EQ(report.checked, 3u);
  EXPECT_EQ(report.verified, 3u);
  EXPECT_EQ(report.quarantined, 0u);

  // Corrupt one record and drop an orphan temporary; check() must
  // quarantine exactly the bad record, and gc() must sweep both.
  const fs::path victim =
      dir.path() /
      planstore::PlanStore::record_filename(code, disk_failure(code, 1));
  auto bytes = read_file(victim);
  bytes.back() ^= 0x01;
  write_file(victim, bytes);
  write_file(dir.path() / "orphan.plan.tmp", {0x00});

  report = store.check(code);
  EXPECT_EQ(report.checked, 3u);
  EXPECT_EQ(report.verified, 2u);
  EXPECT_EQ(report.quarantined, 1u);

  std::size_t quarantined_listed = 0;
  for (const auto& entry : store.list()) {
    quarantined_listed += entry.quarantined ? 1 : 0;
  }
  EXPECT_EQ(quarantined_listed, 1u);

  const auto gc = store.gc();
  EXPECT_EQ(gc.removed_quarantined, 1u);
  EXPECT_EQ(gc.removed_tmp, 1u);
  for (const auto& entry : store.list()) {
    EXPECT_FALSE(entry.quarantined);
  }
}

TEST(PlanStore, GcRetainsTheNewestQuarantinedFiles) {
  // Quarantined records are forensic evidence: gc(keep) must age out the
  // oldest ones and keep exactly the `keep` newest, never all of them
  // forever and never the ones an operator still wants to inspect.
  const test::TempDir dir("gc_retention");
  planstore::PlanStore store(dir.path());
  const auto now = fs::file_time_type::clock::now();
  for (int i = 0; i < 4; ++i) {
    const fs::path p =
        dir.path() / ("rot" + std::to_string(i) + ".plan.quarantined");
    write_file(p, {static_cast<std::uint8_t>(i)});
    // Distinct mtimes, oldest first, so the retention order is pinned.
    fs::last_write_time(p, now - std::chrono::hours(10 - i));
  }

  const auto gc = store.gc(/*keep_quarantined=*/2);
  EXPECT_EQ(gc.removed_quarantined, 2u);
  EXPECT_FALSE(fs::exists(dir.path() / "rot0.plan.quarantined"));
  EXPECT_FALSE(fs::exists(dir.path() / "rot1.plan.quarantined"));
  EXPECT_TRUE(fs::exists(dir.path() / "rot2.plan.quarantined"));
  EXPECT_TRUE(fs::exists(dir.path() / "rot3.plan.quarantined"));

  // keep >= count removes nothing.
  EXPECT_EQ(store.gc(10).removed_quarantined, 0u);
  // Default retention stays zero: everything quarantined goes.
  EXPECT_EQ(store.gc().removed_quarantined, 2u);
}

}  // namespace
}  // namespace ppm
