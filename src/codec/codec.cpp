#include "codec/codec.h"

#include <algorithm>
#include <stdexcept>

#include "analyze_hazard/hazard.h"
#include "common/cpu.h"
#include "common/timer.h"
#include "decode/log_table.h"
#include "decode/partition.h"
#include "decode/xor_schedule.h"
#include "optimize_xor/xoropt.h"
#include "parallel/task_group.h"
#include "plan_store/plan_store.h"
#include "verify_plan/plan_verify.h"

namespace ppm {

CachedPlan CachedPlan::assemble(std::vector<SubPlan> groups,
                                std::optional<SubPlan> rest) {
  CachedPlan plan;
  plan.group_plans_ = std::move(groups);
  plan.rest_plan_ = std::move(rest);
  return plan;
}

std::size_t CachedPlan::cost() const {
  std::size_t c = 0;
  for (const SubPlan& p : group_plans_) c += p.cost();
  if (rest_plan_.has_value()) c += rest_plan_->cost();
  return c;
}

void CachedPlan::execute(std::uint8_t* const* blocks, std::size_t block_bytes,
                         DecodeStats* stats) const {
  for (const SubPlan& p : group_plans_) p.execute(blocks, block_bytes, stats);
  if (rest_plan_.has_value()) rest_plan_->execute(blocks, block_bytes, stats);
}

bool CachedPlan::execute_placed(std::uint8_t* const* blocks,
                                std::size_t block_bytes, ThreadPool& pool,
                                unsigned lanes, DecodeStats* stats) const {
  if (lanes < 2 || group_plans_.size() < 2) {
    execute(blocks, block_bytes, stats);
    return false;
  }
  std::vector<std::size_t> work(group_plans_.size());
  for (std::size_t i = 0; i < group_plans_.size(); ++i) {
    work[i] = group_plans_[i].cost();
  }
  const hazard::Placement placement = hazard::place_lpt(work, lanes);
  std::vector<DecodeStats> lane_stats(placement.lane_units.size());
  {
    TaskGroup group(pool);
    for (std::size_t l = 0; l < placement.lane_units.size(); ++l) {
      if (placement.lane_units[l].empty()) continue;
      group.add([this, &placement, l, blocks, block_bytes, &lane_stats] {
        for (const std::size_t i : placement.lane_units[l]) {
          group_plans_[i].execute(blocks, block_bytes, &lane_stats[l]);
        }
      });
    }
    group.wait();
  }
  if (rest_plan_.has_value()) rest_plan_->execute(blocks, block_bytes, stats);
  if (stats != nullptr) {
    for (const DecodeStats& st : lane_stats) {
      stats->mult_xors += st.mult_xors;
      stats->bytes_touched += st.bytes_touched;
      stats->blocks_read += st.blocks_read;
    }
  }
  return true;
}

Codec::Codec(const ErasureCode& code, Options options)
    : code_(&code),
      options_(options),
      signature_digest_(code.code_signature().digest),
      cache_(options.cache_capacity == 0 ? 1 : options.cache_capacity,
             options.cache_shards, &metrics_.plan_hits, &metrics_.plan_misses,
             &metrics_.plan_evictions) {
  if (options_.threads == 0) options_.threads = hardware_threads();
  if (options_.cache_capacity == 0) options_.cache_capacity = 1;
}

std::vector<std::size_t> Codec::plan_key(
    const FailureScenario& scenario) const {
  std::vector<std::size_t> key;
  key.reserve(scenario.count() + 1);
  key.push_back(static_cast<std::size_t>(signature_digest_));
  key.insert(key.end(), scenario.faulty().begin(), scenario.faulty().end());
  return key;
}

void Codec::attach_store(const std::string& directory) {
  attach_store(std::make_shared<planstore::PlanStore>(directory));
}

void Codec::attach_store(std::shared_ptr<planstore::PlanStore> store) {
  const std::scoped_lock lock(store_mutex_);
  store_ = std::move(store);
}

std::shared_ptr<planstore::PlanStore> Codec::store() const {
  return store_ref();
}

std::shared_ptr<planstore::PlanStore> Codec::store_ref() const {
  const std::scoped_lock lock(store_mutex_);
  return store_;
}

std::size_t Codec::warm() {
  const auto store = store_ref();
  if (store == nullptr) return 0;
  auto bulk = store->load_all(*code_);
  metrics_.planstore_load_failures.add(bulk.rejected);
  metrics_.planstore_quarantined.add(bulk.rejected);
  std::size_t warmed = 0;
  for (auto& [scenario, plan] : bulk.plans) {
    metrics_.planstore_loads.add();
    cache_.insert(plan_key(scenario), std::move(plan));
    metrics_.planstore_warm_hits.add();
    ++warmed;
  }
  return warmed;
}

std::size_t Codec::warm(std::span<const FailureScenario> scenarios) {
  const auto store = store_ref();
  if (store == nullptr) return 0;
  std::size_t warmed = 0;
  for (const FailureScenario& scenario : scenarios) {
    std::shared_ptr<const CachedPlan> plan;
    switch (store->load(*code_, scenario, &plan)) {
      case planstore::PlanStore::LoadResult::kLoaded:
        metrics_.planstore_loads.add();
        cache_.insert(plan_key(scenario), std::move(plan));
        metrics_.planstore_warm_hits.add();
        ++warmed;
        break;
      case planstore::PlanStore::LoadResult::kRejected:
        metrics_.planstore_load_failures.add();
        metrics_.planstore_quarantined.add();
        break;
      case planstore::PlanStore::LoadResult::kMissing:
        break;
    }
  }
  return warmed;
}

std::shared_ptr<CachedPlan> Codec::solve_plan(
    const FailureScenario& scenario) const {
  const Matrix& h = code_->parity_check();
  const LogTable table = LogTable::build(h, scenario.faulty());
  const Partition part = make_partition(h, table);

  auto plan = std::make_shared<CachedPlan>();
  plan->group_plans_.reserve(part.p());
  for (const IndependentGroup& g : part.groups) {
    auto sub = SubPlan::make(h, g.rows, g.faulty_cols, scenario.faulty(),
                             Sequence::kMatrixFirst);
    if (!sub.has_value()) return nullptr;
    plan->group_plans_.push_back(std::move(*sub));
  }
  if (!part.rest_empty()) {
    // Auto sequence: the cheaper of C3/C4 tails.
    const auto costs = SubPlan::sequence_costs(h, part.rest_rows,
                                               part.rest_faulty,
                                               part.rest_faulty);
    if (!costs.has_value()) return nullptr;
    const Sequence seq = costs->second < costs->first
                             ? Sequence::kMatrixFirst
                             : Sequence::kNormal;
    auto rest = SubPlan::make(h, part.rest_rows, part.rest_faulty,
                              part.rest_faulty, seq);
    if (!rest.has_value()) return nullptr;
    plan->rest_plan_ = std::move(*rest);
  }
  return plan;
}

bool Codec::decodable(const FailureScenario& scenario) const {
  return solve_plan(scenario) != nullptr;
}

std::shared_ptr<CachedPlan> Codec::build_plan(
    const FailureScenario& scenario) const {
  auto plan = solve_plan(scenario);
  if (plan == nullptr) return nullptr;
  // Every plan carries its hazard/cost profile from birth: consumers
  // (`ppm_cli analyze`, the plan store, schedulers) read profile()
  // instead of re-running the analysis, and the store cross-checks the
  // persisted copy against a fresh analysis on every load.
  const auto analysis = hazard::analyze_plan(*plan);
  plan->profile_.cost = plan->cost();
  plan->profile_.work = analysis.total_work;
  plan->profile_.critical_path = analysis.critical_path;
  plan->profile_.max_width = analysis.max_width;
  plan->profile_.level_width = analysis.level_width;
  plan->profile_.hazard_free = analysis.ok();
  // Superoptimize every binary sub-system's XOR schedule when asked. Each
  // accepted rewrite already carries its proof (xoropt gates on symbolic
  // replay + hazard re-analysis); a sub-system whose every rewrite was
  // rejected still attaches its greedy schedule — the plan is never worse
  // off for having tried.
  if (options_.optimize_xor) {
    const auto optimize_sub = [&](const SubPlan& sub, std::size_t index) {
      const Matrix& applied =
          sub.sequence() == Sequence::kMatrixFirst ? sub.finv() : sub.s();
      const auto base = plan_xor_schedule(applied);
      if (!base.has_value()) return;  // non-binary system: no XOR schedule
      auto result = xoropt::optimize(applied, *base);
      plan->xoropt_stats_.passes += result.stats.passes;
      plan->xoropt_stats_.rewrites_accepted += result.stats.rewrites_accepted;
      plan->xoropt_stats_.rewrites_rejected += result.stats.rewrites_rejected;
      plan->xoropt_stats_.ops_saved += result.stats.ops_saved;
      plan->xoropt_stats_.temps += result.stats.temps;
      plan->schedules_.push_back(
          PlanSchedule{index, std::move(result.schedule)});
    };
    for (std::size_t i = 0; i < plan->group_plans_.size(); ++i) {
      optimize_sub(plan->group_plans_[i], i);
    }
    if (plan->rest_plan_.has_value()) {
      optimize_sub(*plan->rest_plan_, plan->group_plans_.size());
    }
  }
  return plan;
}

std::shared_ptr<const CachedPlan> Codec::plan_for(
    const FailureScenario& scenario) {
  const std::vector<std::size_t> key = plan_key(scenario);
  if (auto cached = cache_.get(key)) return *cached;

  // Miss: with a store attached, try a zero-trust load from disk before
  // paying the rebuild — the store re-proves the record with planverify +
  // hazard analysis and quarantines anything that fails, so a loaded plan
  // is exactly as trustworthy as a built one.
  const auto store = store_ref();
  if (store != nullptr) {
    std::shared_ptr<const CachedPlan> loaded;
    switch (store->load(*code_, scenario, &loaded)) {
      case planstore::PlanStore::LoadResult::kLoaded:
        metrics_.planstore_loads.add();
        return cache_.insert(key, std::move(loaded));
      case planstore::PlanStore::LoadResult::kRejected:
        metrics_.planstore_load_failures.add();
        metrics_.planstore_quarantined.add();
        break;  // fall through to rebuild; the bad record is gone
      case planstore::PlanStore::LoadResult::kMissing:
        break;
    }
  }

  // Build outside any lock. Concurrent missers may build the same plan;
  // insert() keeps the first and everyone shares it.
  const Timer build;
  auto plan = build_plan(scenario);
  if (plan == nullptr) {
    metrics_.plan_failures.add();
    return nullptr;
  }
  metrics_.plans_analyzed.add();
  metrics_.analyzed_work.add(plan->profile().work);
  metrics_.analyzed_critical_path.add(plan->profile().critical_path);
  metrics_.xoropt_passes.add(plan->xoropt_stats().passes);
  metrics_.xoropt_rewrites_accepted.add(plan->xoropt_stats().rewrites_accepted);
  metrics_.xoropt_rewrites_rejected.add(plan->xoropt_stats().rewrites_rejected);
  metrics_.xoropt_ops_saved.add(plan->xoropt_stats().ops_saved);
  if (!plan->profile().hazard_free) {
    metrics_.hazard_failures.add();
#ifdef PPM_VERIFY_PLANS
    // A hazardous fan-out is a library bug; running it could corrupt
    // every stripe it decodes, so fail loudly instead of returning it.
    throw std::logic_error(
        "PPM_VERIFY_PLANS: concurrency hazard: " +
        planverify::to_json(hazard::analyze_plan(*plan).violations));
#endif
  }
#ifdef PPM_VERIFY_PLANS
  // Statically prove the plan sound before it can touch a byte (Debug /
  // -DPPM_VERIFY_PLANS=ON builds). A violation is a library bug; serving
  // a provably wrong plan would corrupt every stripe it decodes, so fail
  // loudly instead of returning it.
  {
    const auto verdict = planverify::verify_plan(*code_, scenario, *plan);
    if (!verdict.ok()) {
      metrics_.plan_verify_failures.add();
      throw std::logic_error("PPM_VERIFY_PLANS: plan rejected: " +
                             planverify::to_json(verdict.violations));
    }
    metrics_.plans_verified.add();
  }
#endif
  metrics_.plan_seconds.record_seconds(build.seconds());
  // Write-through: persist the verified plan so the next process (or a
  // sibling node) can warm from disk. Hazardous plans are never persisted
  // — the load path would only quarantine them again.
  if (store != nullptr && plan->profile().hazard_free) {
    if (store->put(*code_, scenario, *plan)) {
      metrics_.planstore_stores.add();
    } else {
      // Best-effort durability: a failed write-through costs the next
      // restart a rebuild, nothing more. Counted, never thrown.
      metrics_.planstore_store_failures.add();
    }
  }
  return cache_.insert(key, std::move(plan));
}

bool Codec::decode(const FailureScenario& scenario,
                   std::uint8_t* const* blocks, std::size_t block_bytes,
                   DecodeStats* stats) {
  if (scenario.empty()) return true;
  const Timer total;
  const auto plan = plan_for(scenario);
  if (plan == nullptr) return false;
  DecodeStats local;
  // Route through the DAG-guided placer when the plan's carried profile
  // proves the group fan-out race-free and the codec has lanes to offer;
  // otherwise (or when the plan has no width) the serial executor runs.
  const bool qualifies =
      options_.threads > 1 && plan->p() > 1 && plan->profile().hazard_free;
  if (qualifies) {
    if (plan->execute_placed(blocks, block_bytes, batch_pool(),
                             options_.threads, &local)) {
      metrics_.placed_decodes.add();
    } else {
      metrics_.placed_fallbacks.add();
    }
  } else {
    plan->execute(blocks, block_bytes, &local);
  }
  metrics_.decodes.add();
  metrics_.stripes_decoded.add();
  metrics_.mult_xors.add(local.mult_xors);
  metrics_.bytes_touched.add(local.bytes_touched);
  metrics_.decode_seconds.record_seconds(total.seconds());
  if (stats != nullptr) {
    stats->mult_xors += local.mult_xors;
    stats->bytes_touched += local.bytes_touched;
    stats->blocks_read += local.blocks_read;
  }
  return true;
}

bool Codec::encode(std::uint8_t* const* blocks, std::size_t block_bytes,
                   DecodeStats* stats) {
  return decode(FailureScenario::encoding_of(*code_), blocks, block_bytes,
                stats);
}

ThreadPool& Codec::batch_pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(std::max(1u, options_.threads));
  });
  return *pool_;
}

std::optional<BatchResult> Codec::decode_batch(
    const FailureScenario& scenario,
    const std::vector<std::uint8_t* const*>& stripes,
    std::size_t block_bytes) {
  BatchResult result;
  result.stripes = stripes.size();
  const Timer total;
  const auto plan = plan_for(scenario);
  if (plan == nullptr) return std::nullopt;
  result.plan_seconds = total.seconds();

  if (stripes.empty()) {
    result.seconds = total.seconds();
    metrics_.batches.add();
    metrics_.batch_seconds.record_seconds(result.seconds);
    return result;
  }

  std::vector<DecodeStats> per_stripe(stripes.size());
  if (options_.threads <= 1 || stripes.size() == 1) {
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      plan->execute(stripes[i], block_bytes, &per_stripe[i]);
    }
  } else {
    TaskGroup group(batch_pool());
    for (std::size_t i = 0; i < stripes.size(); ++i) {
      group.add([&, i] { plan->execute(stripes[i], block_bytes,
                                       &per_stripe[i]); });
    }
    group.wait();
  }
  for (const DecodeStats& st : per_stripe) {
    result.stats.mult_xors += st.mult_xors;
    result.stats.bytes_touched += st.bytes_touched;
    result.stats.blocks_read += st.blocks_read;
  }
  result.seconds = total.seconds();
  metrics_.batches.add();
  metrics_.stripes_decoded.add(stripes.size());
  metrics_.mult_xors.add(result.stats.mult_xors);
  metrics_.bytes_touched.add(result.stats.bytes_touched);
  metrics_.batch_seconds.record_seconds(result.seconds);
  return result;
}

}  // namespace ppm
