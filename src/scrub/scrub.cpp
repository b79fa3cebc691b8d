#include "scrub/scrub.h"

#include <algorithm>
#include <utility>

#include "common/crc32.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "decode/log_table.h"
#include "decode/partition.h"

namespace ppm::scrub {
namespace {

// Read `block` through `source` with bounded retries. True when any
// attempt succeeded and `dst` holds the block's first `bytes` bytes.
bool read_with_retries(io::BlockSource& source, std::size_t block,
                       std::uint8_t* dst, std::size_t bytes,
                       std::size_t retries) {
  for (std::size_t attempt = 0; attempt <= retries; ++attempt) {
    if (source.read(block, dst, bytes) == io::ReadStatus::kOk) return true;
  }
  return false;
}

// Whether `block` has a truth digest to check against.
bool has_digest(const ScrubTarget& target, std::size_t block) {
  return block < target.expected_crc.size();
}

}  // namespace

std::size_t SweepReport::damaged() const {
  std::size_t n = 0;
  for (const StripeDamage& s : stripes) {
    if (!s.latent.empty() || s.known > 0) ++n;
  }
  return n;
}

Scrubber::Scrubber(Codec& codec, ScrubOptions options, RepairJournal* journal)
    : codec_(&codec),
      options_(options),
      journal_(journal),
      bucket_(options.rate_bytes_per_sec, options.burst_bytes) {}

void Scrubber::add_target(ScrubTarget target) {
  targets_.push_back(std::move(target));
}

SweepReport Scrubber::sweep() {
  ScrubMetrics& metrics = scrub_metrics();
  const Timer timer;
  SweepReport report;
  const std::uint64_t seq = sweep_seq_.fetch_add(1, std::memory_order_relaxed);
  const bool spot_round =
      options_.spot_check_every > 0 && seq % options_.spot_check_every == 0;
  const std::size_t spot_stripe =
      targets_.empty() ? 0
                       : static_cast<std::size_t>(
                             options_.spot_check_every > 0
                                 ? (seq / options_.spot_check_every) %
                                       targets_.size()
                                 : 0);

  for (std::size_t i = 0; i < targets_.size(); ++i) {
    ScrubTarget& target = targets_[i];
    StripeDamage damage;
    damage.stripe = i;
    damage.stripe_id = target.stripe_id;
    damage.known = target.known_faulty.count();
    metrics.stripes_scanned.add();
    if (target.source == nullptr) {
      report.stripes.push_back(std::move(damage));
      continue;
    }
    RateLimitedSource paced(*target.source, bucket_);
    const std::size_t bytes = target.source->block_bytes();
    const std::size_t count = target.source->block_count();
    std::vector<std::uint8_t> scratch(bytes);
    for (std::size_t b = 0; b < count; ++b) {
      if (target.known_faulty.contains(b)) continue;  // already accounted
      metrics.blocks_scanned.add();
      metrics.bytes_scanned.add(bytes);
      ++report.blocks_scanned;
      if (!read_with_retries(paced, b, scratch.data(), bytes,
                             options_.sweep_read_retries)) {
        ++damage.read_failures;
        damage.latent.push_back(b);
        metrics.read_failures.add();
        metrics.latent_detected.add();
        continue;
      }
      if (has_digest(target, b) &&
          crc32(scratch.data(), bytes) != target.expected_crc[b]) {
        ++damage.crc_mismatches;
        damage.latent.push_back(b);
        metrics.crc_mismatches.add();
        metrics.latent_detected.add();
      }
    }

    // Verify-decode spot check: on a healthy stripe, re-derive one block
    // from the parity relations and byte-verify it. Catches cross-block
    // inconsistency (a stale-but-internally-valid block, a wrong parity)
    // that per-block digests cannot.
    if (spot_round && i == spot_stripe && damage.latent.empty() &&
        target.known_faulty.empty() && target.blocks != nullptr && count > 0) {
      const std::size_t spot_block = static_cast<std::size_t>(seq) % count;
      damage.spot_checked = true;
      metrics.spot_checks.add();
      ++report.spot_checks;
      const FailureScenario probe({spot_block});
      const ResilientResult result = codec_->decode_resilient(
          probe, paced, target.blocks, bytes, options_.repair,
          std::span<const std::uint32_t>(target.expected_crc));
      damage.spot_check_ok = result.complete;
      if (!damage.spot_check_ok) {
        metrics.spot_check_failures.add();
        ++report.spot_check_failures;
      }
    }

    report.read_failures += damage.read_failures;
    report.crc_mismatches += damage.crc_mismatches;
    report.latent_total += damage.latent.size();
    report.stripes.push_back(std::move(damage));
  }

  report.seconds = timer.seconds();
  metrics.sweeps.add();
  metrics.sweep_seconds.record_seconds(report.seconds);
  return report;
}

std::vector<RiskAssessment> Scrubber::rank(const SweepReport& report) {
  ScrubMetrics& metrics = scrub_metrics();
  const ErasureCode& code = codec_->code();
  std::vector<RiskAssessment> ranking;
  for (const StripeDamage& damage : report.stripes) {
    if (damage.stripe >= targets_.size()) continue;
    const ScrubTarget& target = targets_[damage.stripe];
    std::vector<std::size_t> faulty(target.known_faulty.faulty().begin(),
                                    target.known_faulty.faulty().end());
    faulty.insert(faulty.end(), damage.latent.begin(), damage.latent.end());
    const FailureScenario scenario(std::move(faulty));
    if (scenario.empty()) continue;

    RiskAssessment risk;
    risk.stripe = damage.stripe;
    risk.stripe_id = damage.stripe_id;
    risk.faulty.assign(scenario.faulty().begin(), scenario.faulty().end());
    risk.decodable = codec_->plan_for(scenario) != nullptr;

    if (!risk.decodable) {
      risk.erasures_to_failure = 0;
    } else if (scenario.count() + 1 > code.check_rows()) {
      // One more erasure exceeds the check-row count outright.
      risk.erasures_to_failure = 1;
    } else {
      // Probe every single additional erasure; 2 means "survives any one
      // more", not an exact distance. The probes bypass the plan cache so
      // they cannot evict the plans serving traffic.
      risk.erasures_to_failure = 2;
      for (std::size_t b = 0; b < code.total_blocks(); ++b) {
        if (scenario.contains(b)) continue;
        std::vector<std::size_t> probe = risk.faulty;
        probe.push_back(b);
        if (!codec_->decodable(FailureScenario(std::move(probe)))) {
          risk.erasures_to_failure = 1;
          break;
        }
      }
    }

    const LogTable table =
        LogTable::build(code.parity_check(), scenario.faulty());
    const Partition partition = make_partition(code.parity_check(), table);
    risk.coupled_faulty = partition.rest_faulty.size();

    risk.risk =
        !risk.decodable
            ? 1000.0 + static_cast<double>(risk.faulty.size())
            : 100.0 / (1.0 + static_cast<double>(risk.erasures_to_failure)) +
                  10.0 * static_cast<double>(risk.coupled_faulty) +
                  static_cast<double>(risk.faulty.size());

    metrics.stripes_ranked.add();
    ranking.push_back(std::move(risk));
  }

  std::sort(ranking.begin(), ranking.end(),
            [](const RiskAssessment& a, const RiskAssessment& b) {
              if (a.decodable != b.decodable) return !a.decodable;
              if (a.erasures_to_failure != b.erasures_to_failure) {
                return a.erasures_to_failure < b.erasures_to_failure;
              }
              if (a.coupled_faulty != b.coupled_faulty) {
                return a.coupled_faulty > b.coupled_faulty;
              }
              if (a.faulty.size() != b.faulty.size()) {
                return a.faulty.size() > b.faulty.size();
              }
              return a.stripe < b.stripe;
            });
  return ranking;
}

std::vector<std::size_t> Scrubber::recheck_damage(
    const ScrubTarget& target, const std::vector<std::size_t>& candidates) {
  std::vector<std::size_t> damaged;
  if (target.source == nullptr) return damaged;
  RateLimitedSource paced(*target.source, bucket_);
  const std::size_t bytes = target.source->block_bytes();
  std::vector<std::uint8_t> scratch(bytes);
  for (const std::size_t b : candidates) {
    if (target.known_faulty.contains(b)) {
      damaged.push_back(b);  // declared lost; reads prove nothing
      continue;
    }
    if (!read_with_retries(paced, b, scratch.data(), bytes,
                           options_.sweep_read_retries)) {
      damaged.push_back(b);
      continue;
    }
    if (has_digest(target, b) &&
        crc32(scratch.data(), bytes) != target.expected_crc[b]) {
      damaged.push_back(b);
    }
  }
  std::sort(damaged.begin(), damaged.end());
  damaged.erase(std::unique(damaged.begin(), damaged.end()), damaged.end());
  return damaged;
}

bool Scrubber::repair_stripe(const RiskAssessment& risk,
                             RepairReport& report) {
  ScrubMetrics& metrics = scrub_metrics();
  RepairOutcome outcome;
  outcome.stripe = risk.stripe;
  outcome.stripe_id = risk.stripe_id;
  if (risk.stripe >= targets_.size()) return true;
  ScrubTarget& target = targets_[risk.stripe];
  if (target.source == nullptr || target.blocks == nullptr) return true;

  // At-most-once: claim the stripe, or yield to whoever holds it.
  {
    const std::lock_guard<std::mutex> lock(claim_mutex_);
    if (!in_flight_.insert(risk.stripe).second) {
      outcome.skipped = true;
      metrics.repairs_skipped.add();
      ++report.skipped;
      report.outcomes.push_back(std::move(outcome));
      return true;
    }
  }
  const auto release = [&] {
    const std::lock_guard<std::mutex> lock(claim_mutex_);
    in_flight_.erase(risk.stripe);
  };

  // Re-check inside the claim: a concurrent repairer (or a write through
  // the fault seam) may have healed the damage since the sweep.
  const std::vector<std::size_t> damaged =
      recheck_damage(target, risk.faulty);
  if (damaged.empty()) {
    outcome.skipped = true;
    metrics.repairs_skipped.add();
    ++report.skipped;
    report.outcomes.push_back(std::move(outcome));
    release();
    return true;
  }

  const Timer timer;
  const std::size_t bytes = target.source->block_bytes();

  // Write-ahead intent before any repair work touches storage.
  std::uint64_t seq = 0;
  if (journal_ != nullptr) {
    std::vector<std::uint32_t> crc;
    crc.reserve(damaged.size());
    for (const std::size_t b : damaged) {
      crc.push_back(has_digest(target, b) ? target.expected_crc[b] : 0);
    }
    if (const auto begun = journal_->begin(target.stripe_id, damaged, crc)) {
      seq = *begun;
      outcome.journal_seq = seq;
      const std::uint64_t published =
          intents_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.crash_after_intents > 0 &&
          published >= options_.crash_after_intents) {
        // Simulated crash between begin() and commit(): stop dead. The
        // claim is deliberately not released — the "process" died.
        report.crashed_for_test = true;
        report.outcomes.push_back(std::move(outcome));
        return false;
      }
    }
  }

  outcome.attempted = true;
  metrics.repairs_attempted.add();
  ++report.attempted;

  RateLimitedSource paced(*target.source, bucket_);
  const ResilientResult result = codec_->decode_resilient(
      FailureScenario(damaged), paced, target.blocks, bytes, options_.repair,
      std::span<const std::uint32_t>(target.expected_crc));

  outcome.repaired = result.recovered;
  if (target.writer != nullptr) {
    for (const std::size_t b : result.recovered) {
      if (target.writer->write(b, target.blocks[b], bytes) ==
          io::WriteStatus::kOk) {
        outcome.written_back.push_back(b);
        metrics.writebacks.add();
      } else {
        metrics.writeback_failures.add();
      }
    }
  }

  // Only blocks that are verified *and durable* may be claimed. Without
  // a writer the repair lives in the caller's scratch regions and the
  // recovered set is the claim.
  const std::vector<std::size_t>& claimed =
      target.writer != nullptr ? outcome.written_back : outcome.repaired;
  metrics.blocks_repaired.add(claimed.size());
  report.blocks_repaired += claimed.size();

  if (journal_ != nullptr && seq != 0) {
    std::vector<std::uint32_t> crc;
    crc.reserve(claimed.size());
    for (const std::size_t b : claimed) {
      crc.push_back(has_digest(target, b) ? target.expected_crc[b] : 0);
    }
    outcome.committed = journal_->commit(seq, claimed, crc);
  }

  outcome.complete = result.complete && claimed.size() == damaged.size();
  outcome.partial = !outcome.complete && !claimed.empty();
  if (outcome.complete) {
    metrics.repairs_completed.add();
    ++report.completed;
  } else if (outcome.partial) {
    metrics.repairs_partial.add();
    ++report.partial;
  } else {
    metrics.repairs_failed.add();
    ++report.failed;
  }
  metrics.repair_seconds.record_seconds(timer.seconds());
  report.outcomes.push_back(std::move(outcome));
  release();
  return true;
}

RepairReport Scrubber::repair(const std::vector<RiskAssessment>& ranking) {
  RepairReport report;
  for (const RiskAssessment& risk : ranking) {
    if (!repair_stripe(risk, report)) break;  // simulated crash
  }
  return report;
}

CycleReport Scrubber::run_cycle() {
  CycleReport cycle;
  cycle.sweep = sweep();
  cycle.ranking = rank(cycle.sweep);
  cycle.repair = repair(cycle.ranking);
  return cycle;
}

ReplayReport Scrubber::replay() {
  ReplayReport report;
  if (journal_ == nullptr) return report;
  ScrubMetrics& metrics = scrub_metrics();

  // Journal identity → fleet index (first registration wins).
  std::vector<std::pair<std::string, std::size_t>> ids;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    ids.emplace_back(RepairJournal::sanitize(targets_[i].stripe_id), i);
  }
  const auto find_target = [&](const std::string& id) {
    for (const auto& [key, idx] : ids) {
      if (key == id) return std::optional<std::size_t>(idx);
    }
    return std::optional<std::size_t>{};
  };

  const std::vector<JournalRecord> records = journal_->load_all();
  report.records = records.size();
  for (const JournalRecord& record : records) {
    metrics.journal_replayed.add();
    const auto idx = find_target(record.stripe_id);
    if (!idx) {
      // A claim no registered stripe can vouch for is not trusted.
      ++report.unmatched;
      if (journal_->quarantine(record.seq)) ++report.quarantined;
      continue;
    }
    ScrubTarget& target = targets_[*idx];
    if (record.committed) {
      // Zero-trust: every claimed-repaired block is re-read and
      // re-verified against the fleet's digests, not the record's.
      std::size_t bad = 0;
      if (target.source == nullptr) {
        bad = record.blocks.size();
      } else {
        RateLimitedSource paced(*target.source, bucket_);
        const std::size_t bytes = target.source->block_bytes();
        const std::size_t count = target.source->block_count();
        std::vector<std::uint8_t> scratch(bytes);
        for (std::size_t i = 0; i < record.blocks.size(); ++i) {
          const std::size_t b = record.blocks[i];
          if (b >= count ||
              !read_with_retries(paced, b, scratch.data(), bytes,
                                 options_.sweep_read_retries)) {
            ++bad;
            continue;
          }
          const std::uint32_t expect =
              has_digest(target, b) ? target.expected_crc[b] : record.crc[i];
          if (crc32(scratch.data(), bytes) != expect) ++bad;
        }
      }
      if (bad > 0) {
        report.false_claims += bad;
        if (journal_->quarantine(record.seq)) ++report.quarantined;
      } else {
        ++report.verified_commits;
      }
    } else {
      // Crash evidence: the repairer published intent and died. Surface
      // whatever is still damaged for the next cycle.
      ++report.pending_intents;
      metrics.journal_pending.add();
      for (const std::size_t b : recheck_damage(target, record.blocks)) {
        report.outstanding.emplace_back(*idx, b);
      }
    }
  }
  return report;
}

}  // namespace ppm::scrub
