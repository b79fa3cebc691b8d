// Fetch/compute-overlapped decode with hedged reads (ppm::serve).
//
// PPM's partition proves the p independent O1 groups mutually
// race-free, and hazard::plan_readiness derives exactly which source
// blocks each group needs. decode_overlapped() exploits both: every
// survivor read is submitted concurrently through an AsyncBlockSource,
// and each group's solve is dispatched the moment the last of its inputs
// lands — long before the stripe's slowest read completes. The rest-rows
// solve (which may read group-recovered blocks) stays gated on every
// group finishing and on full survivor arrival, matching the plan's
// hazard-DAG edges.
//
// Straggler mitigation is hedging, not just deadlines: once an
// outstanding read's age exceeds the observed read-latency quantile (or
// a fraction of the decode deadline, whichever is sooner), a duplicate
// read is issued into its own scratch buffer. First clean completion
// wins and is copied into the caller's block exactly once; later
// completions of the same block are discarded (counted as wasted).
// Per-attempt scratch buffers are what make the race benign — no two
// in-flight attempts ever share a destination.
//
// The fast path never sleeps and never retries with backoff; a read that
// fails (or fails its CRC) is resubmitted immediately up to the
// resilience retry budget. Anything the fast path cannot finish —
// unplannable scenario, exhausted retries, deadline, corrupt recovery —
// falls back to the serial Codec::decode_resilient ladder (RETRY →
// ESCALATE → DEGRADE → VERIFY) on the same source with the remaining
// deadline, so the overlap layer adds latency upside without weakening
// PR 5's recovery semantics.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/codec.h"
#include "codec/resilient.h"
#include "serve/async_source.h"

namespace ppm {
class ThreadPool;
}

namespace ppm::serve {

/// When to duplicate an outstanding read. The hedge threshold is
/// max(min_hedge_delay, min(latency-quantile estimate, deadline_fraction
/// × deadline)); with no samples yet and no deadline there is no basis
/// and no hedge fires.
struct HedgePolicy {
  bool enabled = true;
  /// Hedge reads older than this quantile of observed read latency.
  double latency_quantile = 0.95;
  /// Completed reads needed before the quantile estimate is trusted.
  std::size_t min_samples = 4;
  /// Hedge reads older than this fraction of the decode deadline.
  double deadline_fraction = 0.25;
  /// Floor under both signals — never hedge faster than this.
  std::chrono::nanoseconds min_hedge_delay{50'000};
  /// Duplicate-read cap per block per decode.
  std::size_t max_hedges_per_read = 2;
};

struct OverlapOptions {
  HedgePolicy hedge;
  /// Retry budget, deadline and (for the fallback ladder) backoff.
  ResilienceOptions resilience;
  /// Reactor threads when decode_overlapped builds its own
  /// ThreadedAsyncSource (a caller-supplied AsyncBlockSource wins).
  unsigned reactor_threads = 4;
  /// Solver pool for the group fan-out; nullptr = ThreadPool::shared().
  /// Used only when the plan's profile is hazard_free with >= 2 groups —
  /// otherwise group solves run in the event-loop thread (still
  /// overlapping fetch, just not each other).
  ThreadPool* pool = nullptr;
  /// Event-loop poll granularity (also bounds hedge-check latency).
  std::chrono::nanoseconds poll_interval{200'000};
};

/// Stage timestamps of one group's solve, in nanoseconds since the
/// decode started. -1 = never reached.
struct GroupTiming {
  std::int64_t inputs_ready_ns = -1;
  std::int64_t solve_start_ns = -1;
  std::int64_t solve_end_ns = -1;
};

struct OverlapResult {
  bool complete = false;  ///< all faulty blocks recovered (and CRC-clean)
  /// Fast path abandoned; `resilient` holds the ladder's full report.
  bool fallback = false;
  ResilientResult resilient;

  /// True when at least one group solve started before the last needed
  /// survivor read completed — the fetch/compute overlap actually
  /// happened (meaningless on the fallback path).
  bool overlapped = false;

  std::size_t hedges_launched = 0;
  std::size_t hedges_won = 0;     ///< hedge completions that arrived first
  std::size_t hedges_wasted = 0;  ///< duplicate completions discarded
  std::size_t reads_issued = 0;   ///< attempts submitted (primaries+hedges)
  std::size_t read_failures = 0;  ///< attempts failed or CRC-mismatched

  std::int64_t first_solve_start_ns = -1;
  std::int64_t last_read_complete_ns = -1;  ///< last needed input landed
  std::int64_t rest_solve_start_ns = -1;
  /// Wall time of the whole call. Includes the final reactor drain:
  /// abandoned attempts (hedge losers, reads the decode no longer needs)
  /// write into buffers this frame owns, so the thread-backed backend
  /// must let them finish before returning. A hedge win therefore shows
  /// up as an early last_read_complete_ns / rest_solve_start_ns — the
  /// solves and verification overlap the straggler's tail — while
  /// total_ns stays pinned to the slowest issued read: the threaded
  /// reactor cannot cancel a blocking read.
  std::int64_t total_ns = 0;
  std::vector<GroupTiming> groups;

  DecodeStats stats;
};

/// Decode one stripe with concurrent, hedged survivor fetch and
/// readiness-overlapped group solves. `source` is the fallback ladder's
/// (and, when `async` is null, the reactor's) read path; `async`, when
/// given, must wrap the same underlying data. `blocks`/`block_bytes` and
/// `expected_crc` follow Codec::decode_resilient's contract.
OverlapResult decode_overlapped(Codec& codec, const FailureScenario& scenario,
                                io::BlockSource& source,
                                std::uint8_t* const* blocks,
                                std::size_t block_bytes,
                                const OverlapOptions& options = {},
                                std::span<const std::uint32_t> expected_crc = {},
                                AsyncBlockSource* async = nullptr);

}  // namespace ppm::serve
