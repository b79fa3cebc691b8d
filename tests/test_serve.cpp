// Decode-serving front end: async source, readiness sets, overlapped
// solves with hedged reads, the DecodeServer queue, and the fallback
// ladder — docs/SERVING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "analyze_hazard/hazard.h"
#include "codec/codec.h"
#include "codes/rs_code.h"
#include "codes/sd_code.h"
#include "common/crc32.h"
#include "io/block_source.h"
#include "io/fault_injection.h"
#include "serve/overlap.h"
#include "serve/server.h"
#include "test_util.h"
#include "workload/scenario_gen.h"

namespace ppm {
namespace {

using io::FaultInjectingSource;
using io::FaultSpec;
using io::MemoryBlockSource;

std::vector<const std::uint8_t*> snapshot_ptrs(
    const std::vector<std::uint8_t>& snap, std::size_t blocks,
    std::size_t bytes) {
  std::vector<const std::uint8_t*> ptrs(blocks);
  for (std::size_t i = 0; i < blocks; ++i) ptrs[i] = snap.data() + i * bytes;
  return ptrs;
}

std::vector<std::uint32_t> digests_of(const std::vector<std::uint8_t>& snap,
                                      std::size_t blocks, std::size_t bytes) {
  std::vector<std::uint32_t> crc(blocks);
  for (std::size_t i = 0; i < blocks; ++i) {
    crc[i] = crc32(snap.data() + i * bytes, bytes);
  }
  return crc;
}

// ---- AsyncBlockSource: per-decode handles over the shared read pool -----

TEST(AsyncSource, CompletionsCarryTheRightBytes) {
  const std::size_t kBlocks = 6;
  const std::size_t kBytes = 128;
  std::vector<std::uint8_t> data(kBlocks * kBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const auto ptrs = snapshot_ptrs(data, kBlocks, kBytes);
  MemoryBlockSource inner(ptrs.data(), kBlocks, kBytes);
  serve::ThreadedAsyncSource async(inner);
  EXPECT_EQ(async.block_count(), kBlocks);
  EXPECT_EQ(async.block_bytes(), kBytes);

  std::vector<std::vector<std::uint8_t>> dst(kBlocks);
  std::vector<std::uint64_t> tokens(kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    dst[b].resize(kBytes);
    tokens[b] = async.submit(b, dst[b].data(), kBytes);
  }
  std::vector<serve::ReadCompletion> done;
  while (done.size() < kBlocks) {
    async.poll(done, std::chrono::milliseconds{50});
  }
  EXPECT_EQ(async.in_flight(), 0u);
  std::vector<bool> seen(kBlocks, false);
  for (const serve::ReadCompletion& c : done) {
    ASSERT_LT(c.block, kBlocks);
    EXPECT_FALSE(seen[c.block]) << "duplicate completion";
    seen[c.block] = true;
    EXPECT_EQ(c.token, tokens[c.block]);
    EXPECT_EQ(c.status, io::ReadStatus::kOk);
    EXPECT_EQ(std::memcmp(dst[c.block].data(), ptrs[c.block], kBytes), 0);
  }
}

TEST(AsyncSource, FailedReadsCompleteWithFailedStatus) {
  std::vector<std::uint8_t> data(64);
  const std::uint8_t* ptr = data.data();
  MemoryBlockSource inner(&ptr, 1, 64);
  serve::ThreadedAsyncSource async(inner);
  std::vector<std::uint8_t> dst(64);
  const std::uint64_t token = async.submit(7, dst.data(), 64);  // no block 7
  std::vector<serve::ReadCompletion> done;
  while (done.empty()) async.poll(done, std::chrono::milliseconds{50});
  EXPECT_EQ(done[0].token, token);
  EXPECT_EQ(done[0].block, 7u);
  EXPECT_EQ(done[0].status, io::ReadStatus::kFailed);
}

TEST(AsyncSource, PollWithNothingInFlightReturnsImmediately) {
  std::vector<std::uint8_t> data(64);
  const std::uint8_t* ptr = data.data();
  MemoryBlockSource inner(&ptr, 1, 64);
  serve::ThreadedAsyncSource async(inner);
  std::vector<serve::ReadCompletion> done;
  EXPECT_EQ(async.poll(done, std::chrono::seconds{10}), 0u);
  EXPECT_TRUE(done.empty());
}

// ---- ReadPool: the process-wide blocking-read workers -------------------

/// Pass-through source that counts threads and concurrent reads.
class ConcurrencyProbe : public io::BlockSource {
 public:
  explicit ConcurrencyProbe(io::BlockSource& inner) : inner_(inner) {}
  std::size_t block_count() const override { return inner_.block_count(); }
  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                      std::size_t bytes) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      threads_.insert(std::this_thread::get_id());
      peak_ = std::max(peak_, ++active_);
    }
    const io::ReadStatus status = inner_.read(block, dst, bytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    --active_;
    return status;
  }
  std::size_t threads() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_.size();
  }
  std::size_t peak() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }

 private:
  io::BlockSource& inner_;
  mutable std::mutex mutex_;
  std::set<std::thread::id> threads_;
  std::size_t active_ = 0;
  std::size_t peak_ = 0;
};

/// Submit one read of every block of `async` and poll until all land.
std::vector<serve::ReadCompletion> read_all(
    serve::AsyncBlockSource& async, std::vector<std::vector<std::uint8_t>>& dst,
    std::vector<std::uint64_t>& tokens) {
  const std::size_t blocks = async.block_count();
  dst.assign(blocks, std::vector<std::uint8_t>(async.block_bytes()));
  tokens.resize(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    tokens[b] = async.submit(b, dst[b].data(), async.block_bytes());
  }
  std::vector<serve::ReadCompletion> done;
  while (done.size() < blocks) async.poll(done, std::chrono::milliseconds{50});
  return done;
}

TEST(ReadPool, StragglersHoldAWorkerNotTheQueue) {
  // 16 reads delayed 100 ms beside 32 fast ones. A fixed four-thread
  // pool would take 16/4 = 4 delays; this pool sleeps them all at once. The
  // first round warms the pool up (thread creation is slow under
  // sanitizers); the second round is timed.
  constexpr std::size_t kBlocks = 48;
  constexpr auto kDelay = std::chrono::milliseconds{100};
  std::vector<std::uint8_t> data(kBlocks * 64, 0x5A);
  const auto ptrs = snapshot_ptrs(data, kBlocks, 64);
  MemoryBlockSource inner(ptrs.data(), kBlocks, 64);
  FaultInjectingSource source(inner);
  FaultSpec straggler;
  straggler.delay = kDelay;
  for (std::size_t b = 0; b < kBlocks; b += 3) source.set_fault(b, straggler);

  serve::ThreadedAsyncSource async(source);
  std::vector<std::vector<std::uint8_t>> dst;
  std::vector<std::uint64_t> tokens;
  EXPECT_EQ(read_all(async, dst, tokens).size(), kBlocks);

  const auto start = std::chrono::steady_clock::now();
  const auto done = read_all(async, dst, tokens);
  const auto wall = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(done.size(), kBlocks);
  EXPECT_GE(wall, kDelay);
  EXPECT_LT(wall, 2 * kDelay);
  EXPECT_LE(serve::read_pool_workers(), serve::kReadPoolMaxWorkers);
}

TEST(ReadPool, ConcurrentHandlesEachPollOnlyTheirOwnReads) {
  constexpr std::size_t kBlocks = 40;
  constexpr std::size_t kBytes = 96;
  std::vector<std::vector<std::uint8_t>> data(2);
  std::vector<std::vector<const std::uint8_t*>> ptrs(2);
  for (std::size_t h = 0; h < 2; ++h) {
    data[h].resize(kBlocks * kBytes);
    for (std::size_t i = 0; i < data[h].size(); ++i) {
      data[h][i] = static_cast<std::uint8_t>(i * (h + 3) + h * 101);
    }
    ptrs[h] = snapshot_ptrs(data[h], kBlocks, kBytes);
  }
  const auto run = [&](std::size_t h) {
    MemoryBlockSource inner(ptrs[h].data(), kBlocks, kBytes);
    FaultInjectingSource source(inner);
    FaultSpec straggler;  // keep both handles' reads in flight together
    straggler.delay = std::chrono::milliseconds{5};
    for (std::size_t b = h; b < kBlocks; b += 4) source.set_fault(b, straggler);
    serve::ThreadedAsyncSource async(source);
    for (int round = 0; round < 5; ++round) {
      std::vector<std::vector<std::uint8_t>> dst;
      std::vector<std::uint64_t> tokens;
      const auto done = read_all(async, dst, tokens);
      // Exactly this handle's tokens, each once, with this source's bytes.
      EXPECT_EQ(done.size(), kBlocks);
      std::vector<bool> seen(kBlocks, false);
      for (const serve::ReadCompletion& c : done) {
        ASSERT_LT(c.block, kBlocks);
        EXPECT_FALSE(seen[c.block]);
        seen[c.block] = true;
        EXPECT_EQ(c.token, tokens[c.block]);
        EXPECT_EQ(c.status, io::ReadStatus::kOk);
        EXPECT_EQ(std::memcmp(dst[c.block].data(), ptrs[h][c.block], kBytes),
                  0);
      }
      EXPECT_EQ(async.in_flight(), 0u);
    }
  };
  std::thread other(run, 1);
  run(0);
  other.join();
}

/// Holds every pool worker inside a read() that blocks until release(),
/// so reads submitted in between stay queued.
class PoolSaturator {
 public:
  PoolSaturator()
      : dst_(serve::kReadPoolMaxWorkers, std::vector<std::uint8_t>(16)),
        async_(gate_) {
    for (std::size_t b = 0; b < serve::kReadPoolMaxWorkers; ++b) {
      async_.submit(b, dst_[b].data(), 16);
    }
    gate_.wait_entered(serve::kReadPoolMaxWorkers);
  }
  ~PoolSaturator() { release(); }  // async_ then waits for its reads
  PoolSaturator(const PoolSaturator&) = delete;
  PoolSaturator& operator=(const PoolSaturator&) = delete;

  void release() { gate_.open(); }
  /// Let exactly one held read finish: its worker then serves the
  /// queue alone, one op at a time, in queue order.
  void release_one() { gate_.open_one(); }

 private:
  class Gate : public io::BlockSource {
   public:
    std::size_t block_count() const override {
      return serve::kReadPoolMaxWorkers;
    }
    std::size_t block_bytes() const override { return 16; }
    io::ReadStatus read(std::size_t, std::uint8_t* dst,
                        std::size_t bytes) override {
      std::unique_lock<std::mutex> lock(mutex_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_ || permits_ > 0; });
      if (!open_) --permits_;
      std::memset(dst, 0, bytes);
      return io::ReadStatus::kOk;
    }
    void wait_entered(std::size_t n) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return entered_ >= n; });
    }
    void open() {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
      cv_.notify_all();
    }
    void open_one() {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++permits_;
      cv_.notify_all();
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t entered_ = 0;
    std::size_t permits_ = 0;
    bool open_ = false;
  };

  Gate gate_;
  std::vector<std::vector<std::uint8_t>> dst_;
  serve::ThreadedAsyncSource async_;  ///< last: waits for its reads first
};

TEST(ReadPool, DestroyedHandleNeverReadsItsQueuedOps) {
  PoolSaturator busy;
  std::vector<std::uint8_t> data(8 * 32, 1);
  const auto ptrs = snapshot_ptrs(data, 8, 32);
  MemoryBlockSource inner(ptrs.data(), 8, 32);
  FaultInjectingSource source(inner);
  std::vector<std::vector<std::uint8_t>> dst(8, std::vector<std::uint8_t>(32));
  {
    serve::ThreadedAsyncSource async(source);
    for (std::size_t b = 0; b < 8; ++b) async.submit(b, dst[b].data(), 32);
    EXPECT_EQ(async.in_flight(), 8u);
  }
  // The destructor returned while every worker was still held, so it
  // dropped the queued ops instead of waiting for them; once the workers
  // are free, none of those ops may reach read().
  busy.release();
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  EXPECT_EQ(source.reads_attempted(), 0u);
}

/// Records the order in which blocks reach read().
class ReadOrder : public io::BlockSource {
 public:
  std::size_t block_count() const override { return 8; }
  std::size_t block_bytes() const override { return 16; }
  io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                      std::size_t bytes) override {
    std::memset(dst, static_cast<int>(block), bytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    order_.push_back(block);
    return io::ReadStatus::kOk;
  }
  std::vector<std::size_t> order() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::size_t> order_;
};

TEST(ReadPool, SubmitAheadPassesOnlyItsOwnHandlesQueuedOps) {
  PoolSaturator busy;
  ReadOrder source;
  std::vector<std::vector<std::uint8_t>> dst(6, std::vector<std::uint8_t>(16));
  serve::ThreadedAsyncSource a(source);
  serve::ThreadedAsyncSource b(source);
  a.submit(0, dst[0].data(), 16);
  a.submit(1, dst[1].data(), 16);
  b.submit(3, dst[3].data(), 16);
  b.submit(4, dst[4].data(), 16);
  a.submit_ahead(2, dst[2].data(), 16);
  b.submit_ahead(5, dst[5].data(), 16);
  busy.release_one();  // one worker drains the queue in order
  std::vector<serve::ReadCompletion> done;
  while (a.in_flight() > 0) a.poll(done, std::chrono::milliseconds{50});
  while (b.in_flight() > 0) b.poll(done, std::chrono::milliseconds{50});
  EXPECT_EQ(source.order(), (std::vector<std::size_t>{2, 0, 1, 5, 3, 4}));
}

TEST(ReadPool, WorkersNeverExceedTheCeiling) {
  // Twice the ceiling's worth of delayed reads: the pool must cap its
  // threads and run them in two rounds rather than start one per read.
  constexpr std::size_t kReads = 2 * serve::kReadPoolMaxWorkers;
  constexpr auto kDelay = std::chrono::milliseconds{60};
  std::vector<std::uint8_t> data(kReads * 16, 7);
  const auto ptrs = snapshot_ptrs(data, kReads, 16);
  MemoryBlockSource inner(ptrs.data(), kReads, 16);
  FaultInjectingSource faults(inner);
  FaultSpec straggler;
  straggler.delay = kDelay;
  for (std::size_t b = 0; b < kReads; ++b) faults.set_fault(b, straggler);
  ConcurrencyProbe probe(faults);

  serve::ThreadedAsyncSource async(probe);
  std::vector<std::vector<std::uint8_t>> dst;
  std::vector<std::uint64_t> tokens;
  const auto start = std::chrono::steady_clock::now();
  const auto done = read_all(async, dst, tokens);
  EXPECT_EQ(done.size(), kReads);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 2 * kDelay);
  EXPECT_LE(probe.peak(), serve::kReadPoolMaxWorkers);
  EXPECT_LE(probe.threads(), serve::kReadPoolMaxWorkers);
  EXPECT_LE(serve::read_pool_workers(), serve::kReadPoolMaxWorkers);
}

// ---- readiness sets from the hazard DAG ---------------------------------

TEST(PlanReadiness, GroupInputsPartitionTheSurvivorReads) {
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);

  EXPECT_EQ(ready.group_inputs.size(), plan->groups().size());
  EXPECT_EQ(ready.has_rest, plan->rest().has_value());

  // Inputs are survivor reads: no faulty (recovered-by-compute) block may
  // appear, and every group/rest input is in the union.
  std::vector<bool> faulty(code.total_blocks(), false);
  for (const std::size_t b : g.scenario.faulty()) faulty[b] = true;
  std::vector<bool> in_all(code.total_blocks(), false);
  for (const std::size_t b : ready.all_inputs) {
    ASSERT_LT(b, code.total_blocks());
    EXPECT_FALSE(faulty[b]) << "block " << b;
    in_all[b] = true;
  }
  std::size_t group_input_total = 0;
  for (const auto& inputs : ready.group_inputs) {
    group_input_total += inputs.size();
    for (const std::size_t b : inputs) EXPECT_TRUE(in_all[b]);
  }
  EXPECT_GT(group_input_total, 0u);
  for (const std::size_t b : ready.rest_inputs) EXPECT_TRUE(in_all[b]);
}

// ---- decode_overlapped --------------------------------------------------

TEST(Overlap, CleanSourceDecodesAndOverlaps) {
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 1);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto digests = digests_of(snap, code.total_blocks(), 512);
  const auto out = serve::decode_overlapped(
      codec, g.scenario, source, stripe.block_ptrs(), 512, {}, digests);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_GT(out.reads_issued, 0u);
  EXPECT_GE(out.first_solve_start_ns, 0);
  EXPECT_GE(out.last_read_complete_ns, 0);
}

TEST(Overlap, GroupSolvesStartBeforeLastSurvivorRead) {
  // The acceptance gate's stage-timestamp assertion: delay one block that
  // some group does NOT need; that group's solve must start while the
  // straggler is still in flight.
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);

  // Find a group g0 and an input block `slow` that g0 does not read.
  std::size_t g0 = ready.group_inputs.size();
  std::size_t slow = code.total_blocks();
  for (std::size_t gi = 0; gi < ready.group_inputs.size() && slow >= code.total_blocks(); ++gi) {
    if (ready.group_inputs[gi].empty()) continue;
    for (const std::size_t b : ready.all_inputs) {
      const auto& inputs = ready.group_inputs[gi];
      if (std::find(inputs.begin(), inputs.end(), b) == inputs.end()) {
        g0 = gi;
        slow = b;
        break;
      }
    }
  }
  ASSERT_LT(g0, ready.group_inputs.size())
      << "fixture must have a group that skips some survivor";

  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 2);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{80};
  source.set_fault(slow, straggler);

  serve::OverlapOptions options;
  options.hedge.enabled = false;  // nothing may rescue the straggler
  const auto out = serve::decode_overlapped(
      codec, g.scenario, source, stripe.block_ptrs(), 512, options);
  ASSERT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  // The stage timestamps prove the overlap: g0 solved while `slow` was
  // still outstanding.
  ASSERT_LT(g0, out.groups.size());
  ASSERT_GE(out.groups[g0].solve_start_ns, 0);
  EXPECT_LT(out.groups[g0].solve_start_ns, out.last_read_complete_ns);
  EXPECT_LT(out.first_solve_start_ns, out.last_read_complete_ns);
  EXPECT_TRUE(out.overlapped);
  // The straggler dominated the fetch span.
  EXPECT_GE(out.last_read_complete_ns, 80'000'000);
}

TEST(Overlap, HedgeClipsTransientStraggler) {
  // A transient straggler (first attempt stuck, duplicates fast) must be
  // beaten by a hedged read: every needed input lands — and the solves
  // run — far below the straggler's delay. (total_ns still includes the
  // final cancel: the abandoned primary is already inside read() and
  // writes into frame-owned scratch, so it must finish first.)
  const SDCode code(6, 8, 2, 2, SDCode::recommended_width(6, 8));
  ScenarioGenerator gen(0xAB3A);
  const auto g = gen.sd_worst_case(code, 2, 2, 1);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 3);
  stripe.erase(g.scenario);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  const auto plan = codec.plan_for(g.scenario);
  ASSERT_NE(plan, nullptr);
  const hazard::PlanReadiness ready = hazard::plan_readiness(*plan);
  ASSERT_FALSE(ready.all_inputs.empty());
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{400};
  straggler.delay_reads = 1;  // only the first attempt is stuck
  source.set_fault(ready.all_inputs.front(), straggler);

  const auto out = serve::decode_overlapped(codec, g.scenario, source,
                                            stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  EXPECT_GE(out.hedges_launched, 1u);
  EXPECT_GE(out.hedges_won, 1u);
  // Without the hedge the last needed input would land at >= 400ms; the
  // winning duplicate delivered it (and unblocked every solve) early.
  ASSERT_GE(out.last_read_complete_ns, 0);
  EXPECT_LT(out.last_read_complete_ns, 200'000'000);
  EXPECT_GE(out.rest_solve_start_ns, 0);
  EXPECT_LT(out.rest_solve_start_ns, 200'000'000);
}

TEST(Overlap, NoHedgeForAReadThatHasNotStarted) {
  // Every pool worker is held by another handle's slow read, so this
  // decode's reads wait in the queue far past the hedge threshold. Age
  // counts from service start, so none of them may be hedged.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 12);
  const FailureScenario sc({1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto plan = codec.plan_for(sc);
  ASSERT_NE(plan, nullptr);
  const std::size_t needed = hazard::plan_readiness(*plan).all_inputs.size();
  serve::OverlapOptions options;
  options.resilience.deadline = std::chrono::seconds{2};
  options.hedge.deadline_fraction = 0.02;  // hedge past 40 ms in service

  PoolSaturator busy;
  const std::jthread releaser([&busy] {
    std::this_thread::sleep_for(std::chrono::milliseconds{150});
    busy.release();
  });
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512, options);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_TRUE(stripe.equals(snap));
  // The reads sat queued well past the 40 ms threshold.
  EXPECT_GE(out.last_read_complete_ns, 100'000'000);
  EXPECT_EQ(out.hedges_launched, 0u);
  EXPECT_EQ(out.reads_issued, needed);
}

TEST(Overlap, TransientFailuresRetryWithoutFallback) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 4);
  const FailureScenario sc({1});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec transient;
  transient.fail_reads = 2;
  source.set_fault(4, transient);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 3;
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512, options);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.fallback);
  EXPECT_GE(out.read_failures, 2u);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(Overlap, ExhaustedRetriesFallBackToResilientLadder) {
  // A permanently dead survivor defeats the fast path; the fallback
  // ladder escalates to other survivors and still completes.
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 5);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec dead;
  dead.fail_always = true;
  source.set_fault(2, dead);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 1;
  options.resilience.initial_backoff = std::chrono::microseconds{1};
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512, options);
  EXPECT_TRUE(out.fallback);
  EXPECT_TRUE(out.complete);
  EXPECT_GE(out.resilient.escalations, 1u);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(Overlap, CorruptSurvivorDetectedByDigestsFallsBack) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 6);
  const FailureScenario sc({0});
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const auto digests = digests_of(snap, code.total_blocks(), 512);
  MemoryBlockSource inner(ptrs.data(), code.total_blocks(), 512);
  FaultInjectingSource source(inner);
  FaultSpec torn;
  torn.corrupt = true;
  torn.corrupt_offset = 32;
  torn.corrupt_bytes = 8;
  source.set_fault(3, torn);
  serve::OverlapOptions options;
  options.resilience.max_read_retries = 1;
  options.resilience.initial_backoff = std::chrono::microseconds{1};
  const auto out = serve::decode_overlapped(
      codec, sc, source, stripe.block_ptrs(), 512, options, digests);
  // Every attempt at block 3 CRC-mismatches; the ladder escalates around
  // it and the recovery still verifies.
  EXPECT_GE(out.read_failures, 1u);
  EXPECT_TRUE(out.fallback);
  EXPECT_TRUE(out.complete);
  EXPECT_TRUE(stripe.equals(snap));
}

TEST(Overlap, UndecodableScenarioFallsBackIncomplete) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe stripe(code, 512);
  const auto snap = test::fill_and_encode(code, stripe, 7);
  const FailureScenario sc({0, 1, 2, 3});  // beyond m=3
  stripe.erase(sc);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  MemoryBlockSource source(ptrs.data(), code.total_blocks(), 512);
  const auto out = serve::decode_overlapped(codec, sc, source,
                                            stripe.block_ptrs(), 512);
  EXPECT_TRUE(out.fallback);
  EXPECT_FALSE(out.complete);
}

// ---- DecodeServer: queue, admission, batching ---------------------------

struct ServedStripe {
  explicit ServedStripe(const ErasureCode& code, std::size_t bytes,
                        const std::vector<const std::uint8_t*>& ptrs,
                        const FailureScenario& sc)
      : stripe(code, bytes), inner(ptrs.data(), code.total_blocks(), bytes),
        source(inner) {
    for (std::size_t b = 0; b < code.total_blocks(); ++b) {
      std::memcpy(stripe.block(b), ptrs[b], bytes);
    }
    stripe.erase(sc);
  }
  Stripe stripe;
  MemoryBlockSource inner;
  FaultInjectingSource source;
};

TEST(DecodeServer, ServesConcurrentRequestsByteIdentically) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 8);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const std::vector<FailureScenario> scenarios{
      FailureScenario({0}), FailureScenario({1, 7}), FailureScenario({3})};

  serve::DecodeServer server(codec, {});
  std::vector<std::unique_ptr<ServedStripe>> served;
  std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
  for (int rep = 0; rep < 3; ++rep) {
    for (const FailureScenario& sc : scenarios) {
      auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
      serve::ServeRequest req;
      req.scenario = sc;
      req.source = &s->source;
      req.blocks = s->stripe.block_ptrs();
      req.block_bytes = 512;
      futures.push_back(server.submit(std::move(req)));
      served.push_back(std::move(s));
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_TRUE(futures[i].has_value()) << i;
    const auto out = futures[i]->get();
    EXPECT_TRUE(out.complete) << i;
    EXPECT_TRUE(served[i]->stripe.equals(snap)) << i;
  }
}

TEST(DecodeServer, BackpressureRejectsWhenQueueIsFull) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 9);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const FailureScenario sc({0});

  serve::ServerOptions options;
  options.queue_depth = 1;
  options.dispatchers = 1;
  options.overlap.hedge.enabled = false;  // hedges would defeat the stall
  serve::DecodeServer server(codec, options);

  // Request 0 stalls the lone dispatcher: every survivor read sleeps.
  auto slow = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{150};
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    slow->source.set_fault(b, straggler);
  }
  serve::ServeRequest req0;
  req0.scenario = sc;
  req0.source = &slow->source;
  req0.blocks = slow->stripe.block_ptrs();
  req0.block_bytes = 512;
  auto f0 = server.submit(std::move(req0));
  ASSERT_TRUE(f0.has_value());
  // Let the dispatcher pop request 0 so the queue is empty again.
  std::this_thread::sleep_for(std::chrono::milliseconds{30});

  std::vector<std::unique_ptr<ServedStripe>> served;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::vector<std::optional<std::future<serve::OverlapResult>>> futures;
  for (int i = 0; i < 4; ++i) {
    auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
    serve::ServeRequest req;
    req.scenario = sc;
    req.source = &s->source;
    req.blocks = s->stripe.block_ptrs();
    req.block_bytes = 512;
    auto f = server.submit(std::move(req));
    if (f.has_value()) {
      ++accepted;
      futures.push_back(std::move(f));
      served.push_back(std::move(s));
    } else {
      ++rejected;
    }
  }
  // depth 1 + a busy dispatcher: exactly one fits, the rest bounce.
  EXPECT_EQ(accepted, 1u);
  EXPECT_EQ(rejected, 3u);
  EXPECT_TRUE(f0->get().complete);
  for (auto& f : futures) EXPECT_TRUE(f->get().complete);
  for (const auto& s : served) EXPECT_TRUE(s->stripe.equals(snap));
}

TEST(DecodeServer, BatchesQueuedRequestsSharingAPlan) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 10);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);

  serve::ServerOptions options;
  options.dispatchers = 1;
  options.overlap.hedge.enabled = false;
  serve::DecodeServer server(codec, options);
  ServeMetrics& metrics = serve_metrics();
  const std::size_t batches_before = metrics.batches.value();
  const std::size_t batched_before = metrics.batched_requests.value();

  // A slow leader occupies the dispatcher while three same-plan requests
  // pile up behind it; they must be claimed as one batch.
  const FailureScenario slow_sc({5});
  auto slow = std::make_unique<ServedStripe>(code, 512, ptrs, slow_sc);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{120};
  for (std::size_t b = 0; b < code.total_blocks(); ++b) {
    slow->source.set_fault(b, straggler);
  }
  serve::ServeRequest req0;
  req0.scenario = slow_sc;
  req0.source = &slow->source;
  req0.blocks = slow->stripe.block_ptrs();
  req0.block_bytes = 512;
  auto f0 = server.submit(std::move(req0));
  ASSERT_TRUE(f0.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds{20});

  const FailureScenario sc({0});
  std::vector<std::unique_ptr<ServedStripe>> served;
  std::vector<std::future<serve::OverlapResult>> futures;
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
    serve::ServeRequest req;
    req.scenario = sc;
    req.source = &s->source;
    req.blocks = s->stripe.block_ptrs();
    req.block_bytes = 512;
    auto f = server.submit(std::move(req));
    ASSERT_TRUE(f.has_value()) << i;
    futures.push_back(std::move(*f));
    served.push_back(std::move(s));
  }
  EXPECT_TRUE(f0->get().complete);
  for (auto& f : futures) EXPECT_TRUE(f.get().complete);
  for (const auto& s : served) EXPECT_TRUE(s->stripe.equals(snap));
  // Leader = one batch of 1; the three followers = one batch of 3.
  EXPECT_EQ(metrics.batches.value() - batches_before, 2u);
  EXPECT_EQ(metrics.batched_requests.value() - batched_before, 4u);
}

TEST(DecodeServer, ShutdownDrainsAdmittedRequests) {
  const RSCode code(6, 3, 8);
  Codec codec(code);
  Stripe reference(code, 512);
  const auto snap = test::fill_and_encode(code, reference, 11);
  const auto ptrs = snapshot_ptrs(snap, code.total_blocks(), 512);
  const FailureScenario sc({2});

  std::vector<std::unique_ptr<ServedStripe>> served;
  std::vector<std::future<serve::OverlapResult>> futures;
  {
    serve::DecodeServer server(codec, {});
    for (int i = 0; i < 4; ++i) {
      auto s = std::make_unique<ServedStripe>(code, 512, ptrs, sc);
      serve::ServeRequest req;
      req.scenario = sc;
      req.source = &s->source;
      req.blocks = s->stripe.block_ptrs();
      req.block_bytes = 512;
      auto f = server.submit(std::move(req));
      ASSERT_TRUE(f.has_value()) << i;
      futures.push_back(std::move(*f));
      served.push_back(std::move(s));
    }
    server.shutdown();  // must resolve every admitted future first
    EXPECT_FALSE(server.submit(serve::ServeRequest{}).has_value());
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().complete);
  for (const auto& s : served) EXPECT_TRUE(s->stripe.equals(snap));
}

// ---- concurrent multi-reader soak (satellite: thread-safe injector) -----

TEST(FaultSoak, ConcurrentReadersSeeAtMostOnceAttemptAccounting) {
  // 8 threads share one FaultInjectingSource. Fault budgets are claimed
  // atomically per attempt, so exactly fail_reads reads fail and exactly
  // delay_reads are delayed — no double-spend, no lost claim — and every
  // successful read returns intact bytes. Run under TSan in CI.
  const std::size_t kBlocks = 4;
  const std::size_t kBytes = 256;
  const std::size_t kThreads = 8;
  std::vector<std::uint8_t> data(kBlocks * kBytes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  const auto ptrs = snapshot_ptrs(data, kBlocks, kBytes);
  MemoryBlockSource inner(ptrs.data(), kBlocks, kBytes);
  FaultInjectingSource source(inner);
  FaultSpec flaky;
  flaky.fail_reads = 3;
  source.set_fault(0, flaky);
  FaultSpec straggler;
  straggler.delay = std::chrono::milliseconds{2};
  straggler.delay_reads = 2;
  source.set_fault(1, straggler);

  std::vector<std::size_t> failures(kThreads, 0);
  std::vector<std::size_t> bad_bytes(kThreads, 0);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<std::uint8_t> dst(kBytes);
      for (std::size_t b = 0; b < kBlocks; ++b) {
        const io::ReadStatus status = source.read(b, dst.data(), kBytes);
        if (status != io::ReadStatus::kOk) {
          ++failures[t];
        } else if (std::memcmp(dst.data(), ptrs[b], kBytes) != 0) {
          ++bad_bytes[t];
        }
      }
    });
  }
  for (auto& r : readers) r.join();

  std::size_t total_failures = 0;
  std::size_t total_bad = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total_failures += failures[t];
    total_bad += bad_bytes[t];
  }
  EXPECT_EQ(total_failures, 3u);  // fail_reads claimed exactly once each
  EXPECT_EQ(total_bad, 0u);
  EXPECT_EQ(source.reads_attempted(), kThreads * kBlocks);
  EXPECT_EQ(source.failures_injected(), 3u);
  EXPECT_EQ(source.delays_injected(), 2u);
}

// ---- serve metrics ------------------------------------------------------

TEST(ServeMetricsJson, HasStableKeysAndResets) {
  ServeMetrics m;
  m.requests.add(5);
  m.hedges_won.add(2);
  m.queue_seconds.record_nanos(1000);
  const std::string json = m.to_json();
  for (const char* key :
       {"\"serve\"", "\"requests\":5", "\"hedges_won\":2", "\"latency\"",
        "\"queue\"", "\"fetch\"", "\"solve\"", "\"request\"", "\"read\"",
        "\"p999_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
  m.reset();
  EXPECT_EQ(m.requests.value(), 0u);
  EXPECT_EQ(m.queue_seconds.count(), 0u);
}

}  // namespace
}  // namespace ppm
