// Completion-driven async block reads for the serving front end
// (ppm::serve).
//
// The resilient pipeline (codec/resilient.h) pulls survivors one blocking
// read at a time, so a single straggler stalls the whole decode for its
// full delay. AsyncBlockSource is the submit/poll seam that breaks that
// serialization: callers queue every survivor read at once and drain
// completions as they land, which is what lets the overlap scheduler
// (overlap.h) start each independent O1 group's solve the moment its
// inputs arrive and lets the hedging policy duplicate reads that are
// taking too long.
//
// The backend, ThreadedAsyncSource (here), is a thread-backed reactor
// multiplexing reads over any concurrency-tolerant io::BlockSource. It
// works everywhere and needs no kernel support.
//
// Concurrency contract: submit() and poll() are individually thread-safe,
// but completions are delivered to whichever caller polls — a source is
// designed for ONE logical consumer (the overlap event loop) at a time.
// Destination buffers are caller-owned and must stay valid until the
// attempt's completion has been polled; distinct in-flight attempts must
// use distinct buffers (the hedging layer gives every attempt its own
// scratch buffer for exactly this reason).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "io/block_source.h"

namespace ppm::serve {

/// One finished read attempt, identified by the token submit() returned.
struct ReadCompletion {
  std::uint64_t token = 0;
  std::size_t block = 0;
  io::ReadStatus status = io::ReadStatus::kFailed;
};

/// The async read seam: queue reads, drain completions.
class AsyncBlockSource {
 public:
  AsyncBlockSource() = default;
  AsyncBlockSource(const AsyncBlockSource&) = delete;
  AsyncBlockSource& operator=(const AsyncBlockSource&) = delete;
  virtual ~AsyncBlockSource() = default;

  virtual std::size_t block_count() const = 0;
  virtual std::size_t block_bytes() const = 0;

  /// Queue a read of the first `bytes` bytes of `block` into `dst`.
  /// Returns the token its completion will carry. `dst` must remain
  /// valid and untouched by the caller until that completion is polled.
  virtual std::uint64_t submit(std::size_t block, std::uint8_t* dst,
                               std::size_t bytes) = 0;

  /// Append finished reads to `out`; returns how many were appended.
  /// Blocks up to `wait` when nothing is ready yet and reads are in
  /// flight; a zero wait is a pure poll. Returns 0 immediately when
  /// nothing is in flight.
  virtual std::size_t poll(std::vector<ReadCompletion>& out,
                           std::chrono::nanoseconds wait) = 0;

  /// Submitted attempts whose completion has not been polled yet.
  virtual std::size_t in_flight() const = 0;
};

/// Default backend: `reactor_threads` workers multiplex submitted reads
/// over `inner` via plain blocking read() calls. `inner` must tolerate
/// concurrent read() with distinct destination buffers (see
/// io/block_source.h) and must outlive this source. Up to
/// `reactor_threads` reads make wall-clock progress concurrently — a
/// straggler occupies one worker for its delay while the rest keep
/// draining the queue.
class ThreadedAsyncSource : public AsyncBlockSource {
 public:
  explicit ThreadedAsyncSource(io::BlockSource& inner,
                               unsigned reactor_threads = 4);
  ~ThreadedAsyncSource() override;

  std::size_t block_count() const override { return inner_->block_count(); }
  std::size_t block_bytes() const override { return inner_->block_bytes(); }

  std::uint64_t submit(std::size_t block, std::uint8_t* dst,
                       std::size_t bytes) override;
  std::size_t poll(std::vector<ReadCompletion>& out,
                   std::chrono::nanoseconds wait) override;
  std::size_t in_flight() const override;

 private:
  struct Op {
    std::uint64_t token = 0;
    std::size_t block = 0;
    std::uint8_t* dst = nullptr;
    std::size_t bytes = 0;
  };

  void reactor_loop();

  io::BlockSource* inner_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< reactors wait for pending ops
  std::condition_variable done_cv_;  ///< pollers wait for completions
  std::deque<Op> pending_;
  std::vector<ReadCompletion> done_;
  std::uint64_t next_token_ = 1;
  std::size_t in_flight_ = 0;  ///< submitted, completion not yet polled
  bool stop_ = false;
  std::vector<std::jthread> reactors_;  ///< last member: joins first
};

}  // namespace ppm::serve
