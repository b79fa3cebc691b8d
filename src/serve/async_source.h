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
// The backend, ThreadedAsyncSource (here), is a cheap per-decode handle
// over ONE process-wide pool of blocking-read workers. It works over any
// concurrency-tolerant io::BlockSource and needs no kernel support.
//
// The shared read pool. A synchronous read() holds its thread for the
// read's whole duration, so a straggler must hold a worker, not the
// queue. The pool starts empty (nothing is created until the first
// submit). At most one worker is ever on its way to the queue: when an
// op is queued and none is, one idle worker is woken, or, if no worker is
// idle, one is started, up to kReadPoolMaxWorkers. A worker that takes
// an op sends the next one before it reads, if ops remain. So a burst of
// fast reads is served by as few workers as keep up with it, while each
// straggler that parks its worker makes room for the next. Workers only
// ever block, on the pool's condition variable or inside read(); there
// is no spinning and, after warm-up, no per-request thread creation.
// Idle workers do not retire: a parked worker costs a stack and nothing
// else, while retiring would bring back the thread create/join cost on
// the next burst of stragglers, which is what the pool exists to remove.
// The ceiling bounds what the process can ever hold. Ops queue FIFO
// across handles; a hedge (submit_ahead) goes ahead of its own handle's
// queued ops, never ahead of another handle's.
//
// Per-handle routing. Each handle keeps its own in-flight count,
// completion list and condition variable: a worker hands a completion
// only to the handle that submitted it, so concurrent decodes (two
// DecodeServer dispatchers, a scrubber beside the serving path) never
// see each other's completions.
//
// Cancellation. cancel() and the destructor remove the handle's
// still-queued ops without ever calling inner.read() on them and wait
// only for its ops already inside read(). Afterwards nothing touches the
// inner source or any destination buffer again.
//
// Concurrency contract: submit(), poll(), in_flight() and
// started_before() are individually thread-safe; a handle is designed
// for ONE logical consumer (the overlap event loop), and cancel() must
// not race that consumer's submits. Destination buffers are caller-owned
// and must stay valid until the attempt's completion has been polled or
// the handle cancelled; distinct in-flight attempts must use distinct
// buffers (the hedging layer gives every attempt its own scratch buffer
// for exactly this reason).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
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

  /// submit(), but the read is served before every attempt of this
  /// source that has not started yet (a hedge must not wait behind the
  /// decode's own backlog).
  virtual std::uint64_t submit_ahead(std::size_t block, std::uint8_t* dst,
                                     std::size_t bytes) = 0;

  /// Append finished reads to `out`; returns how many were appended.
  /// Blocks up to `wait` when nothing is ready yet and reads are in
  /// flight; a zero wait is a pure poll. Returns 0 immediately when
  /// nothing is in flight.
  virtual std::size_t poll(std::vector<ReadCompletion>& out,
                           std::chrono::nanoseconds wait) = 0;

  /// Submitted attempts whose completion has not been polled yet.
  virtual std::size_t in_flight() const = 0;

  /// Append the token of every attempt whose read began before `cutoff`
  /// and has not finished. Queued attempts are never listed: their
  /// service has not started, so their age says nothing about the disk.
  virtual void started_before(std::chrono::steady_clock::time_point cutoff,
                              std::vector<std::uint64_t>& tokens) const = 0;

  /// Drop every queued attempt unread, wait for the attempts already
  /// being read and discard every unpolled completion. Afterwards
  /// in_flight() is 0 and no destination buffer is written again.
  virtual void cancel() = 0;
};

/// Most workers the shared read pool ever starts. Each blocked read pins
/// one thread (and its stack) for its whole delay; 64 holds every
/// delayed survivor of two concurrent SD(8,16) decodes at a 30% straggler
/// rate (2 × ~28) with room for their hedges, while bounding what a
/// fleet-wide stall can pin.
inline constexpr std::size_t kReadPoolMaxWorkers = 64;

/// Workers the shared read pool has started so far (it never shrinks).
std::size_t read_pool_workers();

class ReadPool;

/// Default backend: a per-decode handle whose reads run on the shared
/// read pool via plain blocking read() calls on `inner`. `inner` must
/// tolerate concurrent read() with distinct destination buffers (see
/// io/block_source.h) and must outlive this handle.
class ThreadedAsyncSource final : public AsyncBlockSource {
 public:
  explicit ThreadedAsyncSource(io::BlockSource& inner);
  ~ThreadedAsyncSource() override;  ///< cancel()

  std::size_t block_count() const override { return inner_->block_count(); }
  std::size_t block_bytes() const override { return inner_->block_bytes(); }

  std::uint64_t submit(std::size_t block, std::uint8_t* dst,
                       std::size_t bytes) override;
  std::uint64_t submit_ahead(std::size_t block, std::uint8_t* dst,
                             std::size_t bytes) override;
  std::size_t poll(std::vector<ReadCompletion>& out,
                   std::chrono::nanoseconds wait) override;
  std::size_t in_flight() const override;
  void started_before(std::chrono::steady_clock::time_point cutoff,
                      std::vector<std::uint64_t>& tokens) const override;
  void cancel() override;

 private:
  friend class ReadPool;

  struct Running {
    std::uint64_t token = 0;
    std::chrono::steady_clock::time_point since;
  };

  std::uint64_t enqueue(std::size_t block, std::uint8_t* dst,
                        std::size_t bytes, bool ahead);
  /// Pool callbacks: a worker took `token` off the queue / finished it.
  void started(std::uint64_t token);
  void finished(const ReadCompletion& done);

  io::BlockSource* inner_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< poll() and cancel() wait here
  std::vector<ReadCompletion> done_;
  std::vector<Running> running_;  ///< ops inside inner_->read()
  std::uint64_t next_token_ = 1;
  std::size_t in_flight_ = 0;  ///< submitted, completion not yet polled
};

}  // namespace ppm::serve
