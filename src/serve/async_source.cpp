#include "serve/async_source.h"

#include <algorithm>
#include <deque>
#include <system_error>
#include <thread>

#include "common/metrics.h"
#include "common/timer.h"

namespace ppm::serve {

/// The process-wide blocking-read pool behind every ThreadedAsyncSource
/// (growth rule and ceiling: async_source.h).
class ReadPool {
 public:
  ReadPool() { workers_.reserve(kReadPoolMaxWorkers); }
  ReadPool(const ReadPool&) = delete;
  ReadPool& operator=(const ReadPool&) = delete;
  ~ReadPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    // jthread members join on destruction.
  }

  static ReadPool& shared() {
    static ReadPool pool;
    return pool;
  }

  struct Op {
    ThreadedAsyncSource* owner = nullptr;
    std::uint64_t token = 0;
    std::size_t block = 0;
    std::uint8_t* dst = nullptr;
    std::size_t bytes = 0;
  };

  void enqueue(const Op& op, bool ahead) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (wakeups_ == 0) wake_one();  // nobody is on the way to the queue
    auto at = queue_.end();
    if (ahead) {
      at = std::find_if(queue_.begin(), queue_.end(),
                        [&](const Op& q) { return q.owner == op.owner; });
    }
    queue_.insert(at, op);
  }

  /// Drop `owner`'s queued ops unread.
  void remove(const ThreadedAsyncSource* owner) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(queue_, [&](const Op& q) { return q.owner == owner; });
  }

  std::size_t workers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return workers_.size();
  }

 private:
  /// Send one idle worker to the queue, starting one when none is idle.
  /// Caller holds mutex_. At the ceiling with every worker busy, the op
  /// waits for the first worker to come back from read().
  void wake_one() {
    if (sleeping_ > wakeups_) {
      ++wakeups_;
      work_cv_.notify_one();
    } else if (workers_.size() < kReadPoolMaxWorkers) {
      try {
        workers_.emplace_back([this] { worker_loop(); });
        ++wakeups_;  // the new worker consumes it on arrival
      } catch (const std::system_error&) {
        // Out of threads: a busy worker serves the op when it returns,
        // unless there is none at all.
        if (workers_.empty()) throw;
      }
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      ++sleeping_;
      work_cv_.wait(lock, [this] { return stop_ || wakeups_ > 0; });
      --sleeping_;
      if (stop_) return;
      --wakeups_;
      while (!queue_.empty()) {
        const Op op = queue_.front();
        queue_.pop_front();
        // Hand the rest of the queue to the next worker before reading:
        // if this read straggles, the ops behind it do not wait for it.
        // (wake_one cannot throw here: this worker exists.)
        if (!queue_.empty() && wakeups_ == 0) wake_one();
        // Marked running before the pool lock drops, so a concurrent
        // cancel() either removed the op from the queue or waits for it.
        op.owner->started(op.token);
        lock.unlock();

        const Timer clock;
        const io::ReadStatus status =
            op.owner->inner_->read(op.block, op.dst, op.bytes);
        serve_metrics().read_seconds.record_nanos(
            static_cast<std::uint64_t>(clock.nanos()));
        if (status != io::ReadStatus::kOk) serve_metrics().reads_failed.add();
        op.owner->finished(ReadCompletion{op.token, op.block, status});

        lock.lock();
      }
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< sleeping workers wait for wakeups_
  std::deque<Op> queue_;
  std::size_t sleeping_ = 0;  ///< workers blocked on work_cv_
  /// Workers sent to the queue that have not reached it yet, 0 or 1: a
  /// burst of fast reads is served by as few workers as keep up with it.
  std::size_t wakeups_ = 0;
  bool stop_ = false;
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

std::size_t read_pool_workers() { return ReadPool::shared().workers(); }

ThreadedAsyncSource::ThreadedAsyncSource(io::BlockSource& inner)
    : inner_(&inner) {}

ThreadedAsyncSource::~ThreadedAsyncSource() { cancel(); }

std::uint64_t ThreadedAsyncSource::enqueue(std::size_t block,
                                           std::uint8_t* dst,
                                           std::size_t bytes, bool ahead) {
  std::uint64_t token = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    token = next_token_++;
    ++in_flight_;
  }
  try {
    ReadPool::shared().enqueue(ReadPool::Op{this, token, block, dst, bytes},
                               ahead);
  } catch (...) {  // no worker could be started: nothing was queued
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    throw;
  }
  serve_metrics().reads_submitted.add();
  return token;
}

std::uint64_t ThreadedAsyncSource::submit(std::size_t block,
                                          std::uint8_t* dst,
                                          std::size_t bytes) {
  return enqueue(block, dst, bytes, false);
}

std::uint64_t ThreadedAsyncSource::submit_ahead(std::size_t block,
                                                std::uint8_t* dst,
                                                std::size_t bytes) {
  return enqueue(block, dst, bytes, true);
}

std::size_t ThreadedAsyncSource::poll(std::vector<ReadCompletion>& out,
                                      std::chrono::nanoseconds wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (done_.empty() && wait.count() > 0 && in_flight_ > 0) {
    done_cv_.wait_for(lock, wait, [this] { return !done_.empty(); });
  }
  const std::size_t n = done_.size();
  if (n != 0) {
    out.insert(out.end(), done_.begin(), done_.end());
    done_.clear();
    in_flight_ -= n;
  }
  return n;
}

std::size_t ThreadedAsyncSource::in_flight() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ThreadedAsyncSource::started_before(
    std::chrono::steady_clock::time_point cutoff,
    std::vector<std::uint64_t>& tokens) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const Running& r : running_) {
    if (r.since < cutoff) tokens.push_back(r.token);
  }
}

void ThreadedAsyncSource::cancel() {
  ReadPool::shared().remove(this);
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return running_.empty(); });
  done_.clear();
  in_flight_ = 0;
}

void ThreadedAsyncSource::started(std::uint64_t token) {
  const std::lock_guard<std::mutex> lock(mutex_);
  running_.push_back(Running{token, std::chrono::steady_clock::now()});
}

void ThreadedAsyncSource::finished(const ReadCompletion& done) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(running_,
                [&](const Running& r) { return r.token == done.token; });
  done_.push_back(done);
  // Notify under the lock: once cancel() can observe an empty running_
  // it may return and this handle (done_cv_ included) may be destroyed.
  done_cv_.notify_all();
}

}  // namespace ppm::serve
