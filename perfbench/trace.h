// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into
// the library's modules; each carries its layer (the module name), the
// request it belongs to and the span that caused it. They stay in memory
// until the run ends and are then written as Chrome trace_event JSON. A
// layer's self time is its spans' durations minus the part covered by
// their child spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// The library modules spans are attributed to, plus "harness" for the
/// benchmark's own root spans (requests, passes, cycles).
inline constexpr const char* kLayers[] = {
    "gf",    "decode", "analyze_hazard", "verify_plan", "codec", "plan_store",
    "parallel", "io",  "serve",          "common",      "scrub"};

class Tracer {
 public:
  /// Spans beyond this many are counted but not kept.
  static constexpr std::size_t kMaxSpans = 400'000;

  Tracer();

  /// Recording happens only while active (the traced windows of a run).
  bool active() const { return active_.load(std::memory_order_relaxed); }
  void set_active(bool on) { active_.store(on, std::memory_order_relaxed); }

  /// Nanoseconds since the tracer was created (steady clock).
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// A fresh id, shared by span ids and request ids.
  std::uint64_t new_id() { return next_id_.fetch_add(1) + 1; }

  /// Record one finished span. `name` and `layer` must be string literals.
  void record(const char* name, const char* layer, std::uint64_t request,
              std::uint64_t id, std::uint64_t parent, std::int64_t start,
              std::int64_t end);

  /// Records a span over its own lifetime when the tracer is active.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer,
          std::uint64_t request = 0, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    const char* layer_;
    std::uint64_t request_;
    std::uint64_t parent_;
    std::uint64_t id_ = 0;
    std::int64_t start_ = 0;
  };

  /// Σ self time per layer, in milliseconds.
  std::map<std::string, double> self_ms() const;
  /// Durations (µs) of every kept span with this name.
  std::vector<double> durations_us(const std::string& name) const;
  std::size_t kept() const;
  std::size_t dropped() const { return dropped_.load(); }

  /// Write every kept span as Chrome trace_event JSON ("X" events; args
  /// carry the request id, span id and parent span id).
  bool write_chrome(const std::filesystem::path& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t request;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start;
    std::int64_t end;
    std::uint32_t tid;
  };
  std::uint32_t thread_index();

  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mutex_;  ///< guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

}  // namespace perfbench
