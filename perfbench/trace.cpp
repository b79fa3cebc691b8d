#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::uint32_t Tracer::thread_index() {
  const auto [it, inserted] = threads_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  return it->second;
}

void Tracer::record(const char* name, const char* layer, std::uint64_t request,
                    std::uint64_t id, std::uint64_t parent, std::int64_t start,
                    std::int64_t end) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back({name, layer, request, id, parent, start, end,
                    thread_index()});
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer,
                     std::uint64_t request, std::uint64_t parent)
    : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr),
      name_(name),
      layer_(layer),
      request_(request),
      parent_(parent) {
  if (tracer_ != nullptr) {
    id_ = tracer_->new_id();
    start_ = tracer_->now();
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->record(name_, layer_, request_, id_, parent_, start_,
                    tracer_->now());
  }
}

std::map<std::string, double> Tracer::self_ms() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to this span: children
      // may overlap (concurrent reads), and only covered time is excluded.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t lo = 0;
      std::int64_t hi = -1;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > hi) {
          if (hi > lo) covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      if (hi > lo) covered += hi - lo;
    }
    const std::int64_t self = std::max<std::int64_t>(0, s.end - s.start - covered);
    out[s.layer] += static_cast<double>(self) * 1e-6;
  }
  return out;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end - s.start) * 1e-3);
  }
  return out;
}

std::size_t Tracer::kept() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write_chrome(const std::filesystem::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"span\":%llu,\"parent\":%llu}}%s\n",
                 s.name, s.layer, s.tid, static_cast<double>(s.start) * 1e-3,
                 static_cast<double>(s.end - s.start) * 1e-3,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
