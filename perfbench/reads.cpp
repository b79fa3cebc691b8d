// degraded-read and straggler-read: open-loop requests through
// DecodeServers with library defaults. One generator thread submits at
// evenly spaced due times; one collector thread observes completions,
// times each request from its due time, and checks the recovered blocks
// against the pristine stripe outside the timed interval.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

using ppm::Timer;

/// BlockSource wrapper that records one "io.read" span per read of a
/// sampled request (one in four requests of the traced windows).
class TimingSource : public ppm::io::BlockSource {
 public:
  TimingSource(ppm::io::BlockSource& inner, Tracer* tracer,
               std::uint64_t request, std::uint64_t parent, bool sampled)
      : inner_(inner), tracer_(tracer), request_(request), parent_(parent),
        sampled_(sampled) {}
  std::size_t block_count() const override { return inner_.block_count(); }
  std::size_t block_bytes() const override { return inner_.block_bytes(); }
  ppm::io::ReadStatus read(std::size_t block, std::uint8_t* dst,
                           std::size_t bytes) override {
    if (!sampled_) return inner_.read(block, dst, bytes);
    const std::int64_t t0 = tracer_->now();
    const ppm::io::ReadStatus st = inner_.read(block, dst, bytes);
    tracer_->record("io.read", "io", request_, tracer_->new_id(), parent_, t0,
                    tracer_->now());
    return st;
  }

 private:
  ppm::io::BlockSource& inner_;
  Tracer* tracer_;
  std::uint64_t request_;
  std::uint64_t parent_;
  bool sampled_;
};

/// One code's serving stack and data.
struct Service {
  std::unique_ptr<ppm::SDCode> code;
  std::unique_ptr<ppm::Codec> codec;
  std::unique_ptr<ppm::serve::DecodeServer> server;
  std::vector<std::unique_ptr<ppm::Stripe>> data;  ///< pristine stripes
  std::vector<std::vector<std::uint32_t>> crc;     ///< per stripe, per block
  std::vector<ppm::FailureScenario> scenarios;     ///< Zipf rank order
  std::vector<double> cdf;                          ///< Zipf CDF over ranks
  std::size_t stripe_bytes = 0;
  // Request buffers, reused LIFO so the hot ones stay in cache.
  std::vector<std::unique_ptr<ppm::Stripe>> slots;
  std::vector<std::size_t> free_slots;
};

struct Planned {
  std::int64_t due_ns = 0;
  std::uint32_t service = 0;
  std::uint32_t stripe = 0;
  std::uint32_t scenario = 0;
  std::uint8_t phase = 0;  ///< rate index
  std::uint16_t window = 0;
  bool traced = false;
};

struct Done {
  double latency_ms = 0;  ///< due time -> observed completion
  double queue_ms = 0;    ///< submit -> decode start (estimated)
  double fetch_ms = 0;
  double post_fetch_ms = 0;
  std::uint8_t phase = 0;
  std::uint16_t window = 0;
  bool traced = false;
  bool completed = false;  ///< admitted, finished and byte-correct
  bool rejected = false;
  bool overlapped = false;
  bool fallback = false;
  std::size_t reads_issued = 0;
  std::size_t hedges_launched = 0, hedges_won = 0, hedges_wasted = 0;
  std::size_t service = 0;
  std::size_t scenario = 0;
};

/// The open-loop engine shared by both read workloads.
class OpenLoop {
 public:
  struct Options {
    std::size_t block_bytes = 4096;
    bool straggle = false;  ///< per-request seeded transient stragglers
    std::uint64_t seed = 1;
  };

  OpenLoop(std::vector<Service>& services, Tracer* tracer, Options options)
      : services_(services), tracer_(tracer), opt_(options) {}

  /// Runs `plan` (sorted by due time) and returns one Done per request.
  std::vector<Done> run(const std::vector<Planned>& plan,
                        std::vector<double>& lag_ms) {
    done_.assign(plan.size(), Done{});
    generator_done_ = false;
    std::thread collector([this] { collect(); });
    const auto start = std::chrono::steady_clock::now();
    lag_ms.clear();
    lag_ms.reserve(plan.size());
    steal_marks_.clear();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      submit_one(i, plan[i], start, lag_ms);
    }
    steal_marks_.push_back(steal_ticks());
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      generator_done_ = true;
    }
    cv_.notify_all();
    collector.join();
    return std::move(done_);
  }

  /// Host steal ticks of each 1 s window, read after run() returns.
  std::vector<std::uint64_t> window_steal() const {
    std::vector<std::uint64_t> out;
    for (std::size_t w = 0; w + 1 < steal_marks_.size(); ++w) {
      out.push_back(steal_marks_[w + 1] - steal_marks_[w]);
    }
    return out;
  }

  // Written by the collector; read after run() returns.
  double straggled_reads = 0;
  double reads_attempted = 0;
  std::size_t mismatches = 0;  ///< completed requests with wrong bytes

 private:
  struct InFlight {
    std::size_t index = 0;
    std::size_t slot = 0;
    std::int64_t due_ns = 0;     ///< tracer clock
    std::int64_t submit_ns = 0;  ///< tracer clock, after submit returned
    std::int64_t submit_start_ns = 0;
    std::uint64_t request = 0;
    std::uint64_t decode_span = 0;
    const std::uint8_t* const* pristine = nullptr;
    std::unique_ptr<ppm::io::MemoryBlockSource> inner;
    std::unique_ptr<ppm::io::FaultInjectingSource> faults;
    std::unique_ptr<TimingSource> timing;
    std::future<ppm::serve::OverlapResult> future;
  };

  std::size_t acquire_slot(Service& s) {
    std::unique_lock<std::mutex> lock(mutex_);
    slot_cv_.wait(lock, [&] { return !s.free_slots.empty(); });
    const std::size_t slot = s.free_slots.back();
    s.free_slots.pop_back();
    return slot;
  }

  void release_slot(Service& s, std::size_t slot) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      s.free_slots.push_back(slot);
    }
    slot_cv_.notify_one();
  }

  void submit_one(std::size_t i, const Planned& p,
                  std::chrono::steady_clock::time_point start,
                  std::vector<double>& lag_ms) {
    Service& s = services_[p.service];
    const ppm::FailureScenario& sc = s.scenarios[p.scenario];
    auto f = std::make_unique<InFlight>();
    f->index = i;
    f->slot = acquire_slot(s);
    ppm::Stripe& buf = *s.slots[f->slot];
    buf.erase(sc);
    const std::size_t total = s.code->total_blocks();
    f->pristine = s.data[p.stripe]->block_ptrs();
    f->inner = std::make_unique<ppm::io::MemoryBlockSource>(
        f->pristine, total, opt_.block_bytes);
    ppm::io::BlockSource* source = f->inner.get();
    if (opt_.straggle) {
      f->faults = std::make_unique<ppm::io::FaultInjectingSource>(*f->inner);
      ppm::io::FaultInjectingSource::CampaignOptions campaign;
      campaign.delay = params::kStraggleShare;
      campaign.delay_ns = std::chrono::microseconds(params::kStraggleDelayUs);
      campaign.delay_attempts = 1;
      ppm::Rng rng(mix_seed(opt_.seed, 0x57A00000ULL + i));
      const std::vector<std::size_t> exempt(sc.faulty().begin(),
                                            sc.faulty().end());
      f->faults->roll_campaign(campaign, rng, exempt);
      source = f->faults.get();
    }
    f->request = tracer_->new_id();
    f->decode_span = tracer_->new_id();
    f->timing = std::make_unique<TimingSource>(
        *source, tracer_, f->request, f->decode_span,
        p.traced && i % 4 == 0);
    ppm::serve::ServeRequest req;
    req.scenario = sc;
    req.source = f->timing.get();
    req.blocks = buf.block_ptrs();
    req.block_bytes = opt_.block_bytes;
    req.expected_crc = s.crc[p.stripe];

    const auto due = start + std::chrono::nanoseconds(p.due_ns);
    std::this_thread::sleep_until(due);
    // Windows follow each other without gaps, so a window's first due
    // time closes the previous one.
    while (steal_marks_.size() <= p.window) {
      steal_marks_.push_back(steal_ticks());
    }
    const auto now = std::chrono::steady_clock::now();
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(now - due).count());
    f->due_ns = tracer_->now() -
                std::chrono::duration_cast<std::chrono::nanoseconds>(now - due)
                    .count();
    f->submit_start_ns = tracer_->now();
    auto fut = s.server->submit(std::move(req));
    f->submit_ns = tracer_->now();
    Done& d = done_[i];
    d.phase = p.phase;
    d.window = p.window;
    d.traced = p.traced;
    d.service = p.service;
    d.scenario = p.scenario;
    if (!fut.has_value()) {
      d.rejected = true;
      release_slot(s, f->slot);
      return;
    }
    f->future = std::move(*fut);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      incoming_.push_back(std::move(f));
    }
    cv_.notify_one();
  }

  void collect() {
    std::vector<std::unique_ptr<InFlight>> pending;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (pending.empty()) {
          cv_.wait(lock, [&] { return !incoming_.empty() || generator_done_; });
        }
        for (auto& f : incoming_) pending.push_back(std::move(f));
        incoming_.clear();
        if (pending.empty() && generator_done_) return;
      }
      pending.front()->future.wait_for(std::chrono::microseconds(100));
      for (std::size_t k = 0; k < pending.size();) {
        if (pending[k]->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++k;
          continue;
        }
        complete(*pending[k], tracer_->now());
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
  }

  void complete(InFlight& f, std::int64_t observed_ns) {
    Done& d = done_[f.index];
    Service& s = services_[d.service];
    const ppm::serve::OverlapResult out = f.future.get();
    d.latency_ms = static_cast<double>(observed_ns - f.due_ns) * 1e-6;
    // The server does not expose when the decode started; it is estimated
    // back from the observed completion, which trails the real one by at
    // most one collector poll.
    const std::int64_t decode_start = observed_ns - out.total_ns;
    d.queue_ms = static_cast<double>(decode_start - f.submit_ns) * 1e-6;
    d.fetch_ms = static_cast<double>(out.last_read_complete_ns) * 1e-6;
    d.post_fetch_ms =
        static_cast<double>(out.total_ns - out.last_read_complete_ns) * 1e-6;
    d.overlapped = out.overlapped;
    d.fallback = out.fallback;
    d.reads_issued = out.reads_issued;
    d.hedges_launched = out.hedges_launched;
    d.hedges_won = out.hedges_won;
    d.hedges_wasted = out.hedges_wasted;
    const ppm::FailureScenario& sc = s.scenarios[d.scenario];
    const std::size_t bad =
        out.complete ? count_mismatched(s.slots[f.slot]->block_ptrs(),
                                        f.pristine, sc.faulty(),
                                        opt_.block_bytes)
                     : 0;
    d.completed = out.complete && bad == 0;
    mismatches += bad != 0 ? 1 : 0;
    if (f.faults != nullptr) {
      straggled_reads += static_cast<double>(f.faults->delays_injected());
      reads_attempted += static_cast<double>(f.faults->reads_attempted());
    }
    if (d.traced) {
      Tracer& t = *tracer_;
      t.record("request", "harness", f.request, f.request, 0, f.due_ns,
               observed_ns);
      t.record("serve.submit", "serve", f.request, t.new_id(), f.request,
               f.submit_start_ns, f.submit_ns);
      if (decode_start > f.submit_ns) {
        t.record("serve.queue", "serve", f.request, t.new_id(), f.request,
                 f.submit_ns, decode_start);
      }
      t.record("serve.decode_overlapped", "serve", f.request, f.decode_span,
               f.request, decode_start, observed_ns);
    }
    release_slot(s, f.slot);
  }

  std::vector<Service>& services_;
  Tracer* tracer_;
  Options opt_;
  std::vector<Done> done_;
  std::mutex mutex_;  ///< guards incoming_, generator_done_, free slots
  std::condition_variable cv_;
  std::condition_variable slot_cv_;
  std::deque<std::unique_ptr<InFlight>> incoming_;
  bool generator_done_ = false;
  std::vector<std::uint64_t> steal_marks_;  ///< generator thread only
};

struct CodeSpec {
  std::size_t n, r;
  unsigned w;
};

/// Distinct seeded worst-case scenarios (m=2 disks + s=2 sectors, z=1) in
/// generation order, which is also their Zipf rank.
std::vector<ppm::FailureScenario> distinct_scenarios(
    const ppm::ErasureCode& code, std::size_t count, std::uint64_t seed) {
  ppm::ScenarioGenerator gen(seed);
  std::set<std::vector<std::size_t>> seen;
  std::vector<ppm::FailureScenario> out;
  while (out.size() < count) {
    ppm::FailureScenario sc = gen.sd_worst_case(code, 2, 2, 1).scenario;
    if (seen.insert({sc.faulty().begin(), sc.faulty().end()}).second) {
      out.push_back(std::move(sc));
    }
  }
  return out;
}

std::vector<double> zipf_cdf(std::size_t n, double skew) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
    cdf[k] = total;
  }
  return cdf;
}

std::size_t draw(const std::vector<double>& cdf, ppm::Rng& rng) {
  const auto it =
      std::upper_bound(cdf.begin(), cdf.end(), rng.uniform() * cdf.back());
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

/// Set-up of the serving stacks, repeated kSetupReps times from a cold
/// coefficient cache; `setup_s` receives each repetition's wall time. The
/// last repetition's stacks are returned, without data.
std::vector<Service> setup_services(
    const RunContext& ctx, const std::vector<CodeSpec>& specs,
    const std::vector<std::vector<ppm::FailureScenario>>& warm,
    bool with_store, std::vector<Sample>& setup_s) {
  std::vector<Service> services;
  for (int rep = 0; rep < params::kSetupReps; ++rep) {
    services.clear();
    ppm::clear_sd_coefficient_cache();
    const StealTimer t;
    services.resize(specs.size());
    for (std::size_t k = 0; k < specs.size(); ++k) {
      Service& s = services[k];
      s.code = std::make_unique<ppm::SDCode>(specs[k].n, specs[k].r, 2, 2,
                                             specs[k].w);
      s.codec = std::make_unique<ppm::Codec>(*s.code);
      if (with_store) {
        s.codec->attach_store(
            fresh_subdir(ctx, "store" + std::to_string(k) + "-setup" +
                                  std::to_string(rep))
                .string());
      }
      s.server = std::make_unique<ppm::serve::DecodeServer>(*s.codec);
      for (const auto& sc : warm[k]) s.codec->plan_for(sc);
    }
    setup_s.push_back({t.seconds(), t.steal()});
  }
  return services;
}

/// Pristine stripes (reference-encoded), their CRCs and request buffers.
void fill_service(Service& s, std::size_t stripes, std::size_t slots,
                  std::size_t block, std::uint64_t seed) {
  const ppm::TraditionalDecoder reference(*s.code);
  const std::size_t total = s.code->total_blocks();
  s.stripe_bytes = total * block;
  for (std::size_t i = 0; i < stripes; ++i) {
    auto st = std::make_unique<ppm::Stripe>(*s.code, block);
    ppm::Rng rng(mix_seed(seed, i));
    st->fill_data(rng);
    if (!reference.encode(st->block_ptrs(), block)) {
      throw std::runtime_error("reference encode failed");
    }
    std::vector<std::uint32_t> crc(total);
    for (std::size_t b = 0; b < total; ++b) crc[b] = ppm::crc32(st->block(b), block);
    s.data.push_back(std::move(st));
    s.crc.push_back(std::move(crc));
  }
  for (std::size_t i = 0; i < slots; ++i) {
    s.slots.push_back(std::make_unique<ppm::Stripe>(*s.code, block));
    s.free_slots.push_back(slots - 1 - i);
  }
}

/// Arrivals in 1 s windows: window w runs at rates[w % rates.size()],
/// evenly spaced from a seeded offset, and in a traced run every other
/// round of windows is traced. Request content (code, stripe, scenario)
/// is drawn from the seed. Even spacing keeps the offered load the same in
/// every window, so run-to-run differences come from the system.
std::vector<Planned> schedule(const RunContext& ctx,
                              const std::vector<double>& rates,
                              const std::vector<Service>& services,
                              std::size_t stripes) {
  ppm::Rng rng(mix_seed(ctx.seed, 0x5C4ED));
  const auto windows = std::max<std::size_t>(
      2 * rates.size(), static_cast<std::size_t>(ctx.seconds));
  std::vector<Planned> plan;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t phase = w % rates.size();
    const bool traced = ctx.trace && (w / rates.size()) % 2 == 1;
    const double gap = 1e9 / rates[phase];
    const double end = static_cast<double>(w + 1) * 1e9;
    for (double t = static_cast<double>(w) * 1e9 + rng.uniform() * gap;
         t < end; t += gap) {
      Planned p;
      p.due_ns = static_cast<std::int64_t>(t);
      // Codes alternate, so every window offers each code the same load.
      p.service = static_cast<std::uint32_t>(plan.size() % services.size());
      p.stripe = static_cast<std::uint32_t>(rng.bounded(stripes));
      p.scenario =
          static_cast<std::uint32_t>(draw(services[p.service].cdf, rng));
      p.phase = static_cast<std::uint8_t>(phase);
      p.window = static_cast<std::uint16_t>(w);
      p.traced = traced;
      plan.push_back(p);
    }
  }
  return plan;
}

struct ServeCounts {
  double batches = 0, batched = 0;
  static ServeCounts now() {
    const ppm::ServeMetrics& m = ppm::serve_metrics();
    return {static_cast<double>(m.batches.value()),
            static_cast<double>(m.batched_requests.value())};
  }
};

/// Latency metrics of one rate phase over a set of untraced (traced =
/// false) or traced windows. The codes' latencies form separate clusters
/// (an SD(16,16) stripe has twice the blocks of an SD(8,16) one), so a
/// quantile over both lands between the clusters and jumps with their
/// mix: each quantile is taken per code, then the geometric mean over
/// codes.
struct PhaseStats {
  std::vector<std::vector<double>> by_code;
  std::size_t attempted = 0;
  std::size_t within_slo = 0;
  double at(double q) const {
    std::vector<double> v;
    for (const auto& c : by_code) v.push_back(quantile(c, q));
    return geomean(v);
  }
  double p50() const { return at(0.5); }
};

/// The calmer half (by host steal) of the windows of one rate phase,
/// traced or not, as a flag per window id.
std::vector<bool> calm_phase_windows(const std::vector<Planned>& plan,
                                     const std::vector<std::uint64_t>& steal,
                                     int phase, bool traced) {
  std::vector<std::size_t> ids;
  for (const Planned& p : plan) {
    if (p.phase == phase && p.traced == traced &&
        (ids.empty() || ids.back() != p.window)) {
      ids.push_back(p.window);
    }
  }
  std::vector<std::uint64_t> of_phase;
  for (const std::size_t w : ids) {
    of_phase.push_back(w < steal.size() ? steal[w] : 0);
  }
  const std::vector<bool> calm = calm_windows(of_phase);
  std::vector<bool> keep(steal.size(), false);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (ids[k] < keep.size()) keep[ids[k]] = calm[k];
  }
  return keep;
}

/// Statistics of one phase over the windows flagged in `windows`.
PhaseStats phase_stats(const std::vector<Done>& done, std::size_t codes,
                       int phase, bool traced,
                       const std::vector<bool>& windows) {
  PhaseStats st;
  st.by_code.resize(codes);
  for (const Done& d : done) {
    if (d.phase != phase || d.traced != traced) continue;
    if (d.window >= windows.size() || !windows[d.window]) continue;
    ++st.attempted;
    if (!d.completed) continue;
    st.by_code[d.service].push_back(d.latency_ms);
    if (d.latency_ms <= params::kReadSloMs) ++st.within_slo;
  }
  return st;
}

/// The calmer half of each phase's untraced windows, merged.
std::vector<bool> calm_untraced(const std::vector<Planned>& plan,
                                const std::vector<std::uint64_t>& steal,
                                int phases) {
  std::vector<bool> keep(steal.size(), false);
  for (int ph = 0; ph < phases; ++ph) {
    const std::vector<bool> k = calm_phase_windows(plan, steal, ph, false);
    for (std::size_t w = 0; w < keep.size(); ++w) keep[w] = keep[w] || k[w];
  }
  return keep;
}

/// Shared accounting of one open-loop run: attempted/failed, host steal,
/// the generator's lag and gbps over the `calm` windows, the serve/io/codec
/// layer metrics and the probes.
void account(const RunContext& ctx, std::vector<Service>& services,
             const std::vector<Planned>& plan, const std::vector<Done>& done,
             const OpenLoop& loop, const std::vector<double>& lag_ms,
             const std::vector<bool>& calm,
             const std::vector<CodecCounts>& codec_delta,
             const ServeCounts& serve_delta, std::size_t block, Report& rep) {
  for (const Done& d : done) {
    ++rep.attempted;
    if (!d.completed) ++rep.failed;
  }
  rep.mismatches += loop.mismatches;
  // The lag bound guards the windows the result is taken from; a late
  // generator in a window dropped for its steal does not reach the result.
  std::vector<double> calm_lag_ms;
  for (std::size_t i = 0; i < lag_ms.size() && i < plan.size(); ++i) {
    const std::size_t w = plan[i].window;
    if (w < calm.size() && calm[w]) calm_lag_ms.push_back(lag_ms[i]);
  }
  const double lag_p99 = quantile(lag_ms, 0.99);
  rep.realized["loadgen_lag_ms_p99"] = quantile(calm_lag_ms, 0.99);
  rep.realized["loadgen_lag_ms_p99_all_windows"] = lag_p99;
  rep.withheld = rep.realized["loadgen_lag_ms_p99"] > params::kLagBoundMs;
  const std::vector<std::uint64_t> steal = loop.window_steal();
  std::uint64_t steal_all = 0;
  for (const std::uint64_t s : steal) steal_all += s;
  rep.realized["host_steal_frac"] =
      steal_share(steal_all, static_cast<double>(steal.size()));
  rep.samples["windows"] = steal.size();
  rep.samples["calm_windows"] = static_cast<std::size_t>(
      std::count(calm.begin(), calm.end(), true));
  // Per code, the median of stripe bytes / request latency over the calm
  // windows; then the geometric mean over codes.
  std::vector<std::vector<double>> per_request_gbps(services.size());
  for (const Done& d : done) {
    if (!d.completed || d.traced) continue;
    if (d.window >= calm.size() || !calm[d.window]) continue;
    per_request_gbps[d.service].push_back(
        static_cast<double>(services[d.service].stripe_bytes) /
        (d.latency_ms * 1e-3) / 1e9);
  }
  std::vector<double> code_gbps;
  for (const auto& v : per_request_gbps) code_gbps.push_back(median(v));
  rep.e2e["gbps"] = geomean(code_gbps);
  if (!ctx.trace) return;

  auto& L = rep.layer;
  L["loadgen.lag_ms_p99"] = lag_p99;
  CodecCounts c;
  for (const auto& d : codec_delta) c = c + d;
  L["codec.plan_hit_ratio"] = ratio(c.hits, c.hits + c.misses);
  std::vector<double> queue, fetch, post;
  double completed = 0, overlapped = 0, fallback = 0;
  double launched = 0, won = 0, wasted = 0, issued = 0, needed = 0;
  // Survivors each scenario's plan needs, from its readiness sets.
  std::vector<std::map<std::size_t, std::size_t>> need(services.size());
  for (std::size_t k = 0; k < services.size(); ++k) {
    ppm::Codec counter(*services[k].code);
    for (const Done& d : done) {
      if (d.service != k || need[k].count(d.scenario) != 0) continue;
      const auto p = counter.plan_for(services[k].scenarios[d.scenario]);
      need[k][d.scenario] =
          p == nullptr ? 0 : ppm::hazard::plan_readiness(*p).all_inputs.size();
    }
  }
  for (const Done& d : done) {
    if (!d.completed) continue;
    ++completed;
    queue.push_back(d.queue_ms);
    fetch.push_back(d.fetch_ms);
    post.push_back(d.post_fetch_ms);
    overlapped += d.overlapped ? 1 : 0;
    fallback += d.fallback ? 1 : 0;
    launched += static_cast<double>(d.hedges_launched);
    won += static_cast<double>(d.hedges_won);
    wasted += static_cast<double>(d.hedges_wasted);
    issued += static_cast<double>(d.reads_issued);
    needed += static_cast<double>(need[d.service][d.scenario]);
  }
  L["serve.queue_ms_p50"] = quantile(queue, 0.5);
  L["serve.queue_ms_p99"] = quantile(queue, 0.99);
  L["serve.fetch_ms_p50"] = quantile(fetch, 0.5);
  L["serve.post_fetch_ms_p50"] = quantile(post, 0.5);
  L["serve.batched_frac"] =
      ratio(serve_delta.batched - serve_delta.batches, serve_delta.batched);
  L["serve.overlapped_frac"] = ratio(overlapped, completed);
  L["serve.fallback_frac"] = ratio(fallback, completed);
  L["serve.hedge_win_ratio"] = ratio(won, launched);
  L["serve.hedge_waste_ratio"] = ratio(wasted, launched);
  L["io.reads_per_request"] = ratio(issued, needed);
  L["io.straggled_frac"] = ratio(loop.straggled_reads, loop.reads_attempted);
  const std::vector<double> reads = ctx.tracer->durations_us("io.read");
  L["io.read_us_p50"] = quantile(reads, 0.5);
  L["io.read_us_p99"] = quantile(reads, 0.99);

  ctx.tracer->set_active(true);
  std::vector<ProbeInput> inputs;
  for (std::size_t k = 0; k < services.size(); ++k) {
    ProbeInput in;
    in.code = services[k].code.get();
    in.block_bytes = block;
    std::map<std::size_t, std::size_t> counts;
    for (const Planned& p : plan) {
      if (p.service == k) ++counts[p.scenario];
    }
    for (const auto& [sc, n] : counts) {
      in.decoded.push_back({services[k].scenarios[sc], n});
    }
    in.codec = services[k].codec.get();
    in.pristine = services[k].data[0]->block_ptrs();
    inputs.push_back(std::move(in));
  }
  probe_layers(ctx, inputs, rep);
  ctx.tracer->set_active(false);
}

/// The degraded-read serving stacks (SD(8,16) at w=8, SD(16,16) at w=16):
/// Zipf-ranked scenarios, set-up timed into `setup`, then data and `slots`
/// request buffers per code.
std::vector<Service> degraded_read_services(const RunContext& ctx,
                                            std::size_t slots,
                                            std::vector<Sample>& setup) {
  const std::vector<CodeSpec> specs = {{8, 16, 8}, {16, 16, 16}};
  std::vector<std::vector<ppm::FailureScenario>> scenarios, warm;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const ppm::SDCode gen_code(specs[k].n, specs[k].r, 2, 2, specs[k].w);
    scenarios.push_back(distinct_scenarios(gen_code, params::kReadScenarios,
                                           mix_seed(ctx.seed, 0xD0 + k)));
    // Plan warm-up: the cache-sized head of the Zipf ranking.
    warm.emplace_back(scenarios.back().begin(),
                      scenarios.back().begin() + 64);
  }
  std::vector<Service> services =
      setup_services(ctx, specs, warm, /*with_store=*/true, setup);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    services[k].scenarios = scenarios[k];
    services[k].cdf = zipf_cdf(params::kReadScenarios, params::kZipfSkew);
    fill_service(services[k], params::kReadStripes, slots, params::kReadBlock,
                 mix_seed(ctx.seed, 0xDA7A + k));
  }
  return services;
}

}  // namespace

Report run_degraded_read(const RunContext& ctx) {
  const std::size_t block = params::kReadBlock;
  Report rep;
  std::vector<Sample> setup;
  std::vector<Service> services = degraded_read_services(ctx, 96, setup);

  const std::vector<Planned> plan =
      schedule(ctx, {params::kReadLoRate, params::kReadHiRate}, services,
               params::kReadStripes);
  std::vector<CodecCounts> before;
  for (const Service& s : services) before.push_back(CodecCounts::of(*s.codec));
  const ServeCounts serve_before = ServeCounts::now();
  OpenLoop loop(services, ctx.tracer, {block, false, ctx.seed});
  std::vector<double> lag;
  const std::vector<Done> done = loop.run(plan, lag);
  const ServeCounts serve_after = ServeCounts::now();
  std::vector<CodecCounts> delta;
  for (std::size_t k = 0; k < services.size(); ++k) {
    delta.push_back(CodecCounts::of(*services[k].codec) - before[k]);
  }

  const std::vector<std::uint64_t> steal = loop.window_steal();
  const PhaseStats lo = phase_stats(done, services.size(), 0, false,
                                    calm_phase_windows(plan, steal, 0, false));
  const PhaseStats hi = phase_stats(done, services.size(), 1, false,
                                    calm_phase_windows(plan, steal, 1, false));
  // Every hi window, for the SLO share: a miss counts wherever it falls.
  const PhaseStats hi_all = phase_stats(done, services.size(), 1, false,
                                        std::vector<bool>(steal.size(), true));
  rep.e2e["setup_s"] = calm_median(setup);
  rep.e2e["p50_ms"] = hi.p50();
  rep.named["read_lo_p50_ms"] = {lo.p50(), "ms"};
  rep.named["read_lo_p99_ms"] = {lo.at(0.99), "ms"};
  rep.named["read_hi_p50_ms"] = {hi.p50(), "ms"};
  rep.named["read_hi_p99_ms"] = {hi.at(0.99), "ms"};
  rep.named["read_hi_slo_frac"] = {
      ratio(static_cast<double>(hi_all.within_slo),
            static_cast<double>(hi_all.attempted)),
      "ratio"};
  rep.samples["lo_requests_calm"] = lo.attempted;
  rep.samples["hi_requests_calm"] = hi.attempted;
  CodecCounts c;
  for (const auto& d : delta) c = c + d;
  rep.realized["plan_hit_ratio"] = ratio(c.hits, c.hits + c.misses);
  rep.realized["store_served_ratio"] = ratio(c.loads, c.misses);

  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"codes\":[\"%s\",\"%s\"],\"w\":[8,16],\"block_bytes\":%zu,"
      "\"stripes_per_code\":%zu,\"dataset_bytes\":%zu,"
      "\"scenarios_per_code\":%zu,\"zipf_skew\":%.2f,\"lo_rate_per_s\":%.1f,"
      "\"hi_rate_per_s\":%.1f,\"slo_ms\":%.1f,\"window_s\":1,"
      "\"loop\":\"open, evenly spaced arrivals, 1 generator + 1 collector\","
      "\"lag_bound_ms\":%.1f}",
      services[0].code->name().c_str(), services[1].code->name().c_str(),
      block, params::kReadStripes,
      params::kReadStripes * (services[0].stripe_bytes + services[1].stripe_bytes),
      params::kReadScenarios, params::kZipfSkew, params::kReadLoRate,
      params::kReadHiRate, params::kReadSloMs, params::kLagBoundMs);
  rep.params_json = buf;

  account(ctx, services, plan, done, loop, lag,
          calm_untraced(plan, steal, 2), delta,
          {serve_after.batches - serve_before.batches,
           serve_after.batched - serve_before.batched},
          block, rep);
  if (ctx.trace) {
    rep.layer["plan_store.served_ratio"] = ratio(c.loads, c.misses);
    rep.layer["trace.overhead_frac"] =
        ratio(phase_stats(done, services.size(), 1, true,
                          calm_phase_windows(plan, steal, 1, true))
                  .p50(),
              hi.p50()) -
        1.0;
  }
  for (Service& s : services) s.server->shutdown();
  return rep;
}

Report run_straggler_read(const RunContext& ctx) {
  const std::vector<CodeSpec> specs = {{8, 16, 8}};
  const std::size_t block = params::kReadBlock;
  Report rep;
  std::vector<std::vector<ppm::FailureScenario>> hot;
  {
    const ppm::SDCode gen_code(8, 16, 2, 2, 8);
    hot.push_back(distinct_scenarios(gen_code, 1, mix_seed(ctx.seed, 0x57)));
  }
  std::vector<Sample> setup;
  std::vector<Service> services =
      setup_services(ctx, specs, hot, /*with_store=*/false, setup);
  services[0].scenarios = hot[0];
  services[0].cdf = {1.0};
  fill_service(services[0], params::kStraggleStripes, 64, block,
               mix_seed(ctx.seed, 0xDA7A));

  const std::vector<Planned> plan =
      schedule(ctx, {params::kStraggleRate}, services,
               params::kStraggleStripes);
  const CodecCounts before = CodecCounts::of(*services[0].codec);
  const ServeCounts serve_before = ServeCounts::now();
  OpenLoop loop(services, ctx.tracer, {block, true, ctx.seed});
  std::vector<double> lag;
  const std::vector<Done> done = loop.run(plan, lag);
  const ServeCounts serve_after = ServeCounts::now();
  const CodecCounts delta =
      CodecCounts::of(*services[0].codec) - before;

  const std::vector<std::uint64_t> steal = loop.window_steal();
  const PhaseStats st = phase_stats(done, 1, 0, false,
                                    calm_phase_windows(plan, steal, 0, false));
  rep.e2e["setup_s"] = calm_median(setup);
  rep.e2e["p50_ms"] = st.p50();
  rep.named["straggle_p50_ms"] = {st.p50(), "ms"};
  rep.named["straggle_p99_ms"] = {st.at(0.99), "ms"};
  rep.samples["requests_calm"] = st.attempted;
  rep.realized["straggled_read_share"] =
      ratio(loop.straggled_reads, loop.reads_attempted);

  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"code\":\"%s\",\"w\":8,\"block_bytes\":%zu,\"stripes\":%zu,"
      "\"dataset_bytes\":%zu,\"scenarios\":1,\"rate_per_s\":%.1f,"
      "\"straggler_campaign\":{\"delay_share\":%.2f,\"delay_us\":%lld,"
      "\"delay_attempts\":1},\"window_s\":1,"
      "\"loop\":\"open, evenly spaced arrivals, 1 generator + 1 collector\","
      "\"lag_bound_ms\":%.1f}",
      services[0].code->name().c_str(), block, params::kStraggleStripes,
      params::kStraggleStripes * services[0].stripe_bytes,
      params::kStraggleRate, params::kStraggleShare,
      static_cast<long long>(params::kStraggleDelayUs), params::kLagBoundMs);
  rep.params_json = buf;

  account(ctx, services, plan, done, loop, lag,
          calm_untraced(plan, steal, 1), {delta},
          {serve_after.batches - serve_before.batches,
           serve_after.batched - serve_before.batched},
          block, rep);
  if (ctx.trace) {
    rep.layer["trace.overhead_frac"] =
        ratio(phase_stats(done, 1, 0, true,
                          calm_phase_windows(plan, steal, 0, true))
                  .p50(),
              st.p50()) -
        1.0;
  }
  services[0].server->shutdown();
  return rep;
}

double measure_read_capacity(const RunContext& ctx) {
  // Closed loop: every request is due at once and the generator can hold
  // only 8 buffers per server, so at most 16 requests are outstanding.
  std::vector<Sample> setup;
  std::vector<Service> services = degraded_read_services(ctx, 8, setup);
  std::vector<Planned> plan = schedule(ctx, {1000.0}, services,
                                       params::kReadStripes);
  for (Planned& p : plan) p.due_ns = 0;
  OpenLoop loop(services, ctx.tracer, {params::kReadBlock, false, ctx.seed});
  std::vector<double> lag;
  const Timer t;
  const std::vector<Done> done = loop.run(plan, lag);
  const double secs = t.seconds();
  for (Service& s : services) s.server->shutdown();
  return static_cast<double>(done.size()) / secs;
}

}  // namespace perfbench
