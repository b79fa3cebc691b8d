// The repository benchmark's executable.
//
//   perfbench --workload <rebuild|degraded-read|straggler-read|scrub-repair>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--src-digest <hex>]
//   perfbench --selftest     checks that the oracle catches a corrupted block
//   perfbench --capacity     closed-loop capacity of the degraded-read servers
//
// Prints one self-describing record line and then, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. Without tracing
// the metrics are the end-to-end ones; with tracing, the per-layer ones,
// and the spans are written to .bench_out/ as Chrome trace_event JSON.
#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char name[49] = {};
  std::memcpy(name, regs, 48);
  std::string s(name);
  while (!s.empty() && s.back() == ' ') s.pop_back();
  return s;
}

bool has_gfni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (c & (1u << 8)) != 0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// {"key":value,...} over a map, each value rendered by `render`.
template <typename Map, typename Render>
std::string json_object(const Map& map, Render render) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":" + render(value);
  }
  return out + "}";
}

std::string metric_json(double value, const std::string& unit) {
  return "{\"value\":" + fmt(value) + ",\"unit\":\"" + unit + "\"}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  bool capacity = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) return std::nullopt;
      return std::string(argv[++i]);
    };
    if (k == "--selftest") {
      a.selftest = true;
    } else if (k == "--capacity") {
      a.capacity = true;
    } else {
      const auto v = value();
      if (!v) return std::nullopt;
      try {
        if (k == "--workload") a.workload = *v;
        else if (k == "--seed") a.seed = std::stoull(*v);
        else if (k == "--seconds") a.seconds = std::stod(*v);
        else if (k == "--trace") a.trace = std::stoi(*v);
        else if (k == "--git-sha") a.git_sha = *v;
        else if (k == "--src-digest") a.src_digest = *v;
        else return std::nullopt;
      } catch (const std::exception&) {
        return std::nullopt;
      }
    }
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) return std::nullopt;
  return a;
}

int run(const Args& args) {
  const std::map<std::string, std::function<Report(const RunContext&)>>
      workloads = {{"rebuild", run_rebuild},
                   {"degraded-read", run_degraded_read},
                   {"straggler-read", run_straggler_read},
                   {"scrub-repair", run_scrub_repair}};
  const auto it = workloads.find(args.workload);
  if (!args.capacity && it == workloads.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Tracer tracer;
  RunContext ctx;
  ctx.workload = args.capacity ? "capacity" : args.workload;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.trace = args.trace == 1;
  ctx.tracer = &tracer;
  const RunDir dir(std::filesystem::path(".bench_run") /
                   (ctx.workload + "-seed" + std::to_string(ctx.seed) + "-pid" +
                    std::to_string(::getpid())));
  ctx.run_dir = dir.path();

  if (args.capacity) {
    std::printf("{\"capacity_req_per_s\": %s}\n",
                fmt(measure_read_capacity(ctx)).c_str());
    return 0;
  }

  Report rep = it->second(ctx);
  const double fail_frac =
      ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted));
  rep.named["setup_s"] = {rep.e2e["setup_s"], "s"};
  rep.named["fail_frac"] = {fail_frac, "ratio"};

  std::string trace_file;
  if (ctx.trace) {
    for (const auto& [layer, ms] : tracer.self_ms()) {
      if (layer != "harness") rep.layer[layer + ".self_ms"] = ms;
    }
    std::filesystem::create_directories(".bench_out");
    trace_file = ".bench_out/trace-" + ctx.workload + "-seed" +
                 std::to_string(ctx.seed) + ".json";
    if (!tracer.write_chrome(trace_file)) {
      std::fprintf(stderr, "cannot write %s\n", trace_file.c_str());
      return 1;
    }
    fill_unmeasured_layers(rep);
  }

  // The self-describing record.
  std::string rec = "{\"record\":{\"bench\":\"perfbench\",\"workload\":\"" +
                    ctx.workload + "\",\"seed\":" + std::to_string(ctx.seed) +
                    ",\"seconds\":" + fmt(ctx.seconds) +
                    ",\"trace\":" + (ctx.trace ? "1" : "0");
  long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  rec += ",\"host\":{\"cpu\":\"" + json_escape(cpu_model()) +
         "\",\"cores\":" + std::to_string(ppm::hardware_threads()) +
         ",\"isa\":\"" + ppm::isa_name(ppm::detect_isa()) +
         "\",\"gfni\":" + (has_gfni() ? "true" : "false") +
         ",\"l3_bytes\":" + std::to_string(l3 > 0 ? l3 : 0) +
         ",\"git_sha\":\"" + json_escape(args.git_sha) +
         "\",\"src_digest\":\"" + json_escape(args.src_digest) + "\"}";
  rec += ",\"params\":" + rep.params_json;
  rec += ",\"metrics\":" +
         json_object(rep.named,
                     [](const auto& vu) { return metric_json(vu.first, vu.second); });
  rec += ",\"realized\":" +
         json_object(rep.realized, [](double v) { return fmt(v); });
  rec += ",\"samples\":" +
         json_object(rep.samples,
                     [](std::size_t n) { return std::to_string(n); });
  if (ctx.trace) {
    rec += ",\"trace_file\":\"" + trace_file + "\",\"spans\":" +
           std::to_string(tracer.kept()) +
           ",\"spans_dropped\":" + std::to_string(tracer.dropped());
  }
  rec += "}}";
  std::printf("%s\n", rec.c_str());

  if (rep.withheld) {
    std::fprintf(stderr,
                 "open-loop result withheld: load generator lag p99 %.3f ms "
                 "exceeds the %.1f ms bound\n",
                 rep.realized["loadgen_lag_ms_p99"], params::kLagBoundMs);
    return 3;
  }

  std::map<std::string, std::string> metrics;
  if (ctx.trace) {
    for (const LayerMetric& m : layer_metrics()) {
      metrics[m.name] = metric_json(rep.layer[m.name], m.unit);
    }
  } else {
    metrics["setup_s"] = metric_json(rep.e2e["setup_s"], "s");
    metrics["p50_ms"] = metric_json(rep.e2e["p50_ms"], "ms");
    metrics["gbps"] = metric_json(rep.e2e["gbps"], "GB/s");
  }
  const std::string out =
      std::string("{\"correct\":") + (rep.mismatches == 0 ? "true" : "false") +
      ",\"attempted\":" + std::to_string(rep.attempted) +
      ",\"failed\":" + std::to_string(rep.failed) + ",\"metrics\":" +
      json_object(metrics, [](const std::string& v) { return v; }) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return rep.mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> | --selftest | --capacity\n");
    return 2;
  }
  if (args->selftest) return oracle_selftest();
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
