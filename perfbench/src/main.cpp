// corbaft_perfbench — the repository's benchmark binary.
//
//   corbaft_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--out <dir>]
//   corbaft_perfbench metrics     # the metric catalog, one "kind name unit" line each
//   corbaft_perfbench selftest    # the benchmark's own helper tests
//
// Both kinds of run print every end-to-end number for people.  The JSON line
// they end with carries the end-to-end catalog (untraced) or the per-layer
// catalog (traced), as listed in catalog.hpp and BENCHMARK.json:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// A run exits nonzero when any op failed its correctness check.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "catalog.hpp"
#include "env_controls.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

int run_selftest();

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> catalog = {
      {"setup_s", "s"},
      {"cpu_ms_per_op", "ms"},
      {"op_p50_ms", "ms"},
      {"peak_rss_mb", "MiB"},
  };
  return catalog;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> catalog = {
      {"orb.value_encode_us", "us"},
      {"orb.value_decode_us", "us"},
      {"orb.frame_encode_us", "us"},
      {"orb.inproc_invoke_us", "us"},
      {"orb.send_us", "us"},
      {"orb.reply_wait_us", "us"},
      {"orb.allocs_per_op", "count"},
      {"orb.alloc_bytes_per_op", "bytes"},
      {"orb.ctx_switches_per_op", "count"},
      {"orb.wake_writes_per_op", "count"},
      {"orb.reactor_wakeups_per_op", "count"},
      {"orb.reactor_events_per_op", "count"},
      {"orb.dispatch_queue_wait_us", "us"},
      {"ft.proxy_call_us", "us"},
      {"ft.get_state_us", "us"},
      {"ft.store_us", "us"},
      {"ft.store_backend_us", "us"},
      {"ft.load_us", "us"},
      {"ft.set_state_us", "us"},
      {"ft.recover_us", "us"},
      {"ft.bytes_shipped_per_op", "bytes"},
      {"ft.checkpoints_per_op", "count"},
      {"ft.retries_per_op", "count"},
      {"ft.checkpoint_failures_per_op", "count"},
      {"ft.recoveries_per_op", "count"},
      {"naming.resolve_us", "us"},
      {"naming.rank_cache_hit_ratio", "ratio"},
      {"opt.complex_box_ms", "ms"},
      {"opt.evaluations_per_op", "count"},
      {"sim.events_per_op", "count"},
      {"sim.virtual_s_per_op", "virtual_s"},
      {"sim.virtual_overhead_pct", "%"},
      {"core.runtime_build_ms", "ms"},
      {"obs.tracing_overhead_pct", "%"},
      {"env.socket_pingpong_rt_per_s", "1/s"},
      {"env.cpu_spin_rate", "1/s"},
  };
  return catalog;
}

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

/// Seconds each environment control runs, before and after the window.
constexpr double kEnvControlSeconds = 0.25;
/// Steps of the workload probes (see probes.hpp).
constexpr int kTcpProbeRounds = 300;
constexpr int kFtProbeOps = 64;
constexpr int kSolverProbeOps = 2;

std::optional<double> span_median_s(const spans::SelfTimeReport& report,
                                    const std::string& name) {
  const auto it = report.by_name.find(name);
  if (it == report.by_name.end() || it->second.count == 0) return std::nullopt;
  return median_of(it->second.durations_s);
}

double per_op(double total, std::uint64_t ops) {
  return ops > 0 ? total / static_cast<double>(ops) : 0.0;
}

/// Layer of a span name: its prefix before the first dot.
std::string layer_of(const std::string& span_name) {
  if (span_name == "op") return "(uncovered)";
  return span_name.substr(0, span_name.find('.'));
}

void print_self_times(const spans::SelfTimeReport& report) {
  std::map<std::string, double> by_layer;
  for (const auto& [name, stats] : report.by_name) by_layer[layer_of(name)] += stats.self_s;
  const double ops = report.ops > 0 ? static_cast<double>(report.ops) : 1.0;
  std::printf("self time per traced op (%llu ops, op duration %.3f us):\n",
              static_cast<unsigned long long>(report.ops), 1e6 * report.root_total_s / ops);
  for (const auto& [layer, self_s] : by_layer)
    std::printf("  %-14s %12.3f us  %6.2f%%\n", layer.c_str(), 1e6 * self_s / ops,
                report.root_total_s > 0 ? 100.0 * self_s / report.root_total_s : 0.0);
  std::printf("  %-14s %12.3f us  (self times minus op duration)\n", "residual",
              1e6 * (report.self_total_s - report.root_total_s) / ops);
  for (const auto& [name, stats] : report.by_name)
    std::printf("    span %-22s n=%-8llu median %10.3f us  self/op %10.3f us\n",
                name.c_str(), static_cast<unsigned long long>(stats.count),
                1e6 * median_of(stats.durations_s), 1e6 * stats.self_s / ops);
}

/// A workload run for a few traced steps, only when first asked for.
class LazyProbe {
 public:
  LazyProbe(std::function<std::unique_ptr<BenchWorkload>()> make, int steps,
            std::string label)
      : label(std::move(label)), make_(std::move(make)), steps_(steps) {}

  const WorkloadProbe& get() {
    if (!result_) {
      std::unique_ptr<BenchWorkload> workload = make_();
      result_ = probe_workload(*workload, steps_);
    }
    return *result_;
  }

  const std::string label;  ///< source note on the metrics it supplies

 private:
  std::function<std::unique_ptr<BenchWorkload>()> make_;
  int steps_;
  std::optional<WorkloadProbe> result_;
};

/// Mean of a registry histogram over an interval, in microseconds (0 when
/// it recorded nothing).
double histogram_mean_us(const CounterSnapshot& d, const std::string& name) {
  const double n = registry_value(d, name + ".count");
  return n > 0 ? 1e6 * registry_value(d, name + ".sum") / n : 0.0;
}

double rank_cache_lookups(const CounterSnapshot& d) {
  return registry_value(d, "naming.rank_cache_hits_total") +
         registry_value(d, "naming.rank_cache_misses_total");
}

/// Per-layer metrics from the op loop, falling back to the probes for calls
/// the workload's op does not make.
std::vector<Metric> layer_metrics(BenchWorkload& workload, const Options& opts,
                                  const Measurement& m,
                                  const spans::SelfTimeReport& op_spans,
                                  const EnvSample& env) {
  std::vector<Metric> out;
  const Block loop = m.total(false);
  const CounterSnapshot& d = loop.delta;

  const CallShape shape = workload.call_shape();
  const CodecTimes codec = probe_codec(shape);
  out.push_back({"orb.value_encode_us", 1e6 * codec.value_encode_s, "us", "probe:codec"});
  out.push_back({"orb.value_decode_us", 1e6 * codec.value_decode_s, "us", "probe:codec"});
  out.push_back({"orb.frame_encode_us", 1e6 * codec.frame_encode_s, "us", "probe:codec"});
  out.push_back({"orb.inproc_invoke_us", 1e6 * probe_inproc_invoke(shape), "us",
                 "probe:inproc"});

  LazyProbe tcp([&] { return make_rpc_fanout(opts.seed, 1); }, kTcpProbeRounds, "probe:tcp");
  LazyProbe ft([&] { return make_ft_checkpoint(opts.seed); }, kFtProbeOps, "probe:ft");
  LazyProbe solver([&] { return make_solver_sim(opts.seed); }, kSolverProbeOps,
                   "probe:solver");
  const auto timing = [&](const std::string& metric, const std::string& span,
                          LazyProbe& probe, double scale, const char* unit) {
    if (auto s = span_median_s(op_spans, span)) {
      out.push_back({metric, scale * *s, unit, "op loop"});
    } else {
      const auto p = span_median_s(probe.get().spans, span);
      out.push_back({metric, scale * p.value_or(0.0), unit, probe.label});
    }
  };
  const auto count = [&](const std::string& metric, double total, const char* unit) {
    out.push_back({metric, per_op(total, loop.ops), unit, "op loop"});
  };

  timing("orb.send_us", "orb.send", tcp, 1e6, "us");
  timing("orb.reply_wait_us", "orb.reply_wait", tcp, 1e6, "us");
  count("orb.allocs_per_op", static_cast<double>(d.allocs), "count");
  count("orb.alloc_bytes_per_op", static_cast<double>(d.alloc_bytes), "bytes");
  count("orb.ctx_switches_per_op",
        static_cast<double>(d.voluntary_switches + d.involuntary_switches), "count");
  count("orb.wake_writes_per_op", static_cast<double>(d.write_syscalls), "count");
  count("orb.reactor_wakeups_per_op",
        registry_value(d, "transport.tcp.reactor.wakeups_total"), "count");
  count("orb.reactor_events_per_op",
        registry_value(d, "transport.tcp.reactor.events_total"), "count");
  const std::string queue_wait = "orb.dispatch_pool.queue_wait_s";
  if (registry_value(d, queue_wait + ".count") > 0)
    out.push_back({"orb.dispatch_queue_wait_us", histogram_mean_us(d, queue_wait), "us",
                   "op loop"});
  else
    out.push_back({"orb.dispatch_queue_wait_us",
                   histogram_mean_us(tcp.get().delta, queue_wait), "us", tcp.label});

  timing("ft.proxy_call_us", "ft.proxy_call", ft, 1e6, "us");
  timing("ft.get_state_us", "ft.get_state", ft, 1e6, "us");
  timing("ft.store_us", "ft.store", ft, 1e6, "us");
  timing("ft.store_backend_us", "ft.store_backend", ft, 1e6, "us");
  timing("ft.load_us", "ft.load", ft, 1e6, "us");
  timing("ft.set_state_us", "ft.set_state", ft, 1e6, "us");
  timing("ft.recover_us", "ft.recover", ft, 1e6, "us");
  count("ft.bytes_shipped_per_op", registry_value(d, "ft.pipeline.bytes_shipped_total"),
        "bytes");
  count("ft.checkpoints_per_op", registry_value(d, "ft.pipeline.stores_total"), "count");
  count("ft.retries_per_op", registry_value(d, "ft.proxy.retries_total"), "count");
  count("ft.checkpoint_failures_per_op",
        registry_value(d, "ft.proxy.checkpoint_failures_total") +
            registry_value(d, "ft.pipeline.failures_total"),
        "count");
  count("ft.recoveries_per_op", registry_value(d, "ft.proxy.recoveries_total"), "count");

  timing("naming.resolve_us", "naming.resolve", ft, 1e6, "us");
  {
    const bool own = rank_cache_lookups(d) > 0;
    const CounterSnapshot& src = own ? d : ft.get().delta;
    const double lookups = rank_cache_lookups(src);
    out.push_back({"naming.rank_cache_hit_ratio",
                   lookups > 0 ? registry_value(src, "naming.rank_cache_hits_total") / lookups
                               : 0.0,
                   "ratio", own ? "op loop" : ft.label});
  }

  out.push_back({"opt.complex_box_ms",
                 1e3 * probe_complex_box(workload.worker_iterations(), opts.seed), "ms",
                 "probe:opt"});
  const SimPerOp sim = workload.sim_per_op();
  out.push_back({"opt.evaluations_per_op", sim.evaluations, "count", "op loop"});
  out.push_back({"sim.events_per_op", sim.events, "count", "op loop"});
  out.push_back({"sim.virtual_s_per_op", sim.virtual_s, "virtual_s", "op loop"});
  const std::optional<double> overhead = workload.virtual_overhead_pct();
  out.push_back({"sim.virtual_overhead_pct", overhead.value_or(0.0), "%",
                 overhead ? "op loop" : "not simulated"});
  timing("core.runtime_build_ms", "core.runtime_build", solver, 1e3, "ms");

  const double untraced_cpu = m.median_cpu_s_per_op(false);
  const double traced_cpu = m.median_cpu_s_per_op(true);
  out.push_back({"obs.tracing_overhead_pct",
                 untraced_cpu > 0 ? 100.0 * (traced_cpu - untraced_cpu) / untraced_cpu : 0.0,
                 "%", "traced vs untraced blocks"});
  out.push_back({"env.socket_pingpong_rt_per_s", env.socket_pingpong_rt_per_s, "1/s", "env"});
  out.push_back({"env.cpu_spin_rate", env.cpu_spin_rate, "1/s", "env"});
  return out;
}

std::string env_json(const EnvSample& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"socket_pingpong_rt_per_s\": %.17g, \"cpu_spin_rate\": %.17g}",
                e.socket_pingpong_rt_per_s, e.cpu_spin_rate);
  return buf;
}

int run(const Options& opts) {
  std::unique_ptr<BenchWorkload> workload = make_workload(opts.workload, opts.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  const EnvSample env_before = sample_environment(kEnvControlSeconds);
  const Measurement m = measure(*workload, opts.seconds, opts.trace);
  const std::vector<spans::Span> op_spans = spans::drain();
  const EnvSample env_after = sample_environment(kEnvControlSeconds);

  const std::uint64_t attempted = m.attempted;
  const std::uint64_t failed = m.failed;
  const bool correct = attempted > 0 && failed == 0;

  // Every end-to-end number, for people; the JSON result carries the
  // catalog's subset (ops_per_s and op_p99_ms swing more run to run on a
  // shared VM than any bound the result could hold them to).
  std::vector<Metric> printed = {
      {"setup_s", median_of(m.setup_s), "s", "median of set-ups"},
      {"ops_per_s", m.median_ops_per_s(false), "1/s", "median over 1 s blocks"},
      {"op_p50_ms", 1e3 * m.median_block_p50_s(), "ms", "median over 1 s blocks"},
      {"op_p99_ms", 1e3 * m.median_block_tail_s(), "ms", ""},
      {"cpu_ms_per_op", 1e3 * m.median_cpu_s_per_op(false), "ms",
       "user+sys, all threads, median over 1 s blocks"},
      {"peak_rss_mb", m.peak_rss_mb, "MiB", "latency buffers excluded"},
      {"failed_frac", attempted ? static_cast<double>(failed) / attempted : 1.0, "ratio", ""},
  };
  // The tail rule applies per block: say where a typical block read it.
  const Block* typical = nullptr;
  for (const Block& b : m.blocks)
    if (!b.traced && (!typical || b.latency.count() < typical->latency.count())) typical = &b;
  char tail_note[128];
  std::snprintf(tail_note, sizeof(tail_note),
                "median over blocks of p%.4g (smallest block n=%zu, %zu beyond); n=%zu",
                typical ? 100.0 * typical->latency.tail_q() : 0.0,
                typical ? typical->latency.count() : 0,
                typical ? typical->latency.beyond_tail() : 0, m.latency_samples);
  printed[3].note = tail_note;
  if (const std::optional<double> overhead = workload->virtual_overhead_pct())
    printed.push_back({"virtual_overhead_pct", *overhead, "%",
                       "(proxied with crash - plain) / plain, virtual time"});

  std::vector<Metric> result;
  for (const MetricSpec& spec : end_to_end_catalog())
    if (const Metric* metric = find_metric(printed, spec.name)) result.push_back(*metric);
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0);
  std::printf("env before: socket ping-pong %.0f rt/s, cpu spin %.4g it/s\n",
              env_before.socket_pingpong_rt_per_s, env_before.cpu_spin_rate);
  std::printf("env after:  socket ping-pong %.0f rt/s, cpu spin %.4g it/s\n",
              env_after.socket_pingpong_rt_per_s, env_after.cpu_spin_rate);
  std::string in_result;
  for (const Metric& metric : result) in_result += (in_result.empty() ? "" : ", ") + metric.name;
  std::printf("end-to-end (untraced ops; in an untraced run's JSON result: %s):\n%s",
              in_result.c_str(), render_rows(printed).c_str());

  if (opts.trace) {
    const spans::SelfTimeReport report = spans::self_times(op_spans);
    print_self_times(report);
    result = layer_metrics(*workload, opts, m, report, env_after);
    std::printf("per-layer:\n%s", render_rows(result).c_str());
  }

  // The result must carry exactly the catalog (the names BENCHMARK.json lists).
  const std::vector<MetricSpec>& catalog =
      opts.trace ? per_layer_catalog() : end_to_end_catalog();
  bool matches = result.size() == catalog.size();
  for (const MetricSpec& spec : catalog) {
    const Metric* metric = find_metric(result, spec.name);
    matches = matches && metric && metric->unit == spec.unit;
  }
  if (!matches) {
    std::fprintf(stderr, "internal error: metrics differ from the catalog\n");
    return 3;
  }

  if (!opts.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    const std::string stem = opts.out_dir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             std::to_string(opts.trace ? 1 : 0);
    std::ofstream out(stem + ".json", std::ios::trunc);
    out << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
        << ", \"env_before\": " << env_json(env_before)
        << ", \"env_after\": " << env_json(env_after) << ", \"result\": "
        << render_result(correct, attempted, failed, printed) << ", \"per_layer\": "
        << render_result(correct, attempted, failed, opts.trace ? result : std::vector<Metric>{})
        << "}\n";
    if (opts.trace) spans::write_jsonl(stem + ".spans.jsonl", op_spans);
  }

  if (m.latency_dropped > 0)
    std::printf("note: %zu latency samples beyond the per-caller buffer were not kept\n",
                m.latency_dropped);
  if (!correct)
    std::printf("CORRECTNESS: %llu of %llu ops failed their check\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
  std::printf("%s\n", render_result(correct, attempted, failed, result).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: corbaft_perfbench --workload <rpc_fanout|ft_checkpoint|solver_sim> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n"
               "       corbaft_perfbench metrics | selftest\n");
  return 2;
}

}  // namespace

std::unique_ptr<BenchWorkload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "rpc_fanout") return make_rpc_fanout(seed, 2);
  if (name == "ft_checkpoint") return make_ft_checkpoint(seed);
  if (name == "solver_sim") return make_solver_sim(seed);
  return nullptr;
}

}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  if (argc == 2 && std::string(argv[1]) == "selftest") return run_selftest();
  if (argc == 2 && std::string(argv[1]) == "metrics") {
    for (const MetricSpec& s : end_to_end_catalog())
      std::printf("end_to_end %s %s\n", s.name.c_str(), s.unit.c_str());
    for (const MetricSpec& s : per_layer_catalog())
      std::printf("per_layer %s %s\n", s.name.c_str(), s.unit.c_str());
    return 0;
  }
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opts.workload = value;
    else if (key == "--seed") opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opts.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") opts.trace = value == "1";
    else if (key == "--out") opts.out_dir = value;
    else return usage();
  }
  if (argc % 2 == 0 || opts.workload.empty() || !(opts.seconds > 0)) return usage();
  if (!pin_to_one_cpu()) std::fprintf(stderr, "warning: could not pin to one CPU\n");
  return run(opts);
}
