// Self-tests for the benchmark's own helpers: the exact-sample recorder's
// percentile rule, counter deltas, self-time arithmetic, the metric output
// format, and a cross-check of the solver workload against the Table 1 smoke
// row.  Run with `corbaft_perfbench selftest` (or `run.py --selftest`).
#include <cmath>
#include <cstdio>
#include <regex>
#include <set>
#include <string>

#include "catalog.hpp"
#include "counters.hpp"
#include "report.hpp"
#include "solver_sim.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace pb {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

void test_recorder() {
  std::printf("exact-sample recorder\n");
  expect(tail_rank(0) == 0, "no samples, no rank");
  expect(tail_rank(1000) == 990, "n=1000 reads p99 with 10 beyond");
  expect(tail_rank(5000) == 4950, "n=5000 reads p99");
  expect(tail_rank(500) == 490, "n=500 backs off to keep 10 beyond");
  expect(tail_rank(21) == 11, "n=21 keeps exactly 10 beyond");
  expect(tail_rank(15) == 8, "n=15 falls back to the median");
  expect(tail_rank(7) == 4, "n=7 median");

  ExactRecorder r;
  for (int i = 100; i >= 1; --i) r.add(i);
  r.finish();
  expect(r.count() == 100, "count");
  expect(r.median() == 50, "median of 1..100 is 50 (nearest rank)");
  expect(r.tail() == 90, "tail of 1..100 is 90");
  expect(r.beyond_tail() == 10, "10 samples beyond the tail");
  expect(near(r.tail_q(), 0.90), "tail read at p90");
  expect(r.quantile(1.0) == 100 && r.quantile(0.0) == 1, "extremes");
  expect(median_of({3.0, 1.0, 2.0}) == 2.0, "median_of sorts a copy");
}

void test_counters() {
  std::printf("counter deltas\n");
  const std::uint64_t a0 = allocations();
  const std::uint64_t b0 = allocated_bytes();
  // The pointers escape through a volatile array, so the compiler cannot
  // elide the allocations.
  void* volatile kept[10];
  for (auto& p : kept) p = ::operator new(24);
  for (auto& p : kept) ::operator delete(p);
  // Read before expect(): building its message allocates too.
  const std::uint64_t allocs = allocations() - a0;
  const std::uint64_t bytes = allocated_bytes() - b0;
  expect(allocs == 10, "ten allocations counted");
  expect(bytes == 240, "bytes counted per allocation");

  CounterSnapshot before, after;
  before.cpu_s = 1.0;
  after.cpu_s = 1.5;
  before.allocs = 100;
  after.allocs = 250;
  before.registry = {{"x", 4.0}, {"gone", 2.0}};
  after.registry = {{"x", 10.0}, {"new", 3.0}};
  const CounterSnapshot d = difference(after, before);
  expect(near(d.cpu_s, 0.5) && d.allocs == 150, "scalar fields differenced");
  expect(registry_value(d, "x") == 6.0, "registry counter differenced");
  expect(registry_value(d, "new") == 3.0 && registry_value(d, "gone") == -2.0,
         "registry keys present on one side only");
  expect(registry_value(d, "absent") == 0.0, "absent key reads 0");
  const CounterSnapshot s = sum(d, d);
  expect(s.allocs == 300 && registry_value(s, "x") == 12.0, "sum adds field by field");

  const CounterSnapshot io0 = take_snapshot();
  if (std::FILE* f = std::fopen("/dev/null", "w")) {
    for (int i = 0; i < 3; ++i) {
      std::fputc('x', f);
      std::fflush(f);  // one write(2) each
    }
    std::fclose(f);
  }
  const CounterSnapshot io = difference(take_snapshot(), io0);
  expect(io.write_syscalls >= 3, "write syscalls read from /proc/self/io");

  const CounterSnapshot live0 = take_snapshot();
  volatile double spin = 0;
  for (int i = 0; i < 2000000; ++i) spin = spin + 1.0;
  const CounterSnapshot live = difference(take_snapshot(), live0);
  expect(live.cpu_s >= 0 && live.wall_s > 0, "live snapshot deltas are non-negative");
}

spans::Span make_span(const char* name, std::uint64_t id, std::uint64_t parent,
                      std::int64_t start, std::int64_t end) {
  spans::Span s;
  s.name = name;
  s.op = 1;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void test_self_time() {
  std::printf("self-time arithmetic\n");
  // op [0,100] -> a [10,40] -> a.inner [20,30]; op -> b [50,60] -> c [52,58].
  const std::vector<spans::Span> spans = {
      make_span("op", 1, 0, 0, 100),       make_span("a", 2, 1, 10, 40),
      make_span("a.inner", 3, 2, 20, 30), make_span("b", 4, 1, 50, 60),
      make_span("c", 5, 4, 52, 58),
  };
  const spans::SelfTimeReport r = spans::self_times(spans);
  const auto self_ns = [&](const char* n) { return 1e9 * r.by_name.at(n).self_s; };
  expect(near(self_ns("op"), 60, 1e-6), "root self = 100 - 30 - 10");
  expect(near(self_ns("a"), 20, 1e-6), "a self = 30 - 10");
  expect(near(self_ns("a.inner"), 10, 1e-6), "leaf self = duration");
  expect(near(self_ns("b"), 4, 1e-6), "b self = 10 - 6");
  expect(r.ops == 1 && near(1e9 * r.root_total_s, 100, 1e-6), "one op of 100 ns");
  expect(near(r.self_total_s, r.root_total_s, 1e-15),
         "nested spans: self times add up to the op duration");

  std::vector<spans::Span> overlap = {make_span("op", 1, 0, 0, 100),
                                      make_span("x", 2, 1, 10, 50),
                                      make_span("y", 3, 1, 40, 120)};
  const spans::SelfTimeReport o = spans::self_times(overlap);
  expect(near(1e9 * o.by_name.at("op").self_s, 10, 1e-6),
         "overlapping children count once, clipped to the parent");
}

void test_output() {
  std::printf("metric names and output\n");
  const std::string line =
      render_result(true, 12, 0, {{"latency_ms", 1.25, "ms", "note"}, {"setup_s", 0.5, "s", ""}});
  expect(line ==
             "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
             "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
             "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "JSON result line");
  const std::string digits = render_result(false, 1, 1, {{"t", 0.1234567890123456, "s", ""}});
  expect(digits.find("0.12345678901234559") != std::string::npos, "17 significant digits");

  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  bool names_ok = true, units_ok = true, unique = true;
  for (const auto* catalog : {&end_to_end_catalog(), &per_layer_catalog()}) {
    for (const MetricSpec& spec : *catalog) {
      names_ok = names_ok && std::regex_match(spec.name, name_re);
      units_ok = units_ok && std::regex_match(spec.unit, unit_re);
      unique = seen.insert(spec.name).second && unique;
    }
  }
  expect(names_ok, "metric names: letters, digits, _ . -, at most 64");
  expect(units_ok, "units: letters, digits, _ / % . -, at most 16");
  expect(unique, "every metric name used once");
  expect(end_to_end_catalog().front().name == "setup_s" &&
             end_to_end_catalog().front().unit == "s",
         "setup_s is an end-to-end metric in seconds");
  const std::string rows = render_rows({{"ops_per_s", 10.0, "1/s", "op loop"}});
  expect(rows.find("ops_per_s") != std::string::npos && rows.find("1/s") != std::string::npos &&
             rows.find("[op loop]") != std::string::npos,
         "human rows carry name, unit and source");
}

void test_table1_row() {
  std::printf("solver cross-check (Table 1 smoke row, seed 1)\n");
  bench::Scenario scenario = bench::scenario_100_7();
  scenario.manager_iterations = 3;
  bench::RunSettings plain;
  plain.strategy = naming::ResolveStrategy::winner;
  plain.worker_iterations_override = 10000;
  bench::RunSettings proxied = plain;
  proxied.use_ft = true;
  proxied.work_per_state_byte = 150.0;
  proxied.store_cost = {.work_per_store = 5e4, .work_per_byte = 150.0};

  const SolveStats a = solve(scenario, plain);
  const SolveStats b = solve(scenario, proxied);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f / %.1f", a.outcome.runtime, b.outcome.runtime);
  expect(std::string(buf) == "381.8 / 1621.0", std::string("virtual runtimes ") + buf);
  expect(a.outcome.best_value == b.outcome.best_value, "proxy does not change the result");
  const bench::RunOutcome ref_plain = bench::run_scenario(scenario, plain);
  const bench::RunOutcome ref_proxied = bench::run_scenario(scenario, proxied);
  expect(ref_plain.runtime == a.outcome.runtime && ref_plain.best_value == a.outcome.best_value,
         "solve() matches bench::run_scenario (plain)");
  expect(ref_proxied.runtime == b.outcome.runtime &&
             ref_proxied.checkpoints == b.outcome.checkpoints,
         "solve() matches bench::run_scenario (proxied)");
  const SolveStats again = solve(scenario, proxied);
  expect(again.outcome.runtime == b.outcome.runtime && again.events == b.events &&
             again.evaluations == b.evaluations,
         "virtual outputs repeat exactly");
}

/// Known runtime defect, reported without failing the self-test: recovery by
/// re-resolving (the default reresolve_then_factory policy) can bind the
/// crashed worker's proxy to an instance that already serves another block;
/// restoring the checkpoint there replaces that instance's whole state, so
/// the other block restarts cold and the solve's result diverges from the
/// fault-free one, with no checkpoint failure involved.
void report_reresolve_defect() {
  std::printf("known defect check (not counted)\n");
  const bench::Scenario scenario = solver_scenario();
  const SolveStats plain = solve(scenario, solver_settings(1, false));
  bench::RunSettings crashed = solver_settings(1, true);
  crashed.crashes = {{1.1 + 0.5 * plain.outcome.runtime, bench::host_name(1)}};
  const SolveStats s = solve(scenario, crashed);
  const bool reproduced = s.outcome.recoveries == 1 && s.outcome.checkpoint_failures == 0 &&
                          s.outcome.best_value != plain.outcome.best_value;
  std::printf("  %s  seed 1, node1 crash, re-resolve recovery: best %.10g vs fault-free %.10g\n",
              reproduced ? "KNOWN DEFECT reproduced" : "no longer reproduces (update notes)",
              s.outcome.best_value, plain.outcome.best_value);
}

}  // namespace

int run_selftest() {
  test_recorder();
  test_counters();
  test_self_time();
  test_output();
  test_table1_row();
  report_reresolve_defect();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace pb
