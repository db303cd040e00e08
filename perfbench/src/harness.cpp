#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "spans.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::time_point after(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// VmHWM from /proc/self/status, in MiB (0 when unreadable).
double high_water_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

}  // namespace

OpSink::OpSink(std::size_t latency_capacity) {
  if (latency_capacity > 0) latency.preallocate(latency_capacity);
}

void OpSink::op(double latency_s, bool ok) {
  ops[mode_].fetch_add(1, std::memory_order_relaxed);
  if (!ok) failed[mode_].fetch_add(1, std::memory_order_relaxed);
  if (mode_ == untraced) latency.add(latency_s);
}

Block Measurement::total(bool traced) const {
  Block t;
  t.traced = traced;
  for (const Block& b : blocks) {
    if (b.traced != traced) continue;
    t.ops += b.ops;
    t.delta = sum(t.delta, b.delta);
  }
  return t;
}

double Measurement::median_ops_per_s(bool traced) const {
  std::vector<double> rates;
  for (const Block& b : blocks)
    if (b.traced == traced && b.delta.wall_s > 0)
      rates.push_back(static_cast<double>(b.ops) / b.delta.wall_s);
  return rates.empty() ? 0.0 : median_of(std::move(rates));
}

double Measurement::median_block_p50_s() const {
  std::vector<double> values;
  for (const Block& b : blocks)
    if (!b.traced && b.latency.count() > 0) values.push_back(b.latency.median());
  return values.empty() ? 0.0 : median_of(std::move(values));
}

double Measurement::median_block_tail_s() const {
  std::vector<double> values;
  for (const Block& b : blocks)
    if (!b.traced && b.latency.count() > 0) values.push_back(b.latency.tail());
  return values.empty() ? 0.0 : median_of(std::move(values));
}

double Measurement::median_cpu_s_per_op(bool traced) const {
  std::vector<double> costs;
  for (const Block& b : blocks)
    if (b.traced == traced && b.ops > 0)
      costs.push_back(b.delta.cpu_s / static_cast<double>(b.ops));
  return costs.empty() ? 0.0 : median_of(std::move(costs));
}

Measurement measure(Workload& workload, double seconds, bool traced_run) {
  const int callers = workload.callers();
  std::vector<std::unique_ptr<OpSink>> sinks;
  for (int c = 0; c < callers; ++c)
    sinks.push_back(std::make_unique<OpSink>(kLatencySamplesPerCaller));

  Measurement m;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    if (i > 0) workload.teardown();
    const auto start = Clock::now();
    workload.setup();
    m.setup_s.push_back(since(start));
  }

  // Callers park between two steps whenever the controller asks, so a
  // block boundary never splits an op.
  std::mutex mu;
  std::condition_variable cv;
  bool pause = false;
  int parked = 0;
  std::uint64_t generation = 0;
  OpSink::Mode mode = OpSink::warmup;  // guarded by mu
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      OpSink& sink = *sinks[static_cast<std::size_t>(c)];
      while (!stop.load(std::memory_order_relaxed)) {
        OpSink::Mode current;
        {
          std::unique_lock lock(mu);
          if (pause) {
            ++parked;
            cv.notify_all();
            const std::uint64_t g = generation;
            cv.wait(lock, [&] { return generation != g; });
          }
          current = mode;
        }
        sink.set_mode(current);
        spans::Scope root("op", current == OpSink::traced);
        workload.step(c, sink);
      }
    });
  }

  // Parks every caller, reads the counters, switches the mode, resumes.
  // Each sink's latency buffer is cut at the boundary as well (sample
  // ranges per block; the blocks' recorders are filled after the window).
  CounterSnapshot mark;
  std::vector<std::size_t> cut(sinks.size(), 0);
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> cuts(sinks.size());
  const auto boundary = [&](OpSink::Mode next) {
    std::unique_lock lock(mu);
    pause = true;
    cv.wait(lock, [&] { return parked == callers; });
    const CounterSnapshot now = take_snapshot();
    if (mode != OpSink::warmup) {
      Block b;
      b.traced = mode == OpSink::traced;
      for (const auto& sink : sinks) b.ops += sink->ops[mode].load();
      for (const Block& earlier : m.blocks)
        if (earlier.traced == b.traced) b.ops -= earlier.ops;
      b.delta = difference(now, mark);
      m.blocks.push_back(std::move(b));
      for (std::size_t i = 0; i < sinks.size(); ++i)
        cuts[i].emplace_back(cut[i], sinks[i]->latency.count());
    }
    for (std::size_t i = 0; i < sinks.size(); ++i) cut[i] = sinks[i]->latency.count();
    mark = now;
    mode = next;
    pause = false;
    parked = 0;
    ++generation;
    cv.notify_all();
  };

  const auto start = Clock::now();
  std::this_thread::sleep_until(after(start, kWarmupSeconds));
  boundary(OpSink::untraced);
  const int blocks = std::max(1, static_cast<int>(seconds / kBlockSeconds + 0.5));
  const double block_s = seconds / blocks;
  for (int i = 1; i <= blocks; ++i) {
    std::this_thread::sleep_until(after(start, kWarmupSeconds + i * block_s));
    const bool next_traced = traced_run && i % 2 == 1;
    boundary(i == blocks ? OpSink::warmup
                         : (next_traced ? OpSink::traced : OpSink::untraced));
  }
  m.peak_rss_mb = high_water_rss_mb();
  stop.store(true);
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < sinks.size(); ++i) {
    const std::vector<double>& samples = sinks[i]->latency.samples();
    for (std::size_t b = 0; b < m.blocks.size(); ++b)
      for (std::size_t k = cuts[i][b].first; k < cuts[i][b].second; ++k)
        m.blocks[b].latency.add(samples[k]);
  }
  for (Block& b : m.blocks) b.latency.finish();
  for (const auto& sink : sinks) {
    for (int k = 0; k < 3; ++k) {
      m.attempted += sink->ops[k].load();
      m.failed += sink->failed[k].load();
    }
    m.peak_rss_mb -= static_cast<double>(sink->latency.preallocated_bytes()) / (1024.0 * 1024.0);
    m.latency_samples += sink->latency.count();
    m.latency_dropped += sink->latency.dropped();
  }
  return m;
}

}  // namespace pb
