// Closed-loop harness shared by the workloads.
//
// A workload owns its fixture (ORBs, servants, simulated NOW) and exposes
// one closed-loop step; the harness times its set-up, runs `callers()`
// threads that each issue their next step only after the previous one
// completed, warms the loop up, and then measures for the requested time
// in one-second blocks.  Block boundaries are op-aligned (every caller is
// parked between two steps while the counters are read), so each op's
// counts land wholly in one block.  Throughput, CPU per op and the latency
// percentiles are medians over blocks; a slow second does not move them.
// In a traced run the blocks alternate untraced and traced: counters and end-to-end numbers
// come from the untraced blocks, spans from the traced ones, and the
// CPU-per-op difference between the two is the tracing overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "counters.hpp"
#include "stats.hpp"

namespace pb {

/// Where a caller thread reports each finished op.  Written by its own
/// caller thread only; the counters are atomics so the harness can read
/// them while the window runs.
class OpSink {
 public:
  enum Mode { warmup = 0, untraced = 1, traced = 2 };

  /// `latency_capacity` samples are allocated (and touched) up front; the
  /// measuring sinks pass kLatencySamplesPerCaller, warm-up and probe sinks
  /// record no latency and pass nothing.
  explicit OpSink(std::size_t latency_capacity = 0);
  /// Latency is kept for untraced ops only (the end-to-end numbers).
  void op(double latency_s, bool ok);
  void set_mode(Mode mode) noexcept { mode_ = mode; }

  std::atomic<std::uint64_t> ops[3] = {0, 0, 0};  ///< by Mode
  std::atomic<std::uint64_t> failed[3] = {0, 0, 0};
  ExactRecorder latency;

 private:
  Mode mode_ = warmup;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int callers() const = 0;
  /// Builds the fixture and warms it up (first-use allocations, connection
  /// set-up, lazy registrations).
  virtual void setup() = 0;
  /// Releases the fixture; setup() may be called again afterwards.
  virtual void teardown() = 0;
  /// One closed-loop step on caller thread `caller`: issues one or more
  /// ops, reports each to `sink`.  Runs inside the op's root span.
  virtual void step(int caller, OpSink& sink) = 0;
};

struct Block {
  bool traced = false;
  std::uint64_t ops = 0;
  CounterSnapshot delta;
  /// Latency of the block's ops (untraced blocks only), sorted.
  ExactRecorder latency;
};

struct Measurement {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<Block> blocks;    ///< the measured window, in order
  std::uint64_t attempted = 0;  ///< every checked op, warm-up included
  std::uint64_t failed = 0;
  std::size_t latency_samples = 0;  ///< untraced op latencies kept
  std::size_t latency_dropped = 0;  ///< beyond kLatencySamplesPerCaller
  double peak_rss_mb = 0.0;     ///< at the end of the window, recorders excluded

  /// Sum of the blocks of one kind (counts exact per op).
  Block total(bool traced) const;
  /// Median over blocks of one kind of ops per wall second / CPU s per op.
  double median_ops_per_s(bool traced) const;
  double median_cpu_s_per_op(bool traced) const;
  /// Median over untraced blocks of each block's latency median / tail
  /// (the tail rule applies per block).
  double median_block_p50_s() const;
  double median_block_tail_s() const;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 9;
/// Closed-loop warm-up before the measured window (not counted).
inline constexpr double kWarmupSeconds = 1.0;
/// Length of one measured block.
inline constexpr double kBlockSeconds = 1.0;
/// Latency samples kept per caller thread (the buffer is allocated and
/// touched before set-up, so it is a constant, subtracted part of the RSS).
inline constexpr std::size_t kLatencySamplesPerCaller = std::size_t{1} << 21;

/// Sets the workload up kSetupRepetitions times (keeping the last fixture),
/// warms the loop up, then measures for `seconds`.
Measurement measure(Workload& workload, double seconds, bool traced_run);

}  // namespace pb
