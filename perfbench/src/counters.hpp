// One per-op counter helper shared by every workload: a before/after
// snapshot of the process's countable resources, differenced and divided by
// the number of ops the interval completed.
//
// Sources:
//   * allocations and allocated bytes, from the counting operator new that
//     counters.cpp installs in the benchmark binary;
//   * user+sys CPU seconds and context switches, from getrusage(RUSAGE_SELF)
//     (summed over all threads of the process);
//   * write syscalls (`syscw`) from /proc/self/io — on this runtime these
//     are the reactor's eventfd wakes, since the kernel does not count
//     socket send/recv there;
//   * selected obs::MetricsRegistry counters and histogram sums/counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace pb {

/// Process-wide allocation counters (operator new replacement).
std::uint64_t allocations() noexcept;
std::uint64_t allocated_bytes() noexcept;

struct CounterSnapshot {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  std::uint64_t write_syscalls = 0;
  /// Registry values by name: counters as-is, histograms as
  /// "<name>.count" and "<name>.sum".
  std::map<std::string, double> registry;
};

CounterSnapshot take_snapshot();

/// after - before, field by field (registry keys present in either).
CounterSnapshot difference(const CounterSnapshot& after,
                           const CounterSnapshot& before);
/// a + b, field by field.
CounterSnapshot sum(const CounterSnapshot& a, const CounterSnapshot& b);

/// Registry value of a difference, 0 when absent.
double registry_value(const CounterSnapshot& delta, const std::string& key);

}  // namespace pb
