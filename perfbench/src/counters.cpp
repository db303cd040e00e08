#include "counters.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <vector>

#include "obs/metrics.hpp"

// --- counting operator new ---------------------------------------------------
// Replaces the global allocation functions for the whole benchmark binary,
// so every allocation the runtime libraries make is counted.  Relaxed
// atomics: the counters are read only at interval boundaries.

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = std::max(a, (size + a - 1) / a * a);
  return std::aligned_alloc(a, rounded);
}

// Out of line, so the compiler does not pair the free() with the
// allocation function's own new-expression and warn about a mismatch.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }

namespace pb {

std::uint64_t allocations() noexcept {
  return g_allocs.load(std::memory_order_relaxed);
}
std::uint64_t allocated_bytes() noexcept {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}

namespace {

/// Registry metrics every snapshot carries.
const std::vector<std::string>& tracked_registry_metrics() {
  static const std::vector<std::string> names = {
      "transport.tcp.reactor.wakeups_total",
      "transport.tcp.reactor.events_total",
      "orb.dispatch_pool.queue_wait_s",
      "ft.pipeline.stores_total",
      "ft.pipeline.bytes_shipped_total",
      "ft.pipeline.failures_total",
      "ft.proxy.retries_total",
      "ft.proxy.checkpoint_failures_total",
      "ft.proxy.recoveries_total",
      "naming.rank_cache_hits_total",
      "naming.rank_cache_misses_total",
  };
  return names;
}

std::uint64_t read_write_syscalls() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value)
    if (key == "syscw:") return value;
  return 0;
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

CounterSnapshot take_snapshot() {
  CounterSnapshot s;
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::global().snapshot();
  for (const obs::MetricEntry& entry : metrics.entries) {
    const auto& tracked = tracked_registry_metrics();
    if (std::find(tracked.begin(), tracked.end(), entry.name) == tracked.end())
      continue;
    switch (entry.kind) {
      case obs::MetricEntry::Kind::counter:
        s.registry[entry.name] = static_cast<double>(entry.counter_value);
        break;
      case obs::MetricEntry::Kind::gauge:
        s.registry[entry.name] = entry.gauge_value;
        break;
      case obs::MetricEntry::Kind::histogram:
        s.registry[entry.name + ".count"] =
            static_cast<double>(entry.histogram.count);
        s.registry[entry.name + ".sum"] = entry.histogram.sum;
        break;
    }
  }
  s.write_syscalls = read_write_syscalls();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  s.cpu_s = seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
  s.voluntary_switches = static_cast<std::uint64_t>(usage.ru_nvcsw);
  s.involuntary_switches = static_cast<std::uint64_t>(usage.ru_nivcsw);
  // Allocation counters last: the snapshot's own allocations above land in
  // the interval before this one, not inside the measured ops.
  s.allocs = allocations();
  s.alloc_bytes = allocated_bytes();
  s.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  return s;
}

CounterSnapshot difference(const CounterSnapshot& after,
                           const CounterSnapshot& before) {
  CounterSnapshot d;
  d.wall_s = after.wall_s - before.wall_s;
  d.cpu_s = after.cpu_s - before.cpu_s;
  d.allocs = after.allocs - before.allocs;
  d.alloc_bytes = after.alloc_bytes - before.alloc_bytes;
  d.voluntary_switches = after.voluntary_switches - before.voluntary_switches;
  d.involuntary_switches =
      after.involuntary_switches - before.involuntary_switches;
  d.write_syscalls = after.write_syscalls - before.write_syscalls;
  d.registry = after.registry;
  for (const auto& [key, value] : before.registry) d.registry[key] -= value;
  return d;
}

CounterSnapshot sum(const CounterSnapshot& a, const CounterSnapshot& b) {
  CounterSnapshot s;
  s.wall_s = a.wall_s + b.wall_s;
  s.cpu_s = a.cpu_s + b.cpu_s;
  s.allocs = a.allocs + b.allocs;
  s.alloc_bytes = a.alloc_bytes + b.alloc_bytes;
  s.voluntary_switches = a.voluntary_switches + b.voluntary_switches;
  s.involuntary_switches = a.involuntary_switches + b.involuntary_switches;
  s.write_syscalls = a.write_syscalls + b.write_syscalls;
  s.registry = a.registry;
  for (const auto& [key, value] : b.registry) s.registry[key] += value;
  return s;
}

double registry_value(const CounterSnapshot& delta, const std::string& key) {
  const auto it = delta.registry.find(key);
  return it == delta.registry.end() ? 0.0 : it->second;
}

}  // namespace pb
