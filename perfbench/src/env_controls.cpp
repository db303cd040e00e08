#include "env_controls.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <thread>

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

cpu_set_t g_start_cpus;
bool g_pinned = false;

double socket_pingpong(double seconds) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0.0;
  // The echo thread stops when the peer closes its end (read returns 0).
  std::thread echo([fd = fds[1]] {
    char byte = 0;
    while (read(fd, &byte, 1) == 1)
      if (write(fd, &byte, 1) != 1) break;
  });
  std::uint64_t round_trips = 0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  char byte = 'x';
  while (Clock::now() < deadline) {
    if (write(fds[0], &byte, 1) != 1 || read(fds[0], &byte, 1) != 1) break;
    ++round_trips;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  close(fds[0]);
  echo.join();
  close(fds[1]);
  return elapsed > 0 ? static_cast<double>(round_trips) / elapsed : 0.0;
}

double cpu_spin(double seconds) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t iterations = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x >> 31;
      x *= 0xbf58476d1ce4e5b9ull;
    }
    iterations += 4096;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  // Keep the loop observable so it cannot be folded away.
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(iterations) / elapsed;
}

}  // namespace

bool pin_to_one_cpu() {
  cpu_set_t start;
  if (sched_getaffinity(0, sizeof(start), &start) != 0) return false;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &start)) last = cpu;
  if (last < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return false;
  g_start_cpus = start;
  g_pinned = true;
  return true;
}

EnvSample sample_environment(double seconds) {
  EnvSample sample;
  // A fresh thread, widened to the start-up mask; the echo thread it
  // spawns inherits that mask.
  std::thread control([&] {
    if (g_pinned)
      pthread_setaffinity_np(pthread_self(), sizeof(g_start_cpus), &g_start_cpus);
    sample.socket_pingpong_rt_per_s = socket_pingpong(seconds);
    sample.cpu_spin_rate = cpu_spin(seconds);
  });
  control.join();
  return sample;
}

}  // namespace pb
