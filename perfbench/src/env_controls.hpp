// Where the benchmark runs: its CPU placement and the environment controls
// sampled beside every run.
//
// The controls run no corbaft code: a drop in them is the machine (VM
// scheduling, CPU steal), not the program.  Observed on a 4-vCPU virtual
// machine on a shared host: the raw socketpair ping-pong fell from 117k
// to 13-21k round trips/s within 10 s of one process while the CPU spinner
// stayed within +-5%, and an unpinned rpc_fanout run's CPU per call moved
// by half between runs as cross-core wakeups got dearer.  So the measured
// process runs on one CPU (thread handoffs are then same-core switches,
// whose cost the program controls), and the controls run on all CPUs the
// process started with, to show the machine's state.
#pragma once

namespace pb {

/// Restricts the process to the last CPU of its affinity mask; the
/// environment controls keep using the original mask.  Returns false (and
/// leaves the process unpinned) when the mask cannot be read or set.
bool pin_to_one_cpu();

struct EnvSample {
  double socket_pingpong_rt_per_s = 0.0;  ///< AF_UNIX socketpair, 1-byte echo
  double cpu_spin_rate = 0.0;             ///< integer-mix iterations per second
};

/// Runs both controls for about `seconds` each, on the CPUs the process
/// started with.
EnvSample sample_environment(double seconds);

}  // namespace pb
