// Layer probes for the traced run.  A per-layer timing comes from the
// workload's own op loop when its op makes that call; otherwise a probe
// makes the same public call on the workload's input shape:
//   codec     corba::Value::encode/decode and corba::encode_frame
//   inproc    ObjectRef::invoke over an InProcessNetwork pair
//   tcp       a short rpc_fanout run (ObjectRef::send, PendingReply::get)
//   ft        a short ft_checkpoint run (ProxyEngine, store, naming)
//   solver    a short solver_sim run (SimRuntime build)
//   opt       opt::complex_box on one worker block
#pragma once

#include <cstdint>

#include "counters.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

struct CodecTimes {
  double value_encode_s = 0.0;  ///< medians per call
  double value_decode_s = 0.0;
  double frame_encode_s = 0.0;
};
CodecTimes probe_codec(const CallShape& shape);

/// Median wall time of one in-process invoke of `shape`.
double probe_inproc_invoke(const CallShape& shape);

/// Median wall time of opt::complex_box on block 0 of the 100-dim / 7-block
/// decomposition.
double probe_complex_box(int iterations, std::uint64_t seed);

/// Sets `workload` up, runs `steps` traced steps on this thread, and
/// returns their spans and counter delta.
struct WorkloadProbe {
  spans::SelfTimeReport spans;
  CounterSnapshot delta;
};
WorkloadProbe probe_workload(BenchWorkload& workload, int steps);

}  // namespace pb
