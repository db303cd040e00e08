// The benchmark's three workloads.  Each is closed loop; the seed is the
// only input, and every op's output is checked.
//
//   rpc_fanout    2 caller threads; each step sends one deferred request
//                 (ObjectRef::send) to each of 7 servants on one TCP server
//                 ORB, then waits for all 7 replies.  One op = one call.
//   ft_checkpoint 1 caller thread drives ft::ProxyEngine (full_sync,
//                 checkpoint_every = 1) against a 64 KiB checkpointable
//                 servant over TCP; every 16th op is a forced migration
//                 (recover_now).  One op = one logical call or migration.
//   solver_sim    1 caller thread; one op = one complete 100-dim / 7-worker
//                 decomposed Rosenbrock solve on the simulated 10-workstation
//                 NOW, FT proxies on, one worker host crashing mid-run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "orb/orb.hpp"

namespace pb {

/// A TCP-enabled ORB with the default configuration.
inline std::shared_ptr<corba::ORB> tcp_orb(std::string name) {
  corba::OrbConfig config;
  config.endpoint_name = std::move(name);
  config.enable_tcp = true;
  return corba::ORB::init(std::move(config));
}

/// Arguments and reply of the call that dominates a workload's op, for the
/// codec and in-process probes.
struct CallShape {
  std::string operation;
  corba::ValueSeq arguments;
  corba::Value reply;
};

struct SimPerOp {
  double events = 0.0;       ///< EventQueue::executed() delta
  double virtual_s = 0.0;    ///< virtual runtime
  double evaluations = 0.0;  ///< objective evaluations
};

class BenchWorkload : public Workload {
 public:
  virtual CallShape call_shape() const = 0;
  /// Iteration budget of one worker call (the opt probe's input).
  virtual int worker_iterations() const = 0;
  /// Per-op simulator counts (zero for workloads that do not simulate).
  virtual SimPerOp sim_per_op() const { return {}; }
  /// Table 1's quantity, for workloads that run in virtual time.
  virtual std::optional<double> virtual_overhead_pct() const { return std::nullopt; }
};

std::unique_ptr<BenchWorkload> make_rpc_fanout(std::uint64_t seed, int callers);
std::unique_ptr<BenchWorkload> make_ft_checkpoint(std::uint64_t seed);
std::unique_ptr<BenchWorkload> make_solver_sim(std::uint64_t seed);

/// By name; nullptr for an unknown name.
std::unique_ptr<BenchWorkload> make_workload(const std::string& name,
                                             std::uint64_t seed);

}  // namespace pb
