// The solver_sim workload's solve, shared with the self-test's Table 1
// cross-check.
#pragma once

#include <cstdint>

#include "bench_common.hpp"

namespace pb {

struct SolveStats {
  bench::RunOutcome outcome;
  std::uint64_t events = 0;        ///< EventQueue::executed() during run()
  std::int64_t evaluations = 0;    ///< objective evaluations held by the workers
};

/// Reduced iterations: one solve takes a few hundred milliseconds of CPU.
inline constexpr int kSolverWorkerIterations = 2000;
inline constexpr int kSolverManagerIterations = 3;

/// scenario_100_7 with kSolverManagerIterations.
bench::Scenario solver_scenario();
/// Winner placement, kSolverWorkerIterations; with FT, Table 1's cost model
/// and checkpoint policy (after every call, full_sync).
bench::RunSettings solver_settings(std::uint64_t seed, bool use_ft);

/// One complete decomposed solve on a fresh simulated NOW — bench::
/// run_scenario with the runtime's event queue and workers in reach.
SolveStats solve(const bench::Scenario& scenario, const bench::RunSettings& settings);

}  // namespace pb
