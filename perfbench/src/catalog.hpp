// The metrics the benchmark reports, by name and unit.  BENCHMARK.json at
// the repository root lists the same names; `corbaft_perfbench metrics`
// prints this catalog and `run.py --selftest` checks the two agree.
#pragma once

#include <string>
#include <vector>

namespace pb {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Printed in the JSON result of an untraced run (every workload).
const std::vector<MetricSpec>& end_to_end_catalog();
/// Printed in the JSON result of a traced run (every workload).
const std::vector<MetricSpec>& per_layer_catalog();

}  // namespace pb
