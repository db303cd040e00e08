// Metric output: the human-readable rows and the one-line JSON result the
// benchmark ends its standard output with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Where the number came from ("op loop", "probe", "env", ...); printed
  /// in the human rows only.
  std::string note;
};

/// Finds a metric by name; nullptr when absent.
const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name);

/// "  name  value unit  [note]" rows.
std::string render_rows(const std::vector<Metric>& metrics);

/// {"correct": ..., "attempted": N, "failed": N, "metrics": {"name":
/// {"value": X, "unit": "u"}, ...}} on one line.  Values are written with
/// 17 significant digits.
std::string render_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics);

}  // namespace pb
