#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace pb {

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::string render_rows(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-32s %16.6g %-10s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  m.note.empty() ? "" : ("[" + m.note + "]").c_str());
    out += buf;
  }
  return out;
}

std::string render_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pb
