// Exact-sample statistics for the benchmark's reported numbers.
//
// The runtime's obs::Histogram buckets on a 1-2-5 ladder, so a quantile read
// from it can only be 100, 200 or 500 us.  Every latency the benchmark
// prints comes from here instead: all samples are kept and sorted, and the
// tail is the highest percentile that still has at least ten samples beyond
// it, reported together with the sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pb {

/// Nearest-rank quantile of an ascending vector (q in [0, 1]); 0 when empty.
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Median of an unsorted copy (lower median for even counts).
inline double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, 0.5);
}

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// 1-based nearest rank of the tail sample for `n` samples: the 99th
/// percentile when at least ten samples lie beyond it, else the highest rank
/// that keeps ten beyond, never below the median.  Integer arithmetic, so
/// the "ten beyond" rule holds exactly.
inline std::size_t tail_rank(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t median_rank = (n + 1) / 2;
  const std::size_t p99_rank = (99 * n + 99) / 100;
  if (n <= kTailBeyond) return median_rank;
  return std::max(median_rank, std::min(p99_rank, n - kTailBeyond));
}

class ExactRecorder {
 public:
  /// Allocates and touches room for `n` samples up front, so recording
  /// never reallocates and the buffer's memory is a known constant; samples
  /// beyond `n` are counted in dropped() instead of stored.
  void preallocate(std::size_t n) {
    samples_.assign(n, 0.0);
    samples_.clear();
    limit_ = n;
  }
  std::size_t preallocated_bytes() const noexcept { return limit_ * sizeof(double); }
  std::size_t dropped() const noexcept { return dropped_; }

  void add(double value) {
    if (limit_ != 0 && samples_.size() >= limit_) {
      ++dropped_;
      return;
    }
    samples_.push_back(value);
  }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const noexcept { return samples_.size(); }
  const std::vector<double>& samples() const noexcept { return samples_; }

  /// Sorts in place; call before the quantile accessors.
  void finish() { std::sort(samples_.begin(), samples_.end()); }
  double quantile(double q) const { return sorted_quantile(samples_, q); }
  double median() const { return quantile(0.5); }
  double tail() const {
    return samples_.empty() ? 0.0 : samples_[tail_rank(samples_.size()) - 1];
  }
  /// The percentile the tail was read at (rank / n), e.g. 0.99.
  double tail_q() const {
    return samples_.empty() ? 0.0
                            : static_cast<double>(tail_rank(samples_.size())) /
                                  static_cast<double>(samples_.size());
  }
  std::size_t beyond_tail() const {
    return samples_.size() - tail_rank(samples_.size());
  }

 private:
  std::vector<double> samples_;
  std::size_t limit_ = 0;  ///< 0 = unbounded
  std::size_t dropped_ = 0;
};

}  // namespace pb
