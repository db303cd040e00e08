#include "opt/complex_box.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orb/cdr.hpp"

namespace opt {

corba::Blob BoxState::serialize() const {
  corba::CdrOutputStream out;
  out.write_u32(1);  // format version
  out.write_u32(static_cast<std::uint32_t>(points.size()));
  for (const auto& point : points) out.write_f64_seq(point);
  out.write_f64_seq(values);
  out.write_i64(total_evaluations);
  out.write_i32(total_iterations);
  out.write_u64(rng_state);
  return out.take_buffer();
}

BoxState BoxState::deserialize(std::span<const std::byte> blob) {
  corba::CdrInputStream in(blob);
  const std::uint32_t version = in.read_u32();
  if (version != 1)
    throw corba::MARSHAL("unsupported BoxState version " +
                         std::to_string(version));
  BoxState state;
  const std::uint32_t count = in.read_u32();
  state.points.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    state.points.push_back(in.read_f64_seq());
    if (state.points.back().size() != state.points.front().size())
      throw corba::MARSHAL("corrupt BoxState: rows of different lengths");
  }
  state.values = in.read_f64_seq();
  state.total_evaluations = in.read_i64();
  state.total_iterations = in.read_i32();
  state.rng_state = in.read_u64();
  if (state.values.size() != state.points.size())
    throw corba::MARSHAL("corrupt BoxState: point/value count mismatch");
  return state;
}

namespace {

/// The working complex: K points of dimension n, row-major in one buffer,
/// so the centroid reads contiguous memory and no row is a separate heap
/// block.
class Complex {
 public:
  Complex(std::size_t points, std::size_t n)
      : points_(points), n_(n), data_(points * n) {}

  std::size_t size() const noexcept { return points_; }
  std::size_t dimension() const noexcept { return n_; }
  double* row(std::size_t p) noexcept { return data_.data() + p * n_; }
  const double* row(std::size_t p) const noexcept {
    return data_.data() + p * n_;
  }

 private:
  std::size_t points_;
  std::size_t n_;
  std::vector<double> data_;
};

/// Accumulates W consecutive coordinates starting at `first` over every
/// point but `skip`.  Each coordinate keeps the reference order — start at
/// 0.0, add the points in index order, scale once — so the result is
/// bit-identical to a per-coordinate loop; the W sums live in registers
/// instead of being re-read and re-stored for every point (the explicit
/// unroll makes that so at -O2, which would keep sum[8] on the stack).
template <std::size_t W>
void centroid_block(const Complex& complex, std::size_t skip,
                    std::size_t first, double scale, double* centroid) {
  double sum[W] = {};
  auto add_rows = [&](std::size_t from, std::size_t to) {
    for (std::size_t p = from; p < to; ++p) {
      const double* x = complex.row(p) + first;
#pragma GCC unroll 8
      for (std::size_t k = 0; k < W; ++k) sum[k] += x[k];
    }
  };
  add_rows(0, skip);
  add_rows(skip + 1, complex.size());
  for (std::size_t k = 0; k < W; ++k) centroid[first + k] = sum[k] * scale;
}

/// Centroid of all points except `skip`, eight coordinates at a time, then
/// four, then the tail one by one.
void centroid_without(const Complex& complex, std::size_t skip,
                      double* centroid) {
  const std::size_t n = complex.dimension();
  const double scale = 1.0 / static_cast<double>(complex.size() - 1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) centroid_block<8>(complex, skip, i, scale, centroid);
  for (; i + 4 <= n; i += 4) centroid_block<4>(complex, skip, i, scale, centroid);
  for (; i < n; ++i) centroid_block<1>(complex, skip, i, scale, centroid);
}

/// First minimum, as std::min_element finds it.
std::size_t best_index(const std::vector<double>& values) {
  return static_cast<std::size_t>(
      std::min_element(values.begin(), values.end()) - values.begin());
}

}  // namespace

BoxResult complex_box(const Objective& objective,
                      std::span<const double> lower,
                      std::span<const double> upper, const BoxOptions& options,
                      BoxState* state) {
  const std::size_t n = lower.size();
  if (n == 0) throw std::invalid_argument("empty search space");
  if (upper.size() != n)
    throw std::invalid_argument("bound dimension mismatch");
  for (std::size_t i = 0; i < n; ++i)
    if (!(lower[i] < upper[i]))
      throw std::invalid_argument("lower bound must be below upper bound");
  if (options.alpha <= 1.0)
    throw std::invalid_argument("reflection factor must exceed 1");
  if (options.max_iterations < 0)
    throw std::invalid_argument("negative iteration budget");

  std::size_t complex_size =
      options.complex_size > 0
          ? static_cast<std::size_t>(options.complex_size)
          : std::max(n + 1, 2 * n);
  if (complex_size < n + 1)
    throw std::invalid_argument("complex size must be at least n+1");

  // A resumed complex keeps its own size, and must be a consistent one:
  // the centroid reads n coordinates of every row and divides by K-1.
  const bool resume = state && state->initialized();
  if (resume) {
    for (const auto& point : state->points)
      if (point.size() != n)
        throw std::invalid_argument("resumed state has wrong dimension");
    if (state->values.size() != state->points.size())
      throw std::invalid_argument("resumed state has a value count mismatch");
    if (state->points.size() < n + 1)
      throw std::invalid_argument("resumed complex has fewer than n+1 points");
    complex_size = state->points.size();
  }

  BoxResult result;
  std::mt19937_64 rng((resume && state->rng_state != 0) ? state->rng_state
                                                        : options.seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  Complex points(complex_size, n);
  std::vector<double> values;

  auto clamp = [&](double* x) {
    for (std::size_t i = 0; i < n; ++i)
      x[i] = std::clamp(x[i], lower[i], upper[i]);
  };
  auto evaluate = [&](const double* x) {
    ++result.evaluations;
    return objective(std::span<const double>(x, n));
  };

  if (resume) {
    for (std::size_t p = 0; p < complex_size; ++p)
      std::copy(state->points[p].begin(), state->points[p].end(), points.row(p));
    values = state->values;
  } else {
    values.reserve(complex_size);
    for (std::size_t p = 0; p < complex_size; ++p) {
      double* x = points.row(p);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = lower[i] + uniform(rng) * (upper[i] - lower[i]);
      values.push_back(evaluate(x));
    }
  }

  std::vector<double> centroid(n);
  std::vector<double> candidate(n);
  double restart_radius = options.restart_radius;
  int restarts = 0;
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    // Worst (first maximum) and best (first minimum) in one scan, with the
    // comparisons std::max_element / std::min_element make.  Selects, not
    // branches: which point leads changes unpredictably from scan to scan.
    std::size_t worst = 0;
    std::size_t best = 0;
    double worst_value = values[0];
    double best_value = values[0];
    for (std::size_t p = 1; p < complex_size; ++p) {
      const double v = values[p];
      const bool new_worst = worst_value < v;
      const bool new_best = v < best_value;
      worst = new_worst ? p : worst;
      worst_value = new_worst ? v : worst_value;
      best = new_best ? p : best;
      best_value = new_best ? v : best_value;
    }
    if (options.tolerance > 0 &&
        values[worst] - values[best] <= options.tolerance) {
      result.converged = true;
      break;
    }
    ++result.iterations;

    // Collapse restart: when the complex has degenerated onto one point,
    // re-seed everything but the best inside a small box around it so the
    // search can keep crawling down a narrow valley.
    if (options.collapse_threshold > 0 && restarts < options.max_restarts &&
        values[worst] - values[best] <=
            options.collapse_threshold * (1.0 + std::abs(values[best]))) {
      ++restarts;
      const double* best_point = points.row(best);
      for (std::size_t p = 0; p < complex_size; ++p) {
        if (p == best) continue;
        double* x = points.row(p);
        for (std::size_t i = 0; i < n; ++i) {
          const double radius = restart_radius * (upper[i] - lower[i]);
          x[i] = best_point[i] + (2.0 * uniform(rng) - 1.0) * radius;
        }
        clamp(x);
        values[p] = evaluate(x);
      }
      restart_radius = std::max(restart_radius * 0.5, 1e-9);
      continue;
    }

    centroid_without(points, worst, centroid.data());

    // Over-reflection of the worst point through the centroid.
    double* worst_point = points.row(worst);
    for (std::size_t i = 0; i < n; ++i)
      candidate[i] =
          centroid[i] + options.alpha * (centroid[i] - worst_point[i]);
    clamp(candidate.data());
    double candidate_value = evaluate(candidate.data());

    // While still the worst, contract toward the centroid.
    int contractions = 0;
    while (candidate_value > values[worst] &&
           contractions < options.max_contractions) {
      for (std::size_t i = 0; i < n; ++i)
        candidate[i] = 0.5 * (candidate[i] + centroid[i]);
      candidate_value = evaluate(candidate.data());
      ++contractions;
    }
    if (candidate_value > values[worst]) {
      // Guin's modification: the centroid of a curved valley can be worse
      // than every complex point, so pull the candidate toward the best
      // point instead — continuity guarantees an improvement eventually.
      // `values` is unchanged since the scan, so `best` is still current.
      const double* best_point = points.row(best);
      int pulls = 0;
      while (candidate_value > values[worst] &&
             pulls < options.max_contractions) {
        for (std::size_t i = 0; i < n; ++i)
          candidate[i] = 0.5 * (candidate[i] + best_point[i]);
        candidate_value = evaluate(candidate.data());
        ++pulls;
      }
      if (candidate_value > values[worst]) {
        // Numerical corner (flat region): land on the best point itself.
        std::copy(best_point, best_point + n, candidate.begin());
        candidate_value = values[best];
      }
    }
    std::copy(candidate.begin(), candidate.end(), worst_point);
    values[worst] = candidate_value;
  }

  const std::size_t best = best_index(values);
  result.best.assign(points.row(best), points.row(best) + n);
  result.best_value = values[best];

  if (state) {
    // Rows of a resumed state already have the right length, so this
    // reuses their storage.
    state->points.resize(complex_size);
    for (std::size_t p = 0; p < complex_size; ++p)
      state->points[p].assign(points.row(p), points.row(p) + n);
    state->values = std::move(values);
    state->total_evaluations += result.evaluations;
    state->total_iterations += result.iterations;
    state->rng_state = rng();
  }
  return result;
}

}  // namespace opt
