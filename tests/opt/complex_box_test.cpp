// Unit tests for the Complex Box optimizer: convergence on standard
// problems, constraint handling, determinism, resumable state,
// serialization, bit-exact golden trajectories and allocation behaviour.
#include "opt/complex_box.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>

#include "opt/rosenbrock.hpp"
#include "orb/cdr.hpp"

// Counting global allocation functions: AllocationsDoNotGrowWithIterations
// reads the counter around single complex_box calls.  libstdc++ routes the
// array and nothrow forms through this one.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace opt {
namespace {

double sphere(std::span<const double> x) {
  double sum = 0.0;
  for (double xi : x) sum += xi * xi;
  return sum;
}

TEST(ComplexBox, MinimizesSphere) {
  const std::vector<double> lower(4, -10.0);
  const std::vector<double> upper(4, 10.0);
  BoxOptions options;
  options.max_iterations = 2000;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  EXPECT_LT(result.best_value, 1e-4);
  for (double xi : result.best) EXPECT_NEAR(xi, 0.0, 0.05);
}

TEST(ComplexBox, Minimizes2DRosenbrockIntoTheValley) {
  const std::vector<double> lower(2, -2.048);
  const std::vector<double> upper(2, 2.048);
  BoxOptions options;
  options.max_iterations = 5000;
  options.seed = 3;
  const BoxResult result =
      complex_box([](std::span<const double> x) { return rosenbrock(x); },
                  lower, upper, options);
  EXPECT_LT(result.best_value, 1e-3);
  EXPECT_NEAR(result.best[0], 1.0, 0.1);
  EXPECT_NEAR(result.best[1], 1.0, 0.1);
}

TEST(ComplexBox, RespectsBoxConstraints) {
  // Unconstrained optimum (0) lies outside the box [1, 2]^3: the result
  // must sit on the boundary, inside bounds.
  const std::vector<double> lower(3, 1.0);
  const std::vector<double> upper(3, 2.0);
  BoxOptions options;
  options.max_iterations = 1500;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  for (double xi : result.best) {
    EXPECT_GE(xi, 1.0 - 1e-12);
    EXPECT_LE(xi, 2.0 + 1e-12);
  }
  EXPECT_NEAR(result.best_value, 3.0, 0.05);  // at (1,1,1)
}

TEST(ComplexBox, DeterministicPerSeed) {
  const std::vector<double> lower(3, -5.0);
  const std::vector<double> upper(3, 5.0);
  BoxOptions options;
  options.max_iterations = 500;
  options.seed = 42;
  const BoxResult a = complex_box(sphere, lower, upper, options);
  const BoxResult b = complex_box(sphere, lower, upper, options);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.evaluations, b.evaluations);

  options.seed = 43;
  const BoxResult c = complex_box(sphere, lower, upper, options);
  EXPECT_NE(a.best, c.best);
}

TEST(ComplexBox, IterationCountIsTheStoppingCriterion) {
  const std::vector<double> lower(2, -5.0);
  const std::vector<double> upper(2, 5.0);
  BoxOptions options;
  options.max_iterations = 123;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  EXPECT_EQ(result.iterations, 123);
  EXPECT_FALSE(result.converged);
  EXPECT_GE(result.evaluations, 123);
}

TEST(ComplexBox, ToleranceStopsEarly) {
  const std::vector<double> lower(2, -5.0);
  const std::vector<double> upper(2, 5.0);
  BoxOptions options;
  options.max_iterations = 100000;
  options.tolerance = 1e-6;
  const BoxResult result = complex_box(sphere, lower, upper, options);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 100000);
}

TEST(ComplexBox, MoreIterationsMeansMoreEvaluations) {
  // The Table 1 experiment varies worker iterations as the knob for call
  // length; evaluations (and hence simulated work) must scale with it.
  const std::vector<double> lower(5, -5.0);
  const std::vector<double> upper(5, 5.0);
  std::int64_t previous = 0;
  for (int iterations : {100, 1000, 10000}) {
    BoxOptions options;
    options.max_iterations = iterations;
    const BoxResult result = complex_box(sphere, lower, upper, options);
    EXPECT_GT(result.evaluations, previous);
    previous = result.evaluations;
  }
}

TEST(ComplexBox, ResumeContinuesExactlyWhereItStopped) {
  const std::vector<double> lower(3, -5.0);
  const std::vector<double> upper(3, 5.0);

  BoxOptions full;
  full.max_iterations = 400;
  full.seed = 7;
  BoxState full_state;
  const BoxResult one_shot = complex_box(sphere, lower, upper, full, &full_state);

  BoxOptions half = full;
  half.max_iterations = 200;
  BoxState state;
  complex_box(sphere, lower, upper, half, &state);
  const BoxResult resumed = complex_box(sphere, lower, upper, half, &state);

  // 200 + 200 resumed iterations reach the same complex as 400 straight
  // (the RNG stream is carried through the state).
  EXPECT_EQ(resumed.best, one_shot.best);
  EXPECT_EQ(state.total_iterations, 400);
  EXPECT_EQ(state.total_evaluations, full_state.total_evaluations);
}

TEST(ComplexBox, StateSerializationRoundTrips) {
  const std::vector<double> lower(3, -5.0);
  const std::vector<double> upper(3, 5.0);
  BoxOptions options;
  options.max_iterations = 50;
  BoxState state;
  complex_box(sphere, lower, upper, options, &state);

  const corba::Blob blob = state.serialize();
  const BoxState restored = BoxState::deserialize(blob);
  EXPECT_EQ(restored, state);

  // Resuming from the deserialized state gives identical results.
  BoxState a = state;
  BoxState b = restored;
  const BoxResult ra = complex_box(sphere, lower, upper, options, &a);
  const BoxResult rb = complex_box(sphere, lower, upper, options, &b);
  EXPECT_EQ(ra.best, rb.best);
}

TEST(ComplexBox, CorruptStateRejected) {
  corba::Blob garbage{std::byte{9}, std::byte{9}};
  EXPECT_THROW(BoxState::deserialize(garbage), corba::MARSHAL);
}

TEST(ComplexBox, RaggedStateBlobRejected) {
  // A checkpoint whose rows differ in length: the centroid loop would read
  // past the short row, so the decoder must refuse it.
  corba::CdrOutputStream out;
  out.write_u32(1);  // format version
  out.write_u32(3);  // points
  const std::vector<double> full{0.5, -0.5};
  const std::vector<double> short_row{0.25};
  out.write_f64_seq(full);
  out.write_f64_seq(short_row);
  out.write_f64_seq(full);
  out.write_f64_seq(std::vector<double>{1.0, 2.0, 3.0});
  out.write_i64(3);
  out.write_i32(0);
  out.write_u64(7);
  const corba::Blob blob = out.take_buffer();
  EXPECT_THROW(BoxState::deserialize(blob), corba::MARSHAL);
}

TEST(ComplexBox, InconsistentResumedStateRejected) {
  const std::vector<double> lower(2, -1.0);
  const std::vector<double> upper(2, 1.0);
  BoxOptions options;
  options.max_iterations = 10;
  BoxState valid;
  complex_box(sphere, lower, upper, options, &valid);
  ASSERT_EQ(valid.points.size(), 4u);

  BoxState ragged = valid;
  ragged.points[2].pop_back();
  EXPECT_THROW(complex_box(sphere, lower, upper, options, &ragged),
               std::invalid_argument);

  BoxState wrong_dimension = valid;
  for (auto& point : wrong_dimension.points) point.push_back(0.0);
  EXPECT_THROW(complex_box(sphere, lower, upper, options, &wrong_dimension),
               std::invalid_argument);

  BoxState missing_value = valid;
  missing_value.values.pop_back();
  EXPECT_THROW(complex_box(sphere, lower, upper, options, &missing_value),
               std::invalid_argument);

  // Fewer than n+1 points cannot span the space, and a one-point complex
  // would divide the centroid sum by K-1 = 0.
  BoxState too_small = valid;
  too_small.points.resize(2);
  too_small.values.resize(2);
  EXPECT_THROW(complex_box(sphere, lower, upper, options, &too_small),
               std::invalid_argument);

  // The rejected calls left the states untouched; the valid one resumes.
  EXPECT_NO_THROW(complex_box(sphere, lower, upper, options, &valid));
}

TEST(ComplexBox, InvalidArgumentsRejected) {
  const std::vector<double> lower(2, -1.0);
  const std::vector<double> upper(2, 1.0);
  const std::vector<double> bad_upper(2, -2.0);
  const std::vector<double> short_upper(1, 1.0);
  BoxOptions options;
  EXPECT_THROW(complex_box(sphere, {}, {}, options), std::invalid_argument);
  EXPECT_THROW(complex_box(sphere, lower, bad_upper, options),
               std::invalid_argument);
  EXPECT_THROW(complex_box(sphere, lower, short_upper, options),
               std::invalid_argument);
  options.alpha = 0.9;
  EXPECT_THROW(complex_box(sphere, lower, upper, options),
               std::invalid_argument);
  options = {};
  options.complex_size = 2;  // < n+1
  EXPECT_THROW(complex_box(sphere, lower, upper, options),
               std::invalid_argument);
}

TEST(ComplexBox, ZeroIterationBudgetJustInitializes) {
  const std::vector<double> lower(2, -1.0);
  const std::vector<double> upper(2, 1.0);
  BoxOptions options;
  options.max_iterations = 0;
  BoxState state;
  const BoxResult result = complex_box(sphere, lower, upper, options, &state);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.evaluations, 4);  // complex size 2n
  EXPECT_TRUE(state.initialized());
}

// --- golden trajectories -----------------------------------------------------
// Recorded from the original vector-of-rows kernel.  The optimizer must
// reproduce them bit for bit: Table 1 and Fig. 3 are exact virtual-time
// results, and any change in rounding (a running-sum centroid, contraction
// into FMA, reassociation) moves them.

std::uint64_t fnv1a(const corba::Blob& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

struct Golden {
  std::uint64_t best_value_bits;
  std::int64_t evaluations;
  int iterations;
  std::uint64_t state_digest;  ///< FNV-1a of BoxState::serialize()
};

void expect_golden(const BoxResult& result, const BoxState& state,
                   const Golden& golden) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.best_value),
            golden.best_value_bits)
      << "best_value " << result.best_value;
  EXPECT_EQ(result.evaluations, golden.evaluations);
  EXPECT_EQ(result.iterations, golden.iterations);
  EXPECT_EQ(fnv1a(state.serialize()), golden.state_digest);
}

TEST(ComplexBoxGolden, WorkerBlockWithWarmStartedResumes) {
  // Block 0 of the paper's 100/7 instance (14 variables), solved the way
  // OptWorkerServant does: a fresh call, then three resumes after the
  // manager moved the coupling values, each re-valuing the kept complex.
  const Decomposition decomposition = Decomposition::make(100, 7);
  const Block& block = decomposition.block(0);
  ASSERT_EQ(block.dimension, 14);
  const std::vector<double> lower(14, -5.0);
  const std::vector<double> upper(14, 5.0);
  std::vector<double> coupling(6, 0.5);
  const Objective objective = [&](std::span<const double> x) {
    return decomposition.block_objective(block, x, coupling);
  };

  BoxState state;
  BoxResult result;
  for (int call = 0; call < 4; ++call) {
    if (state.initialized())
      for (std::size_t p = 0; p < state.points.size(); ++p)
        state.values[p] = objective(state.points[p]);
    BoxOptions options;
    options.max_iterations = 2000;
    options.seed = 100 + static_cast<std::uint64_t>(call);
    result = complex_box(objective, lower, upper, options, &state);
    for (double& c : coupling) c = 0.8 * c + 0.1 * call;
  }
  EXPECT_EQ(state.total_iterations, 8000);
  expect_golden(result, state,
                {4616288822767656535ull, 2934, 2000, 14972142568173524325ull});
}

TEST(ComplexBoxGolden, ManagerShapedRun) {
  // The 100/7 manager problem is 6-dimensional; a chained Rosenbrock
  // stands in for the worker round behind each evaluation.
  const std::vector<double> lower(6, -5.0);
  const std::vector<double> upper(6, 5.0);
  BoxOptions options;
  options.max_iterations = 300;
  options.seed = 1;
  BoxState state;
  const BoxResult result = complex_box(
      [](std::span<const double> c) { return rosenbrock(c); }, lower, upper,
      options, &state);
  expect_golden(result, state,
                {4616852359007595593ull, 512, 300, 2079676174189514953ull});
}

TEST(ComplexBoxGolden, CollapseRestartsAndGuinPulls) {
  // Long Rosenbrock runs: the complex collapses in the valley (25 restarts
  // each) and reflections through its curved floor fail often enough to
  // need pulls toward the best point (5 in 2-D).  With one contraction
  // allowed, the 3-D run pulls 400 times and 17 times ends on the best
  // point itself.
  struct Case {
    int n;
    int iterations;
    int max_contractions;
    Golden golden;
  };
  for (const Case& c :
       {Case{2, 5000, 6, {0ull, 6130, 5000, 6001696965176182893ull}},
        Case{3, 3000, 1,
             {4148941156715069440ull, 5067, 3000, 4569391281475488756ull}}}) {
    SCOPED_TRACE(c.n);
    const std::vector<double> lower(static_cast<std::size_t>(c.n), -2.048);
    const std::vector<double> upper(static_cast<std::size_t>(c.n), 2.048);
    BoxOptions options;
    options.max_iterations = c.iterations;
    options.max_contractions = c.max_contractions;
    options.seed = 3;
    BoxState state;
    const BoxResult result = complex_box(
        [](std::span<const double> x) { return rosenbrock(x); }, lower, upper,
        options, &state);
    expect_golden(result, state, c.golden);
  }
}

TEST(ComplexBoxGolden, ComplexSizeOverride) {
  const std::vector<double> lower(5, -3.0);
  const std::vector<double> upper(5, 3.0);
  for (int complex_size : {6, 17}) {
    BoxOptions options;
    options.max_iterations = 1500;
    options.complex_size = complex_size;
    options.seed = 9;
    BoxState state;
    const BoxResult result = complex_box(
        [](std::span<const double> x) { return rosenbrock(x); }, lower, upper,
        options, &state);
    ASSERT_EQ(state.points.size(), static_cast<std::size_t>(complex_size));
    expect_golden(
        result, state,
        complex_size == 6
            ? Golden{4616033882305695462ull, 2523, 1500, 11568591687273143177ull}
            : Golden{4455721462719414964ull, 2569, 1500, 351969349723328195ull});
  }
}

TEST(ComplexBox, AllocationsDoNotGrowWithIterations) {
  const std::vector<double> lower(14, -5.0);
  const std::vector<double> upper(14, 5.0);
  auto allocations_for = [&](int iterations, bool resume) {
    BoxOptions options;
    options.max_iterations = iterations;
    BoxState state;
    if (resume) complex_box(sphere, lower, upper, options, &state);
    const std::uint64_t before = g_allocations.load();
    complex_box(sphere, lower, upper, options, &state);
    return g_allocations.load() - before;
  };
  EXPECT_EQ(allocations_for(100, false), allocations_for(2000, false));
  EXPECT_EQ(allocations_for(100, true), allocations_for(2000, true));
}

}  // namespace
}  // namespace opt
