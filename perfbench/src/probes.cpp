#include "probes.hpp"

#include <chrono>

#include "opt/complex_box.hpp"
#include "opt/rosenbrock.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "stats.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCodecSamples = 2000;
constexpr int kInprocSamples = 2000;
constexpr int kComplexBoxSamples = 5;

/// Written with every probe result so the timed work cannot be elided.
volatile std::size_t g_probe_sink = 0;

template <typename F>
double median_seconds(int samples, F&& body) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    body();
    times.push_back(std::chrono::duration<double>(Clock::now() - start).count());
  }
  return median_of(std::move(times));
}

/// Answers every call with the shape's reply.
class ShapeServant final : public corba::Servant {
 public:
  explicit ShapeServant(corba::Value reply) : reply_(std::move(reply)) {}
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/perfbench/Shape:1.0";
  }
  corba::Value dispatch(std::string_view, const corba::ValueSeq&) override {
    return reply_;
  }

 private:
  corba::Value reply_;
};

}  // namespace

CodecTimes probe_codec(const CallShape& shape) {
  CodecTimes t;
  const auto encode_all = [&](corba::CdrOutputStream& out) {
    for (const corba::Value& v : shape.arguments) v.encode(out);
    shape.reply.encode(out);
  };
  std::size_t sink = 0;
  t.value_encode_s = median_seconds(kCodecSamples, [&] {
    corba::CdrOutputStream out;
    encode_all(out);
    sink += out.size();
  });

  corba::CdrOutputStream encoded;
  encode_all(encoded);
  const std::vector<std::byte> bytes = encoded.take_buffer();
  t.value_decode_s = median_seconds(kCodecSamples, [&] {
    corba::CdrInputStream in(bytes);
    for (std::size_t i = 0; i <= shape.arguments.size(); ++i)
      sink += static_cast<std::size_t>(corba::Value::decode(in).kind());
  });

  corba::RequestMessage request;
  request.request_id = 1;
  request.object_key = corba::ObjectKey::from_string("perfbench/shape");
  request.operation = shape.operation;
  request.arguments = shape.arguments;
  t.frame_encode_s = median_seconds(kCodecSamples, [&] {
    corba::CdrOutputStream body;
    request.encode_body(body);
    sink += corba::encode_frame(corba::MessageType::request, body).size();
  });
  g_probe_sink = sink;
  return t;
}

double probe_inproc_invoke(const CallShape& shape) {
  auto network = std::make_shared<corba::InProcessNetwork>();
  const auto inproc_orb = [&](const char* name) {
    corba::OrbConfig config;
    config.endpoint_name = name;
    config.network = network;
    return corba::ORB::init(std::move(config));
  };
  auto server = inproc_orb("probe-server");
  auto client = inproc_orb("probe-client");
  const corba::ObjectRef ref = client->make_ref(
      server->activate(std::make_shared<ShapeServant>(shape.reply)).ior());
  const double median = median_seconds(kInprocSamples, [&] {
    if (!(ref.invoke(shape.operation, shape.arguments) == shape.reply))
      throw corba::INTERNAL("in-process probe reply mismatch");
  });
  client->shutdown();
  server->shutdown();
  return median;
}

double probe_complex_box(int iterations, std::uint64_t seed) {
  const opt::Decomposition decomposition = opt::Decomposition::make(100, 7);
  const opt::Block& block = decomposition.block(0);
  const std::vector<double> coupling(
      static_cast<std::size_t>(decomposition.coupling_dimension()), 1.0);
  const opt::Objective objective = [&](std::span<const double> x) {
    return decomposition.block_objective(block, x, coupling);
  };
  const std::vector<double> lower(static_cast<std::size_t>(block.dimension), -5.0);
  const std::vector<double> upper(static_cast<std::size_t>(block.dimension), 5.0);
  opt::BoxOptions options;
  options.max_iterations = iterations;
  options.seed = seed;
  std::int64_t evaluations = 0;
  const double median = median_seconds(kComplexBoxSamples, [&] {
    evaluations += opt::complex_box(objective, lower, upper, options).evaluations;
  });
  g_probe_sink = static_cast<std::size_t>(evaluations);
  return median;
}

WorkloadProbe probe_workload(BenchWorkload& workload, int steps) {
  WorkloadProbe probe;
  workload.setup();
  (void)spans::drain();  // set-up spans are not part of the probe
  const CounterSnapshot before = take_snapshot();
  OpSink sink;
  sink.set_mode(OpSink::traced);
  for (int i = 0; i < steps; ++i) {
    spans::Scope root("op", true);
    workload.step(0, sink);
  }
  probe.delta = difference(take_snapshot(), before);
  workload.teardown();
  probe.spans = spans::self_times(spans::drain());
  return probe;
}

}  // namespace pb
