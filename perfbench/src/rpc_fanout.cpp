// rpc_fanout: a manager-style fan-out over TCP loopback.  Nearly all of the
// work is the per-message TCP path (cdr -> message -> tcp_transport ->
// reactor -> dispatch_pool -> object_adapter and back); the servants do no
// work, and ft, naming, opt and sim are idle.
#include <chrono>
#include <random>

#include "orb/orb.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kServants = 7;
constexpr std::size_t kCouplingSize = 100;
// A multiple of kServants, so payload i of every round has block index i.
constexpr std::size_t kPayloadsPerCaller = 9 * kServants;
constexpr int kWarmupRounds = 50;

/// The solver's call shape: block index, coupling vector, iteration count.
struct Payload {
  std::int32_t block = 0;
  std::vector<double> coupling;
  std::int32_t iterations = 0;
};

/// Which coupling entry the servant echoes back as best_value, so a reply
/// can only match the request it answers.
std::size_t echo_index(std::int32_t block, std::int32_t iterations) {
  return static_cast<std::size_t>(block * 13 + iterations) % kCouplingSize;
}

/// Replies with a SolveOutcome-shaped pair derived from the request; no
/// work beyond decoding it.
class FanoutServant final : public corba::Servant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/perfbench/FanoutWorker:1.0";
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (op != "solve") throw corba::BAD_OPERATION(std::string(op));
    check_arity(op, args, 3);
    const std::int32_t block = args[0].as_i32();
    const std::vector<double>& coupling = args[1].as_f64_seq();
    const std::int32_t iterations = args[2].as_i32();
    if (coupling.size() != kCouplingSize)
      throw corba::BAD_PARAM("coupling vector has wrong dimension");
    return corba::Value(corba::ValueSeq{
        corba::Value(coupling[echo_index(block, iterations)]),
        corba::Value(static_cast<std::int64_t>(iterations))});
  }
};

corba::ValueSeq make_args(const Payload& p) {
  return {corba::Value(p.block), corba::Value(p.coupling),
          corba::Value(p.iterations)};
}

bool reply_matches(const corba::Value& reply, const Payload& p) {
  const corba::ValueSeq& fields = reply.as_sequence();
  return fields.size() == 2 &&
         fields[0].as_f64() == p.coupling[echo_index(p.block, p.iterations)] &&
         fields[1].as_i64() == p.iterations;
}

class RpcFanout final : public BenchWorkload {
 public:
  RpcFanout(std::uint64_t seed, int callers) : callers_(callers) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coupling(-5.0, 5.0);
    std::uniform_int_distribution<std::int32_t> iterations(1000, 20000);
    payloads_.resize(static_cast<std::size_t>(callers));
    for (auto& pool : payloads_) {
      for (std::size_t i = 0; i < kPayloadsPerCaller; ++i) {
        Payload p;
        p.block = static_cast<std::int32_t>(i % kServants);
        p.coupling.resize(kCouplingSize);
        for (double& x : p.coupling) x = coupling(rng);
        p.iterations = iterations(rng);
        pool.push_back(std::move(p));
      }
    }
    next_.assign(static_cast<std::size_t>(callers), 0);
  }

  ~RpcFanout() override { teardown(); }

  int callers() const override { return callers_; }

  void setup() override {
    server_ = tcp_orb("fanout-server");
    client_ = tcp_orb("fanout-client");
    for (int i = 0; i < kServants; ++i) {
      const corba::ObjectRef ref = server_->activate(
          std::make_shared<FanoutServant>(), "block" + std::to_string(i));
      refs_.push_back(client_->make_ref(ref.ior()));
    }
    OpSink warmup;
    for (int r = 0; r < kWarmupRounds; ++r) step(0, warmup);
    next_.assign(next_.size(), 0);
  }

  void teardown() override {
    refs_.clear();
    if (client_) client_->shutdown();
    if (server_) server_->shutdown();
    client_.reset();
    server_.reset();
  }

  void step(int caller, OpSink& sink) override {
    auto& pool = payloads_[static_cast<std::size_t>(caller)];
    std::size_t& next = next_[static_cast<std::size_t>(caller)];
    const Payload* sent[kServants];
    std::unique_ptr<corba::PendingReply> pending[kServants];
    Clock::time_point started[kServants];
    for (int i = 0; i < kServants; ++i) {
      const Payload& p = pool[(next + static_cast<std::size_t>(i)) % pool.size()];
      sent[i] = &p;
      corba::ValueSeq args = make_args(p);
      started[i] = Clock::now();
      try {
        spans::Scope span("orb.send");
        pending[i] = refs_[static_cast<std::size_t>(i)].send("solve", std::move(args));
      } catch (const corba::Exception&) {
        pending[i].reset();
      }
    }
    next = (next + kServants) % pool.size();
    for (int i = 0; i < kServants; ++i) {
      bool ok = false;
      if (pending[i]) {
        try {
          corba::ReplyMessage reply;
          {
            spans::Scope span("orb.reply_wait");
            reply = pending[i]->get();
          }
          ok = reply_matches(reply.result_or_throw(), *sent[i]);
        } catch (const corba::Exception&) {
          ok = false;
        }
      }
      sink.op(std::chrono::duration<double>(Clock::now() - started[i]).count(), ok);
    }
  }

  CallShape call_shape() const override {
    const Payload& p = payloads_[0][0];
    return {"solve", make_args(p),
            corba::Value(corba::ValueSeq{
                corba::Value(p.coupling[echo_index(p.block, p.iterations)]),
                corba::Value(static_cast<std::int64_t>(p.iterations))})};
  }

  int worker_iterations() const override { return payloads_[0][0].iterations; }

 private:
  int callers_;
  std::vector<std::vector<Payload>> payloads_;
  std::vector<std::size_t> next_;
  std::shared_ptr<corba::ORB> server_;
  std::shared_ptr<corba::ORB> client_;
  std::vector<corba::ObjectRef> refs_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_rpc_fanout(std::uint64_t seed, int callers) {
  return std::make_unique<RpcFanout>(seed, callers);
}

}  // namespace pb
