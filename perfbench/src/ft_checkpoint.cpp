// ft_checkpoint: the paper's fault-tolerance proxy over TCP — the per-byte
// path.  Every logical call is followed by a full 64 KiB state capture
// shipped to a remote checkpoint store; every 16th op migrates the service
// (re-resolve, store load, set_state), so checkpointed calls set the median
// and migrations set the tail.
#include <chrono>
#include <mutex>
#include <random>

#include "ft/checkpoint.hpp"
#include "ft/checkpoint_store.hpp"
#include "ft/proxy.hpp"
#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "spans.hpp"
#include "winner/system_manager.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kStateBytes = 64 * 1024;
constexpr double kDirtyFraction = 0.10;
constexpr std::uint64_t kMigrationEvery = 16;
constexpr int kWarmupOps = 2 * static_cast<int>(kMigrationEvery);
constexpr std::string_view kServiceName = "PerfbenchState";
constexpr std::string_view kCheckpointKey = "perfbench/state";

std::uint64_t fnv1a(const corba::Blob& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::byte b : bytes) {
    h ^= std::to_integer<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Checkpointable service with 64 KiB of opaque state; touch(token)
/// rewrites the head of ~10% of the delta chunks from the token.
class StateServant final : public corba::Servant,
                           public ft::CheckpointableServant {
 public:
  StateServant()
      : state_(kStateBytes, std::byte{0}),
        chunks_(kStateBytes / ft::kDefaultChunkSize),
        dirty_per_call_(std::max<std::size_t>(
            1, static_cast<std::size_t>(kDirtyFraction * static_cast<double>(chunks_) + 0.5))) {}

  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/perfbench/State:1.0";
  }

  corba::Value dispatch(std::string_view op, const corba::ValueSeq& args) override {
    if (auto handled = try_dispatch_state(op, args)) return *handled;
    if (op == "touch") {
      check_arity(op, args, 1);
      spans::RemoteScope span("servant.touch");
      const std::uint64_t token = args[0].as_u64();
      std::lock_guard lock(mu_);
      for (std::size_t j = 0; j < dirty_per_call_; ++j) {
        const std::size_t chunk = (token + j * 7) % chunks_;
        std::byte* at = state_.data() + chunk * ft::kDefaultChunkSize;
        for (int k = 0; k < 8; ++k)
          at[k] = static_cast<std::byte>((token >> (8 * k)) & 0xff);
      }
      return corba::Value(++calls_);
    }
    if (op == "digest") {
      check_arity(op, args, 0);
      std::lock_guard lock(mu_);
      return corba::Value(fnv1a(state_));
    }
    throw corba::BAD_OPERATION(std::string(op));
  }

  corba::Blob get_state() override {
    spans::RemoteScope span("ft.get_state");
    std::lock_guard lock(mu_);
    return state_;
  }

  void set_state(const corba::Blob& state) override {
    spans::RemoteScope span("ft.set_state");
    std::lock_guard lock(mu_);
    state_ = state;
  }

 private:
  std::mutex mu_;
  corba::Blob state_;
  std::size_t chunks_;
  std::size_t dirty_per_call_;
  std::uint64_t calls_ = 0;
};

/// Checkpoint-store decorator recording a span around each call.  The
/// client side (the TCP stub) records on the caller thread; the backend
/// side (inside the store servant) records remote spans.
template <typename ScopeT>
class TimedStore final : public ft::CheckpointStoreClient {
 public:
  TimedStore(std::shared_ptr<ft::CheckpointStoreClient> inner,
             const char* store_span, const char* load_span)
      : inner_(std::move(inner)), store_span_(store_span), load_span_(load_span) {}

  void store(const std::string& key, std::uint64_t version,
             const corba::Blob& state) override {
    ScopeT span(store_span_);
    inner_->store(key, version, state);
  }
  void store_delta(const std::string& key, std::uint64_t base_version,
                   std::uint64_t version, const corba::Blob& delta) override {
    ScopeT span(store_span_);
    inner_->store_delta(key, base_version, version, delta);
  }
  std::optional<ft::Checkpoint> load(const std::string& key) override {
    ScopeT span(load_span_);
    return inner_->load(key);
  }
  void remove(const std::string& key) override { inner_->remove(key); }
  std::vector<std::string> keys() override { return inner_->keys(); }
  std::uint64_t head_version(const std::string& key) override {
    return inner_->head_version(key);
  }
  ft::CheckpointLog fetch_log(const std::string& key, std::uint64_t since) override {
    return inner_->fetch_log(key, since);
  }

 private:
  std::shared_ptr<ft::CheckpointStoreClient> inner_;
  const char* store_span_;
  const char* load_span_;
};

/// Naming decorator recording a span around load-aware resolution.
class TimedNaming final : public naming::NamingContext {
 public:
  explicit TimedNaming(std::shared_ptr<naming::NamingContext> inner)
      : inner_(std::move(inner)) {}

  void bind(const naming::Name& n, const corba::ObjectRef& o) override { inner_->bind(n, o); }
  void rebind(const naming::Name& n, const corba::ObjectRef& o) override { inner_->rebind(n, o); }
  corba::ObjectRef resolve(const naming::Name& n) override {
    spans::Scope span("naming.resolve");
    return inner_->resolve(n);
  }
  void unbind(const naming::Name& n) override { inner_->unbind(n); }
  corba::ObjectRef bind_new_context(const naming::Name& n) override {
    return inner_->bind_new_context(n);
  }
  std::vector<naming::Binding> list() override { return inner_->list(); }
  void bind_offer(const naming::Name& n, const corba::ObjectRef& o,
                  const std::string& host) override {
    inner_->bind_offer(n, o, host);
  }
  void unbind_offer(const naming::Name& n, const std::string& host) override {
    inner_->unbind_offer(n, host);
  }
  std::vector<naming::Offer> list_offers(const naming::Name& n) override {
    return inner_->list_offers(n);
  }
  corba::ObjectRef resolve_with(const naming::Name& n,
                                naming::ResolveStrategy strategy) override {
    spans::Scope span("naming.resolve");
    return inner_->resolve_with(n, strategy);
  }

 private:
  std::shared_ptr<naming::NamingContext> inner_;
};

class FtCheckpoint final : public BenchWorkload {
 public:
  explicit FtCheckpoint(std::uint64_t seed) : seed_(seed) {}
  ~FtCheckpoint() override { teardown(); }

  int callers() const override { return 1; }

  void setup() override {
    rng_.seed(seed_);
    ops_ = 0;
    const naming::Name name = naming::Name::parse(kServiceName);

    // Infrastructure process: Winner manager, naming service, checkpoint
    // store (a MemoryCheckpointStore behind a CheckpointStoreServant).
    infra_ = tcp_orb("ft-infra");
    auto manager = std::make_shared<winner::SystemManager>();
    naming::NamingContextOptions naming_options;
    naming_options.default_strategy = naming::ResolveStrategy::winner;
    naming_options.winner = manager;
    auto [naming_servant, naming_ref] =
        naming::NamingContextServant::create_root(infra_, naming_options);
    auto backend = std::make_shared<TimedStore<spans::RemoteScope>>(
        std::make_shared<ft::MemoryCheckpointStore>(), "ft.store_backend",
        "ft.load_backend");
    const corba::ObjectRef store_ref =
        infra_->activate(std::make_shared<ft::CheckpointStoreServant>(backend));

    // Two workstation processes, each offering the service.
    for (const char* host : {"ft-hostA", "ft-hostB"}) {
      auto orb = tcp_orb(host);
      manager->register_host(host, 1.0);
      manager->report_load(host, {.load_avg = 0.0, .timestamp = 0.0});
      naming_servant->bind_offer(name, orb->activate(std::make_shared<StateServant>()),
                                 host);
      servers_.push_back(std::move(orb));
    }

    // Client process: everything it uses goes over TCP.
    client_ = tcp_orb("ft-client");
    auto naming_client = std::make_shared<TimedNaming>(
        std::make_shared<naming::NamingContextStub>(client_->make_ref(naming_ref.ior())));
    ft::ProxyConfig config;
    config.initial = naming_client->resolve_with(name, naming::ResolveStrategy::winner);
    config.naming = naming_client;
    config.service_name = name;
    config.store = std::make_shared<TimedStore<spans::Scope>>(
        std::make_shared<ft::CheckpointStoreStub>(client_->make_ref(store_ref.ior())),
        "ft.store", "ft.load");
    config.checkpoint_key = std::string(kCheckpointKey);
    config.policy.checkpoint_mode = ft::CheckpointMode::full_sync;
    config.policy.checkpoint_every = 1;
    config.policy.mode = ft::RecoveryMode::reresolve;
    config.policy.unbind_failed_offer = false;
    config.policy.resolve_strategy = naming::ResolveStrategy::winner;
    engine_ = std::make_unique<ft::ProxyEngine>(std::move(config));

    OpSink warmup;
    for (int i = 0; i < kWarmupOps; ++i) step(0, warmup);
  }

  void teardown() override {
    engine_.reset();
    if (client_) client_->shutdown();
    for (auto& orb : servers_) orb->shutdown();
    if (infra_) infra_->shutdown();
    client_.reset();
    servers_.clear();
    infra_.reset();
  }

  void step(int, OpSink& sink) override {
    const bool migrate = ++ops_ % kMigrationEvery == 0;
    bool ok = false;
    double latency = 0.0;
    try {
      if (migrate) {
        const corba::ObjectRef before = engine_->current();
        const std::uint64_t digest_before = digest(before);
        const auto start = Clock::now();
        {
          spans::Scope span("ft.recover");
          engine_->recover_now();
        }
        latency = std::chrono::duration<double>(Clock::now() - start).count();
        // The replacement must hold exactly the state the old instance had.
        ok = !(engine_->current() == before) && digest(engine_->current()) == digest_before;
      } else {
        const std::uint64_t token = rng_();
        const auto start = Clock::now();
        corba::Value result;
        {
          spans::Scope span("ft.proxy_call");
          result = engine_->call("touch", {corba::Value(token)});
        }
        latency = std::chrono::duration<double>(Clock::now() - start).count();
        ok = result.as_u64() > 0;
      }
    } catch (const corba::Exception&) {
      ok = false;
    }
    sink.op(latency, ok);
  }

  CallShape call_shape() const override {
    // The per-byte call: one full checkpoint shipped to the store.
    return {"store",
            {corba::Value(std::string(kCheckpointKey)), corba::Value(std::uint64_t{1}),
             corba::Value(corba::Blob(kStateBytes, std::byte{0x5a}))},
            corba::Value()};
  }

  int worker_iterations() const override { return 10000; }

 private:
  static std::uint64_t digest(const corba::ObjectRef& ref) {
    spans::Scope span("bench.check");
    return ref.invoke("digest", {}).as_u64();
  }

  std::uint64_t seed_;
  std::mt19937_64 rng_;
  std::uint64_t ops_ = 0;
  std::shared_ptr<corba::ORB> infra_;
  std::vector<std::shared_ptr<corba::ORB>> servers_;
  std::shared_ptr<corba::ORB> client_;
  std::unique_ptr<ft::ProxyEngine> engine_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_ft_checkpoint(std::uint64_t seed) {
  return std::make_unique<FtCheckpoint>(seed);
}

}  // namespace pb
