// Integration tests of the SimRuntime deployment: the Fig. 1 architecture
// assembled end to end — node managers reporting through the ORB, the
// naming service consulting Winner, factories resolvable per host.
#include "core/sim_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/event_channel.hpp"

namespace rt {
namespace {

class EchoServant : public corba::Servant {
 public:
  std::string_view repo_id() const noexcept override {
    return "IDL:corbaft/tests/Echo:1.0";
  }
  corba::Value dispatch(std::string_view op,
                        const corba::ValueSeq& args) override {
    if (op == "echo") {
      check_arity(op, args, 1);
      return args[0];
    }
    throw corba::BAD_OPERATION(std::string(op));
  }
};

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i)
      cluster_.add_host("node" + std::to_string(i), 100.0);
  }

  sim::Cluster cluster_;
};

TEST_F(RuntimeTest, InfraHostIsAddedButNotPlaceable) {
  SimRuntime runtime(cluster_);
  EXPECT_TRUE(cluster_.has_host(names::kInfraHost));
  // All worker hosts are known to Winner, the infra host is not.
  runtime.events().run_until(0.5);  // first reports arrive
  const auto known = runtime.winner_impl()->known_hosts();
  EXPECT_EQ(known.size(), 4u);
  for (const std::string& host : known) EXPECT_NE(host, names::kInfraHost);
}

TEST_F(RuntimeTest, NodeManagersReportThroughTheOrb) {
  SimRuntime runtime(cluster_);
  runtime.events().run_until(3.5);
  // Every host has fresh load data (reports at t=0,1,2,3).
  for (const std::string& host : runtime.worker_hosts())
    EXPECT_EQ(runtime.winner_impl()->host_index(host), 0.0) << host;
  // Background load becomes visible through the reports.  The selection
  // index is load per unit of speed: 3 processes on a speed-100 host.
  cluster_.set_background_load("node2", 3);
  runtime.events().run_until(4.5);
  EXPECT_DOUBLE_EQ(runtime.winner_impl()->host_index("node2"), 3.0 / 100.0);
}

TEST_F(RuntimeTest, InitialReferencesAreRegistered) {
  SimRuntime runtime(cluster_);
  auto orb = runtime.client_orb();
  EXPECT_FALSE(orb->resolve_initial_references("NameService").is_nil());
  EXPECT_FALSE(orb->resolve_initial_references("WinnerSystemManager").is_nil());
  EXPECT_FALSE(orb->resolve_initial_references("CheckpointStore").is_nil());
}

TEST_F(RuntimeTest, DeployBindsOfferOnRequestedHost) {
  SimRuntime runtime(cluster_);
  const naming::Name name = naming::Name::parse("Echo");
  runtime.deploy("node2", std::make_shared<EchoServant>(), name);
  const auto offers = runtime.naming().list_offers(name);
  ASSERT_EQ(offers.size(), 1u);
  EXPECT_EQ(offers[0].host, "node2");

  const corba::ObjectRef ref = runtime.resolve(name);
  EXPECT_EQ(ref.invoke("echo", {corba::Value("hi")}).as_string(), "hi");
}

TEST_F(RuntimeTest, WinnerResolveSpreadsPlacements) {
  SimRuntime runtime(cluster_);
  runtime.events().run_until(0.5);
  runtime.registry()->register_type(
      "Echo", [] { return std::make_shared<EchoServant>(); });
  const naming::Name name = naming::Name::parse("Echo");
  runtime.deploy_everywhere(name, "Echo");

  std::set<std::string> hosts;
  for (int i = 0; i < 4; ++i) {
    const corba::ObjectRef ref = runtime.resolve(name);
    hosts.insert(ref.ior().host);
  }
  EXPECT_EQ(hosts.size(), 4u);  // four resolves, four distinct machines
}

TEST_F(RuntimeTest, RoundRobinRuntimeIgnoresLoad) {
  RuntimeOptions options;
  options.naming_strategy = naming::ResolveStrategy::round_robin;
  SimRuntime runtime(cluster_, options);
  runtime.events().run_until(0.5);
  cluster_.set_background_load("node0", 5);  // heavily loaded
  runtime.events().run_until(1.5);

  runtime.registry()->register_type(
      "Echo", [] { return std::make_shared<EchoServant>(); });
  const naming::Name name = naming::Name::parse("Echo");
  runtime.deploy_everywhere(name, "Echo");
  // Round robin serves node0 first despite its load — the plain baseline.
  EXPECT_EQ(runtime.resolve(name).ior().host, "node0");
}

TEST_F(RuntimeTest, FactoriesAreBoundPerHost) {
  SimRuntime runtime(cluster_);
  runtime.registry()->register_type(
      "Echo", [] { return std::make_shared<EchoServant>(); });
  for (const std::string& host : runtime.worker_hosts()) {
    ft::ServiceFactoryStub factory = runtime.factory_on(host);
    EXPECT_EQ(factory.host(), host);
    const corba::ObjectRef fresh = factory.create("Echo");
    EXPECT_EQ(fresh.ior().host, host);
  }
}

TEST_F(RuntimeTest, BestFactoryFollowsLoad) {
  RuntimeOptions options;
  SimRuntime runtime(cluster_, options);
  runtime.events().run_until(0.5);
  // Load everything except node3.
  for (const std::string host : {"node0", "node1", "node2"})
    cluster_.set_background_load(host, 2);
  runtime.events().run_until(1.5);
  EXPECT_EQ(runtime.best_factory().host(), "node3");
}

TEST_F(RuntimeTest, CheckpointStoreIsSharedInfrastructure) {
  SimRuntime runtime(cluster_);
  auto store = runtime.checkpoint_store();
  corba::Blob blob{std::byte{1}};
  store->store("svc", 1, blob);
  EXPECT_EQ(runtime.checkpoint_backend()->stores(), 1u);
  const auto loaded = store->load("svc");
  ASSERT_TRUE(loaded);
  EXPECT_EQ(loaded->state, blob);
}

TEST_F(RuntimeTest, EmptyClusterRejected) {
  sim::Cluster empty;
  EXPECT_THROW(SimRuntime runtime(empty), corba::BAD_PARAM);
}

TEST_F(RuntimeTest, StalenessDetectsDeadHosts) {
  RuntimeOptions options;
  options.winner_stale_after = 2.5;
  SimRuntime runtime(cluster_, options);
  runtime.events().run_until(0.5);
  cluster_.crash_host("node1");
  runtime.events().run_until(5.0);  // node1 misses reports
  const std::string best = runtime.winner_impl()->best_host(
      std::vector<std::string>{"node1", "node2"});
  EXPECT_EQ(best, "node2");
}

TEST_F(RuntimeTest, RuntimeBuiltBeforeItsPredecessorDiesKeepsTheEventChannel) {
  // The next runtime is built while the previous one still lives (the way
  // `runtime = std::make_unique<SimRuntime>(...)` replaces one): the late
  // destructor must leave the successor's channel binding alone.
  sim::Cluster next_cluster;
  for (int i = 0; i < 4; ++i)
    next_cluster.add_host("node" + std::to_string(i), 100.0);
  auto previous = std::make_unique<SimRuntime>(cluster_);
  SimRuntime next(next_cluster);
  previous.reset();

  std::vector<std::string> received;
  obs::EventChannel::global().subscribe(
      {.topics = {obs::Topic::flight_event}},
      [&](std::span<const obs::Event> batch) {
        for (const obs::Event& event : batch) received.push_back(event.key);
      });
  obs::publish_event(obs::Topic::flight_event, "node0", "probe", {});
  next.events().run_until(next.events().now() + 1.0);
  EXPECT_EQ(std::count(received.begin(), received.end(), "probe"), 1);
}

}  // namespace
}  // namespace rt
