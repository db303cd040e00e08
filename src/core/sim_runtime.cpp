#include "core/sim_runtime.hpp"

#include "winner/placement.hpp"

#include "obs/event_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace rt {

SimRuntime::SimRuntime(sim::Cluster& cluster, RuntimeOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  worker_hosts_ = cluster_.host_names();
  if (worker_hosts_.empty())
    throw corba::BAD_PARAM("SimRuntime requires a non-empty cluster");

  // Observability runs on virtual time while this runtime lives: spans and
  // flight events are stamped from the cluster's event queue, and span ids
  // restart from the run's seed — two same-seed runs therefore produce
  // byte-identical trace and flight dumps.
  obs_clock_token_ =
      obs::set_clock([&events = cluster_.events()] { return events.now(); });
  obs::set_trace_seed(options_.seed);
  // The always-on flight recorder is part of the same determinism contract:
  // starting every run from an empty ring (and the sim being single-driver)
  // makes same-seed chaos runs render byte-identical flight dumps.
  obs::FlightRecorder::global().clear();
  // The push telemetry plane rides the same contract: the runtime owns the
  // process-global event channel for its lifetime and binds it to the
  // virtual clock — deliveries are scheduled events, so a same-seed run
  // renders a byte-identical event stream.  Sequence numbers restart from
  // zero with the run (reset()).
  obs::EventChannel::global().reset();
  channel_token_ = obs::EventChannel::global().bind(
      {.defer = [&events = cluster_.events()](double delay,
                                              std::function<void()> fn) {
        events.schedule_after(delay, std::move(fn));
      }});
  if (options_.metrics_epoch > 0) {
    metrics_publisher_ = std::make_unique<obs::MetricsDeltaPublisher>(
        obs::MetricsDeltaPublisher::Options{
            // Empty host: under the in-process simulator the metric
            // substrate is process-wide, and consumers (orbtop push mode)
            // apply host-less deltas to every row.
            .host = "", .epoch = options_.metrics_epoch});
    metrics_publisher_->start_deferred(
        [&events = cluster_.events()](double delay, std::function<void()> fn) {
          events.schedule_after(delay, std::move(fn));
        });
  }
  if (options_.trace_sample_n > 0) {
    // Empty host for the same reason as the metrics publisher: spans under
    // the in-process simulator come from one process-wide sink, and the
    // assembler keys them by trace id, not host.
    obs::SpanExporter::Options exporter;
    exporter.host = "";
    exporter.sample_n = options_.trace_sample_n;
    trace_exporter_ = std::make_unique<obs::SpanExporter>(std::move(exporter));
    trace_exporter_->install();
  }

  network_ = std::make_shared<corba::InProcessNetwork>();

  // Dedicated infrastructure workstation: hosts naming, Winner and the
  // checkpoint store, but never competes for application placement (it is
  // not registered with the system manager).
  cluster_.add_host(names::kInfraHost, options_.infra_speed);
  // Each ORB gets its own simulator transport carrying its endpoint as the
  // message source, so cross-domain (WAN) traffic is charged correctly.
  auto make_orb = [&](const std::string& endpoint) {
    cluster_.map_endpoint(endpoint, endpoint == "client" ? names::kInfraHost
                                                         : endpoint);
    auto orb = corba::ORB::init(
        {.endpoint_name = endpoint,
         .network = network_,
         .client_transport_override = std::make_shared<sim::SimTransport>(
             cluster_, network_, endpoint, options_.request_timeout,
             options_.enable_sessions),
         .adapter_id = ++next_adapter_id_});
    return orb;
  };
  const bool hierarchical = !options_.host_domains.empty();
  if (hierarchical) {
    if (options_.home_domain.empty())
      throw corba::BAD_PARAM("host_domains requires a home_domain");
    for (const auto& [host, domain] : options_.host_domains)
      cluster_.set_host_domain(host, domain);
    cluster_.set_host_domain(names::kInfraHost, options_.home_domain);
  }

  infra_orb_ = make_orb(names::kInfraHost);
  client_orb_ = make_orb("client");

  // Winner: one central system manager, or (hierarchical mode) one per site
  // federated by a MetaSystemManager with the WAN placement penalty.
  const winner::SystemManagerOptions manager_options{
      .stale_after = options_.winner_stale_after,
      .clock = [this] { return cluster_.events().now(); },
      .demote_stale_hosts = options_.demote_stale_hosts};
  if (hierarchical) {
    auto meta = std::make_shared<winner::MetaSystemManager>(
        winner::MetaManagerOptions{.home_domain = options_.home_domain,
                                   .remote_penalty =
                                       options_.wan_remote_penalty});
    for (const auto& [host, domain] : options_.host_domains) {
      if (site_managers_.count(domain)) continue;
      auto site = std::make_shared<winner::SystemManager>(manager_options);
      site_managers_[domain] = site;
      meta->add_domain(domain, site);
      site_manager_refs_[domain] = infra_orb_->activate(
          std::make_shared<winner::SystemManagerServant>(site),
          "SystemManager-" + domain);
    }
    load_info_ = meta;
    winner_ref_ = site_manager_refs_.at(options_.home_domain);
  } else {
    winner_impl_ = std::make_shared<winner::SystemManager>(manager_options);
    load_info_ = winner_impl_;
    winner_ref_ = infra_orb_->activate(
        std::make_shared<winner::SystemManagerServant>(winner_impl_),
        "SystemManager");
  }

  if (options_.enable_quarantine)
    quarantine_ =
        std::make_shared<ft::OfferQuarantine>(options_.quarantine_options);

  // Load-distributing naming service wired to Winner (Fig. 1).
  naming::NamingContextOptions naming_options;
  naming_options.default_strategy = options_.naming_strategy;
  naming_options.winner = load_info_;
  naming_options.random_seed = options_.seed;
  if (quarantine_)
    naming_options.offer_filter = [q = quarantine_, cluster = &cluster_](
                                      const naming::Name& name,
                                      const naming::Offer& offer) {
      return !q->quarantined(name.to_string(), offer.host,
                             cluster->events().now());
    };
  auto [naming_servant, naming_ref] =
      naming::NamingContextServant::create_root(infra_orb_, naming_options);
  naming_servant_ = naming_servant;
  naming_ref_ = naming_ref;

  // Checkpoint storage service (the paper's unoptimized prototype).
  checkpoint_backend_ =
      std::make_shared<ft::MemoryCheckpointStore>(options_.checkpoint_cost);
  store_ref_ = infra_orb_->activate(
      std::make_shared<ft::CheckpointStoreServant>(checkpoint_backend_),
      "CheckpointStore");

  registry_ = std::make_shared<ft::ServantFactoryRegistry>();

  // Per-workstation server process: ORB + node manager + service factory.
  naming::NamingContextStub root(infra_orb_->make_ref(naming_ref_.ior()));
  root.bind_new_context(naming::Name::parse(names::kFactoriesContext));
  for (const std::string& host : worker_hosts_) {
    Node node;
    node.host = host;
    node.orb = make_orb(host);
    // Register with the (site) system manager; node managers report to
    // their own site's manager, as a WAN deployment would.
    corba::ObjectRef site_ref = winner_ref_;
    if (hierarchical) {
      const std::string domain = cluster_.domain_of(host);
      auto meta =
          std::static_pointer_cast<winner::MetaSystemManager>(load_info_);
      meta->register_host(domain + "/" + host, cluster_.host(host).speed());
      site_ref = site_manager_refs_.at(domain);
    } else {
      winner_impl_->register_host(host, cluster_.host(host).speed());
    }
    auto manager_stub = std::make_shared<winner::SystemManagerStub>(
        node.orb->make_ref(site_ref.ior()));
    node.node_manager = std::make_unique<winner::NodeManager>(
        host, std::make_shared<winner::SimHostSensor>(cluster_.host(host)),
        manager_stub, options_.report_period);
    if (options_.start_node_managers)
      node.node_manager->start_simulated(cluster_.events());
    node.factory_ref = node.orb->activate(
        std::make_shared<ft::ServiceFactoryServant>(node.orb, host, registry_),
        "Factory");
    root.bind(naming::Name::parse(names::kFactoriesContext).append(host),
              node.factory_ref);

    // In-band introspection: every node's telemetry object, reachable under
    // the reserved `_obs/<host>` path even while the host is quarantined.
    obs::TelemetryOptions telemetry;
    telemetry.host = host;
    std::shared_ptr<winner::SystemManager> site_manager =
        hierarchical ? site_managers_.at(cluster_.domain_of(host))
                     : winner_impl_;
    telemetry.report_age = [this, site_manager, host]() -> double {
      try {
        return cluster_.events().now() -
               site_manager->last_sample(host).timestamp;
      } catch (const std::out_of_range&) {
        return -1.0;  // never reported yet
      }
    };
    telemetry.load_index = [this, host]() -> double {
      try {
        return load_info_->host_index(host);
      } catch (...) {
        return -1.0;
      }
    };
    if (quarantine_)
      telemetry.quarantined = [this]() -> std::uint64_t {
        return quarantine_->active(cluster_.events().now());
      };
    // Weak, like every other ORB reference a servant closure holds: the
    // telemetry servant lives in this very ORB's adapter, so a strong
    // capture is a reference cycle and the whole per-host object graph
    // outlives the runtime (LeakSanitizer flags it on every sim test).
    telemetry.dispatch_queue_depth =
        [orb = std::weak_ptr<corba::ORB>(node.orb)]() -> std::uint64_t {
      const std::shared_ptr<corba::ORB> live = orb.lock();
      const corba::DispatchPool* pool =
          live ? live->adapter().dispatch_pool() : nullptr;
      return pool ? pool->depth() : 0;
    };
    obs::install_telemetry(node.orb, root, std::move(telemetry));
    nodes_.push_back(std::move(node));
  }

  // Sharded checkpoint store: shard primaries on the least-loaded worker
  // hosts (distinct per replica set), each asynchronously replicating every
  // acknowledged write to its followers.  The central servant above stays
  // up regardless; with shards deployed, checkpoint_store() routes to them.
  if (options_.checkpoint_shards > 0) {
    const std::size_t replicas =
        std::max<std::size_t>(1, options_.checkpoint_replicas);
    const winner::PlacementPlan plan = winner::plan_shard_placements(
        *load_info_, worker_hosts_, options_.checkpoint_shards, replicas);
    for (std::size_t shard = 0; shard < plan.shard_hosts.size(); ++shard) {
      const std::vector<std::string>& hosts = plan.shard_hosts[shard];
      std::vector<corba::ObjectRef> refs(hosts.size());
      // Followers first — the primary's forwarder needs their references.
      for (std::size_t r = 1; r < hosts.size(); ++r) {
        refs[r] = node_orb(hosts[r])->activate(
            std::make_shared<ft::CheckpointStoreServant>(
                std::make_shared<ft::MemoryCheckpointStore>(
                    options_.checkpoint_cost)),
            "CheckpointShard-" + std::to_string(shard) + "-r" +
                std::to_string(r));
      }
      ft::ReplicatingStore::Options replication;
      for (std::size_t r = 1; r < hosts.size(); ++r) {
        // Follower stubs minted from the *primary's* ORB: forwards travel
        // primary host -> follower host over the virtual network.
        replication.followers.push_back(
            std::make_shared<ft::CheckpointStoreStub>(
                node_orb(hosts[0])->make_ref(refs[r].ior())));
      }
      replication.defer = [this](std::function<void()> fn) {
        cluster_.events().schedule_after(0.0, std::move(fn));
      };
      replication.shard_label = "shard-" + std::to_string(shard);
      replication.host = hosts[0];
      replication.shard_id = shard;
      auto primary = std::make_shared<ft::ReplicatingStore>(
          std::make_shared<ft::MemoryCheckpointStore>(
              options_.checkpoint_cost),
          std::move(replication));
      refs[0] = node_orb(hosts[0])->activate(
          std::make_shared<ft::CheckpointStoreServant>(primary),
          "CheckpointShard-" + std::to_string(shard));
      shard_primaries_.push_back(std::move(primary));
      shard_refs_.push_back(std::move(refs));
      shard_hosts_.push_back(hosts);
    }
  }

  // Make the services discoverable the CORBA way.
  for (const auto& orb : {infra_orb_, client_orb_}) {
    orb->register_initial_reference("NameService",
                                    orb->make_ref(naming_ref_.ior()));
    orb->register_initial_reference("WinnerSystemManager",
                                    orb->make_ref(winner_ref_.ior()));
    orb->register_initial_reference("CheckpointStore",
                                    orb->make_ref(store_ref_.ior()));
  }
}

SimRuntime::~SimRuntime() {
  stop_node_managers();
  // Uninstall the span exporter first: its final flush publishes through the
  // channel, which must still be bound to accept (and then discard) it.
  if (trace_exporter_) trace_exporter_->uninstall();
  // Release the channel before the virtual clock: queued-but-undelivered
  // events die with the run, and a later runtime (or a TCP deployment in
  // the same process) starts from a fresh bind.  Token-checked like the
  // clock: a runtime built before this one died owns the channel now.
  obs::EventChannel::global().reset(channel_token_);
  obs::clear_clock(obs_clock_token_);
}

void SimRuntime::stop_node_managers() {
  // The metrics publisher is a periodic producer like the node managers:
  // stop it too, so draining the event queue terminates.
  if (metrics_publisher_) metrics_publisher_->stop();
  for (Node& node : nodes_)
    if (node.node_manager) node.node_manager->stop();
}

std::shared_ptr<corba::ORB> SimRuntime::node_orb(const std::string& host) const {
  for (const Node& node : nodes_)
    if (node.host == host) return node.orb;
  throw corba::BAD_PARAM("no node for host '" + host + "'");
}

naming::NamingContextStub SimRuntime::naming() const {
  return naming::NamingContextStub(client_orb_->make_ref(naming_ref_.ior()));
}

winner::SystemManagerStub SimRuntime::winner_stub() const {
  return winner::SystemManagerStub(client_orb_->make_ref(winner_ref_.ior()));
}

std::shared_ptr<ft::CheckpointStoreClient> SimRuntime::checkpoint_store() const {
  if (shard_refs_.empty()) {
    return std::make_shared<ft::CheckpointStoreStub>(
        client_orb_->make_ref(store_ref_.ior()));
  }
  // Every call builds a fresh sharded client: each proxy/worker fails over
  // independently, exactly as separate client processes would.
  std::vector<ft::ShardedCheckpointStore::ShardReplicas> shards;
  shards.reserve(shard_refs_.size());
  for (std::size_t shard = 0; shard < shard_refs_.size(); ++shard) {
    ft::ShardedCheckpointStore::ShardReplicas set;
    set.replicas.reserve(shard_refs_[shard].size());
    for (const corba::ObjectRef& ref : shard_refs_[shard])
      set.replicas.push_back(std::make_shared<ft::CheckpointStoreStub>(
          client_orb_->make_ref(ref.ior())));
    set.hosts = shard_hosts_[shard];
    shards.push_back(std::move(set));
  }
  return std::make_shared<ft::ShardedCheckpointStore>(std::move(shards));
}

std::size_t SimRuntime::shard_for_key(const std::string& key) const {
  if (shard_refs_.empty()) return 0;
  // Same ring parameters as the clients checkpoint_store() builds.
  return ft::HashRing(shard_refs_.size(),
                      ft::ShardedCheckpointStore::Options{}.virtual_nodes)
      .shard_for(key);
}

corba::ObjectRef SimRuntime::deploy(const std::string& host,
                                    std::shared_ptr<corba::Servant> servant,
                                    const naming::Name& name) {
  const corba::ObjectRef ref = node_orb(host)->activate(std::move(servant));
  naming().bind_offer(name, ref, host);
  return client_orb_->make_ref(ref.ior());
}

void SimRuntime::deploy_everywhere(const naming::Name& name,
                                   const std::string& service_type) {
  for (const std::string& host : worker_hosts_)
    deploy(host, registry_->create(service_type), name);
}

corba::ObjectRef SimRuntime::resolve(const naming::Name& name) const {
  return naming().resolve(name);
}

ft::ServiceFactoryStub SimRuntime::factory_on(const std::string& host) const {
  naming::Name name = naming::Name::parse(names::kFactoriesContext);
  name.append(host);
  return ft::ServiceFactoryStub(naming().resolve(name));
}

ft::ServiceFactoryStub SimRuntime::best_factory() const {
  const std::string host = load_info_->best_host(worker_hosts_);
  load_info_->notify_placement(host);
  return factory_on(host);
}

std::shared_ptr<winner::SystemManager> SimRuntime::site_manager(
    const std::string& domain) const {
  auto it = site_managers_.find(domain);
  if (it == site_managers_.end())
    throw corba::BAD_PARAM("unknown site: " + domain);
  return it->second;
}

ft::ProxyConfig SimRuntime::make_proxy_config(const naming::Name& name,
                                              const std::string& service_type,
                                              const std::string& checkpoint_key,
                                              ft::RecoveryPolicy policy,
                                              corba::ObjectRef initial) const {
  ft::ProxyConfig config;
  config.initial = initial.is_nil() ? resolve(name) : std::move(initial);
  config.naming = std::make_shared<naming::NamingContextStub>(naming());
  config.service_name = name;
  config.store = checkpoint_store();
  config.checkpoint_key = checkpoint_key;
  config.service_type = service_type;
  config.policy = policy;
  config.locate_factory = [this] { return best_factory(); };
  // Virtual-time clock and sleep: a backoff wait advances the simulation
  // instead of blocking the (single) driver thread.
  config.clock = [this]() -> double { return cluster_.events().now(); };
  config.sleep = [this](double dt) {
    cluster_.events().run_until(cluster_.events().now() + dt);
  };
  // Async checkpoint shipping becomes a deferred event on the virtual
  // clock, so delta_async runs keep deterministic traces.
  config.defer = [this](std::function<void()> fn) {
    cluster_.events().schedule_after(0.0, std::move(fn));
  };
  config.quarantine = quarantine_;
  return config;
}

}  // namespace rt
