// SimRuntime: the paper's full deployment on a simulated NOW, in one object.
//
// Given a cluster of simulated workstations, SimRuntime stands up exactly
// the architecture of the paper's Fig. 1:
//
//   * one ORB ("server process") per workstation, all sharing one virtual
//     network and the simulator transport;
//   * a Winner node manager per workstation, periodically reporting load to
//     the central system manager (oneway CORBA messages);
//   * the central infrastructure — naming service (with the load
//     distribution extension), Winner system manager, checkpoint storage
//     service and per-host service factories — activated on an extra
//     "infra" workstation that is *not* registered with Winner, so the
//     infrastructure never competes with application placement;
//   * a client ORB for the driving application (the optimization manager).
//
// It also wires fault tolerance: make_proxy_config() produces a ready
// ProxyConfig whose factory locator asks Winner for the best host and uses
// that host's ServiceFactory — the recovery path of §3.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ft/checkpoint_store.hpp"
#include "ft/proxy.hpp"
#include "ft/sharded_store.hpp"
#include "ft/store_replication.hpp"
#include "ft/quarantine.hpp"
#include "ft/service_factory.hpp"
#include "naming/naming_context.hpp"
#include "naming/naming_stub.hpp"
#include "obs/publisher.hpp"
#include "obs/trace_export.hpp"
#include "sim/cluster.hpp"
#include "sim/sim_transport.hpp"
#include "winner/meta_manager.hpp"
#include "winner/node_manager.hpp"
#include "winner/system_manager.hpp"
#include "winner/system_manager_corba.hpp"

namespace rt {

struct RuntimeOptions {
  /// Strategy of the naming service's default resolve(): `winner` gives the
  /// paper's load-distributing service, `round_robin` the plain baseline.
  naming::ResolveStrategy naming_strategy = naming::ResolveStrategy::winner;

  /// Seed for the naming service's `random` strategy.
  std::uint64_t seed = 1;

  /// Winner node-manager reporting period (virtual seconds).
  double report_period = 1.0;

  /// Winner staleness horizon; 0 disables.  Setting it (e.g. 2.5 * period)
  /// makes crashed workstations drop out of placement decisions.
  double winner_stale_after = 0.0;

  /// Simulated cost of the checkpoint storage service (Table 1's
  /// "not optimized for speed in any way" prototype).
  ft::MemoryCheckpointStore::CostModel checkpoint_cost{};

  /// Speed of the extra infrastructure workstation.
  double infra_speed = 100.0;

  /// Start node managers (disable for microtests that want a silent queue).
  bool start_node_managers = true;

  /// Per-request reply deadline in virtual seconds (0 = unbounded).  Expiry
  /// raises corba::TIMEOUT, which the fault-tolerance proxies treat as a
  /// failure — the only way a *hung* (not crashed) server becomes
  /// recoverable.
  double request_timeout = 0;

  /// Resumable transport sessions: a connection-reset fault then reconnects
  /// and replays the lost frame (exactly-once completion, deterministic
  /// resume penalty) instead of batch-failing the connection and waking the
  /// fault-tolerance proxies.  Mirrors TcpClientOptions::enable_sessions.
  bool enable_sessions = false;

  // --- recovery hardening -----------------------------------------------------
  /// Stand up a shared OfferQuarantine and wire it into naming resolution
  /// and every make_proxy_config(); repeatedly failing instances are then
  /// skipped by resolves until they prove healthy again.
  bool enable_quarantine = true;
  ft::QuarantineOptions quarantine_options{};

  /// Degrade gracefully when every host's load report goes stale (e.g. the
  /// system manager is partitioned from the reporters): demote stale hosts
  /// behind fresh ones instead of refusing placement.  Only observable with
  /// winner_stale_after > 0.
  bool demote_stale_hosts = true;

  // --- wide-area (meta-computing) deployments -------------------------------
  /// Assigns workstations to network domains (sites).  Empty = one site.
  /// With domains set, each site runs its own Winner system manager and the
  /// naming service consults a hierarchical MetaSystemManager; inter-domain
  /// messages pay the cluster's WAN network model.
  std::map<std::string, std::string> host_domains;
  /// Home site for hierarchical placement (required with host_domains; the
  /// infrastructure and the client live there).
  std::string home_domain;
  /// Load-index penalty for placing work outside the home domain.
  double wan_remote_penalty = 1.0;

  // --- sharded checkpoint store ----------------------------------------------
  /// When > 0, the checkpoint store is sharded: this many store servants are
  /// placed on the least-loaded worker hosts (winner::plan_shard_placements)
  /// and checkpoint_store() consistent-hashes keys across them.  0 keeps the
  /// paper's layout — one servant on the infra host — with zero behavioral
  /// drift for the Table 1 experiments.
  std::size_t checkpoint_shards = 0;
  /// Copies per shard including the primary (with checkpoint_shards > 0).
  /// Followers land on hosts distinct from their primary and receive
  /// asynchronous forwards of every acknowledged write; clients fail over
  /// to the freshest follower when the primary's host crashes.
  std::size_t checkpoint_replicas = 1;

  // --- push telemetry ---------------------------------------------------------
  /// When > 0, run a virtual-clock MetricsDeltaPublisher at this epoch
  /// (virtual seconds): every epoch the runtime publishes changed metrics on
  /// the `metrics.delta` topic of the process-global event channel.  The
  /// channel itself is always bound (deferred, virtual-clock delivery), so
  /// subscribers see flight/session/load events regardless; this
  /// option only controls the periodic metrics producer.  Default off: the
  /// paper's Table 1 runs carry no telemetry traffic.
  double metrics_epoch = 0.0;
  /// When > 0, install a process-wide SpanExporter publishing every finished
  /// span on the `trace.span` topic, head-sampled at one trace in N (decided
  /// from the trace id, so all hosts keep or drop the same traces; 1 = keep
  /// everything).  Spans are stamped from the virtual clock and the exporter
  /// batches through the deferred channel, so same-seed runs publish a
  /// byte-identical span stream.  Default off: Table 1 runs trace nothing
  /// and the wire carries no span bytes.
  std::uint64_t trace_sample_n = 0;
};

/// Well-known names used by the runtime's naming layout.
namespace names {
inline const std::string kFactoriesContext = "Factories";
inline const std::string kInfraHost = "infra";
}  // namespace names

class SimRuntime {
 public:
  /// `cluster` must already contain the application workstations; the
  /// runtime adds the infra host, one ORB + node manager + factory per
  /// workstation and the central services.
  SimRuntime(sim::Cluster& cluster, RuntimeOptions options = {});
  ~SimRuntime();

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  sim::Cluster& cluster() noexcept { return cluster_; }
  sim::EventQueue& events() noexcept { return cluster_.events(); }
  const RuntimeOptions& options() const noexcept { return options_; }

  /// The driving application's ORB.
  const std::shared_ptr<corba::ORB>& client_orb() const noexcept {
    return client_orb_;
  }
  /// Per-workstation server ORB.
  std::shared_ptr<corba::ORB> node_orb(const std::string& host) const;
  /// Application workstations (excludes the infra host).
  const std::vector<std::string>& worker_hosts() const noexcept {
    return worker_hosts_;
  }

  // --- central services, as the client sees them ---------------------------
  naming::NamingContextStub naming() const;
  winner::SystemManagerStub winner_stub() const;
  std::shared_ptr<ft::CheckpointStoreClient> checkpoint_store() const;

  /// Direct access to the system manager implementation (tests, benches).
  /// Single-site deployments only; null in hierarchical mode.
  const std::shared_ptr<winner::SystemManager>& winner_impl() const noexcept {
    return winner_impl_;
  }
  /// The load information service the naming layer consults: the system
  /// manager (single site) or the meta manager (hierarchical).
  const std::shared_ptr<winner::LoadInformationService>& load_info()
      const noexcept {
    return load_info_;
  }
  /// Per-site system manager (hierarchical mode; throws for unknown sites).
  std::shared_ptr<winner::SystemManager> site_manager(
      const std::string& domain) const;
  /// Direct access to the in-memory checkpoint backend (telemetry).
  /// The central (unsharded) store; still live with sharding on, but
  /// checkpoint traffic goes to the shards then.
  const std::shared_ptr<ft::MemoryCheckpointStore>& checkpoint_backend()
      const noexcept {
    return checkpoint_backend_;
  }

  // --- sharded checkpoint store (checkpoint_shards > 0) ---------------------
  std::size_t checkpoint_shard_count() const noexcept {
    return shard_refs_.size();
  }
  /// shard_hosts()[s][r] = host of shard s, replica r (0 = primary).
  const std::vector<std::vector<std::string>>& shard_hosts() const noexcept {
    return shard_hosts_;
  }
  /// Shard a key routes to (the ring every checkpoint_store() client uses).
  std::size_t shard_for_key(const std::string& key) const;
  /// The primary's replicating wrapper (tests: flush, lag, catch-up counts).
  const std::shared_ptr<ft::ReplicatingStore>& shard_primary(
      std::size_t shard) const {
    return shard_primaries_.at(shard);
  }
  const std::shared_ptr<ft::ServantFactoryRegistry>& registry() const noexcept {
    return registry_;
  }
  /// Shared circuit breaker (null when enable_quarantine is off).
  const std::shared_ptr<ft::OfferQuarantine>& quarantine() const noexcept {
    return quarantine_;
  }

  // --- deployment -----------------------------------------------------------
  /// Activates a servant on `host`'s ORB and registers it as an offer under
  /// `name`.  Returns the new instance's reference (client ORB binding).
  corba::ObjectRef deploy(const std::string& host,
                          std::shared_ptr<corba::Servant> servant,
                          const naming::Name& name);

  /// Deploys one instance of `service_type` (from the registry) on every
  /// worker host, as offers under `name` — the service pool the experiments
  /// resolve from.
  void deploy_everywhere(const naming::Name& name,
                         const std::string& service_type);

  /// Resolve through the naming service (default strategy).
  corba::ObjectRef resolve(const naming::Name& name) const;

  /// Factory of a specific host.
  ft::ServiceFactoryStub factory_on(const std::string& host) const;

  /// Factory on the host Winner currently ranks best.
  ft::ServiceFactoryStub best_factory() const;

  // --- fault tolerance -------------------------------------------------------
  /// Ready-made proxy configuration for a service deployed under `name`:
  /// naming + checkpoint store + winner-driven factory locator.  When
  /// `initial` is nil the target is resolved through the naming service.
  ft::ProxyConfig make_proxy_config(const naming::Name& name,
                                    const std::string& service_type,
                                    const std::string& checkpoint_key,
                                    ft::RecoveryPolicy policy = {},
                                    corba::ObjectRef initial = {}) const;

  /// Stops node managers (e.g. before draining the event queue).
  void stop_node_managers();

 private:
  struct Node {
    std::string host;
    std::shared_ptr<corba::ORB> orb;
    std::unique_ptr<winner::NodeManager> node_manager;
    corba::ObjectRef factory_ref;
  };

  sim::Cluster& cluster_;
  RuntimeOptions options_;
  std::shared_ptr<corba::InProcessNetwork> network_;
  std::shared_ptr<corba::ORB> infra_orb_;
  std::shared_ptr<corba::ORB> client_orb_;
  std::shared_ptr<winner::SystemManager> winner_impl_;
  std::shared_ptr<winner::LoadInformationService> load_info_;
  std::map<std::string, std::shared_ptr<winner::SystemManager>> site_managers_;
  std::map<std::string, corba::ObjectRef> site_manager_refs_;
  std::shared_ptr<ft::MemoryCheckpointStore> checkpoint_backend_;
  std::vector<std::vector<corba::ObjectRef>> shard_refs_;
  std::vector<std::vector<std::string>> shard_hosts_;
  std::vector<std::shared_ptr<ft::ReplicatingStore>> shard_primaries_;
  std::shared_ptr<ft::ServantFactoryRegistry> registry_;
  std::shared_ptr<ft::OfferQuarantine> quarantine_;
  std::shared_ptr<naming::NamingContextServant> naming_servant_;
  corba::ObjectRef naming_ref_;
  corba::ObjectRef winner_ref_;
  corba::ObjectRef store_ref_;
  std::vector<std::string> worker_hosts_;
  std::vector<Node> nodes_;
  /// Deterministic per-runtime adapter ids: repeated runs in one process
  /// mint identical object keys (byte-identical messages and timings).
  std::uint64_t next_adapter_id_ = 0;
  /// Token of the virtual observability clock this runtime installed; the
  /// destructor only clears its own installation.
  std::uint64_t obs_clock_token_ = 0;
  std::uint64_t channel_token_ = 0;  ///< EventChannel::bind's, for reset
  /// Virtual-clock metrics producer (metrics_epoch > 0); stopped before the
  /// event queue is torn down.
  std::unique_ptr<obs::MetricsDeltaPublisher> metrics_publisher_;
  /// Span producer (trace_sample_n > 0); uninstalled before the channel is
  /// reset so a trailing flush still finds live subscribers.
  std::unique_ptr<obs::SpanExporter> trace_exporter_;
};

}  // namespace rt
