#include "orb/orb.hpp"

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/exceptions.hpp"
#include "orb/tcp_transport.hpp"

namespace corba {

namespace {

// Pre-registered handles (see obs/metrics.hpp): the per-call cost with no
// exporter installed is one relaxed atomic increment.
struct OrbMetrics {
  obs::Counter& requests =
      obs::MetricsRegistry::global().counter("orb.requests_total");
  obs::Counter& async_requests =
      obs::MetricsRegistry::global().counter("orb.async_requests_total");
  obs::Counter& oneways =
      obs::MetricsRegistry::global().counter("orb.oneways_total");
  obs::Histogram& latency =
      obs::MetricsRegistry::global().histogram("orb.request_latency_s");

  // Latency is only recorded while tracing is on (see invoke()), so every
  // observation has an ambient trace — exemplars make the Prometheus export
  // name the worst trace per bucket, joinable with orbtrace output.
  OrbMetrics() { latency.enable_exemplars(); }
};

OrbMetrics& orb_metrics() {
  static OrbMetrics metrics;
  return metrics;
}

}  // namespace

ObjectRef::ObjectRef(std::shared_ptr<ORB> orb, IOR ior)
    : orb_(std::move(orb)), ior_(std::move(ior)) {}

Value ObjectRef::invoke(std::string_view op, ValueSeq args) const {
  auto orb = orb_.lock();
  if (!orb || ior_.is_nil())
    throw BAD_INV_ORDER("invoke on nil reference", minor_code::unspecified,
                        CompletionStatus::completed_no);
  return orb->invoke(ior_, op, std::move(args));
}

std::unique_ptr<PendingReply> ObjectRef::send(std::string_view op,
                                              ValueSeq args) const {
  auto orb = orb_.lock();
  if (!orb || ior_.is_nil())
    throw BAD_INV_ORDER("send on nil reference", minor_code::unspecified,
                        CompletionStatus::completed_no);
  return orb->send(ior_, op, std::move(args));
}

void ObjectRef::invoke_oneway(std::string_view op, ValueSeq args) const {
  auto orb = orb_.lock();
  if (!orb || ior_.is_nil())
    throw BAD_INV_ORDER("invoke_oneway on nil reference",
                        minor_code::unspecified,
                        CompletionStatus::completed_no);
  orb->send_oneway(ior_, op, std::move(args));
}

bool ObjectRef::is_a(std::string_view repo_id) const {
  return invoke("_is_a", {Value(std::string(repo_id))}).as_bool();
}

bool ObjectRef::ping() const noexcept {
  try {
    invoke("_ping", {});
    return true;
  } catch (const SystemException&) {
    return false;
  }
}

Value ObjectRef::to_value() const {
  if (is_nil()) return Value();
  return Value(ior_.to_string());
}

ObjectRef ObjectRef::from_value(const std::shared_ptr<ORB>& orb,
                                const Value& v) {
  if (v.is_nil()) return ObjectRef();
  if (!orb) throw BAD_PARAM("from_value requires an ORB");
  return orb->make_ref(IOR::from_string(v.as_string()));
}

ORB::ORB(OrbConfig config) : config_(std::move(config)) {}

std::shared_ptr<ORB> ORB::init(OrbConfig config) {
  if (config.endpoint_name.empty())
    throw BAD_PARAM("OrbConfig.endpoint_name must not be empty");
  if (!config.network && !config.client_transport_override && !config.enable_tcp)
    throw BAD_PARAM("OrbConfig requires a network, transport override or TCP");
  if (config.enable_tcp && config.dispatch_threads < 1)
    throw BAD_PARAM("OrbConfig.dispatch_threads must be >= 1 with TCP");
  auto orb = std::shared_ptr<ORB>(new ORB(std::move(config)));
  orb->start();
  return orb;
}

void ORB::start() {
  EndpointProfile profile;
  profile.adapter_id = config_.adapter_id;
  if (config_.enable_tcp) {
    TcpServerOptions server_options;
    server_options.io_threads = config_.io_threads;
    server_options.listen_backlog = config_.listen_backlog;
    server_options.idle_timeout_s = config_.server_idle_timeout_s;
    tcp_server_ = std::make_unique<TcpServerEndpoint>(
        config_.tcp_host, config_.tcp_port, server_options);
    profile.protocol = std::string(protocol::tcp);
    profile.host = config_.tcp_host;
    profile.port = tcp_server_->port();
  } else {
    profile.protocol = std::string(protocol::inproc);
    profile.host = config_.endpoint_name;
    profile.port = 0;
  }
  adapter_ = std::make_shared<ObjectAdapter>(std::move(profile));
  if (config_.enable_tcp)
    adapter_->enable_dispatch_pool(
        {config_.dispatch_threads, config_.dispatch_queue_limit});
  if (tcp_server_) tcp_server_->start(adapter_);
  if (config_.network) {
    config_.network->bind(config_.endpoint_name, adapter_);
    inproc_transport_ =
        std::make_shared<InProcessTransport>(config_.network);
  }
  if (config_.enable_tcp)
    tcp_transport_ = std::make_shared<TcpClientTransport>(config_.tcp_client);
}

ORB::~ORB() { shutdown(); }

void ORB::shutdown() {
  if (shut_down_.exchange(true)) return;
  // The reactor first, so no new requests reach the pool, then drain the
  // pool itself.
  if (tcp_server_) tcp_server_->stop();
  if (adapter_) adapter_->stop_dispatch_pool();
  if (config_.network) config_.network->unbind(config_.endpoint_name);
}

std::uint16_t ORB::tcp_port() const noexcept {
  return tcp_server_ ? tcp_server_->port() : 0;
}

ObjectRef ORB::activate(std::shared_ptr<Servant> servant,
                        std::string_view name_hint) {
  IOR ior = adapter_->activate(std::move(servant), name_hint);
  return ObjectRef(shared_from_this(), std::move(ior));
}

ObjectRef ORB::make_ref(IOR ior) {
  return ObjectRef(shared_from_this(), std::move(ior));
}

ClientTransport& ORB::transport_for(const IOR& target) {
  if (config_.client_transport_override)
    return *config_.client_transport_override;
  if (target.protocol == protocol::inproc) {
    if (!inproc_transport_)
      throw COMM_FAILURE("ORB has no in-process network",
                         minor_code::endpoint_unknown,
                         CompletionStatus::completed_no);
    return *inproc_transport_;
  }
  if (target.protocol == protocol::tcp) {
    if (!tcp_transport_) {
      // Lazily create a TCP client transport: a pure-client ORB may talk to
      // TCP servers without exposing a TCP endpoint itself.
      std::lock_guard lock(initial_refs_mu_);
      if (!tcp_transport_)
        tcp_transport_ = std::make_shared<TcpClientTransport>(config_.tcp_client);
    }
    return *tcp_transport_;
  }
  throw INV_OBJREF("unknown protocol '" + target.protocol + "'");
}

std::unique_ptr<PendingReply> ORB::send(const IOR& target, std::string_view op,
                                        ValueSeq args) {
  if (shut_down_.load())
    throw BAD_INV_ORDER("ORB has been shut down", minor_code::unspecified,
                        CompletionStatus::completed_no);
  RequestMessage req;
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.object_key = target.key;
  req.operation = std::string(op);
  req.arguments = std::move(args);
  orb_metrics().async_requests.inc();
  // Deferred sends record only the start edge; the reply is demuxed inside
  // the transport and has no hook back into the recorder.
  obs::flight_event(obs::FlightEvent::rpc_start, req.operation, req.request_id);
  // The send span covers only request hand-off; the transport records the
  // round trip when the pending reply completes.
  obs::Span span("rpc.send", req.operation);
  if (span.active()) attach_trace_context(req, span.context());
  return transport_for(target).send(target, std::move(req));
}

Value ORB::invoke(const IOR& target, std::string_view op, ValueSeq args) {
  if (shut_down_.load())
    throw BAD_INV_ORDER("ORB has been shut down", minor_code::unspecified,
                        CompletionStatus::completed_no);
  RequestMessage req;
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.object_key = target.key;
  req.operation = std::string(op);
  req.arguments = std::move(args);
  OrbMetrics& metrics = orb_metrics();
  metrics.requests.inc();
  obs::Span span("rpc.client", req.operation);
  if (span.active()) attach_trace_context(req, span.context());
  const bool timed = span.active();  // latency is sampled while tracing is on
  const double start = timed ? obs::now() : 0.0;
  const std::uint64_t request_id = req.request_id;
  const std::string operation = req.operation;  // survives the move below
  obs::flight_event(obs::FlightEvent::rpc_start, operation, request_id);
  ReplyMessage reply;
  try {
    reply = transport_for(target).invoke(target, std::move(req));
  } catch (...) {
    obs::flight_event(obs::FlightEvent::rpc_end, operation, request_id, 1);
    throw;
  }
  if (timed) metrics.latency.record(obs::now() - start);
  obs::flight_event(obs::FlightEvent::rpc_end, operation, request_id,
                    reply.status == ReplyStatus::no_exception ? 0 : 1);
  return reply.result_or_throw();
}

void ORB::send_oneway(const IOR& target, std::string_view op, ValueSeq args) {
  if (shut_down_.load())
    throw BAD_INV_ORDER("ORB has been shut down", minor_code::unspecified,
                        CompletionStatus::completed_no);
  RequestMessage req;
  req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  req.object_key = target.key;
  req.operation = std::string(op);
  req.arguments = std::move(args);
  req.response_expected = false;
  orb_metrics().oneways.inc();
  obs::flight_event(obs::FlightEvent::rpc_start, req.operation, req.request_id);
  obs::Span span("rpc.oneway", req.operation);
  if (span.active()) attach_trace_context(req, span.context());
  // Best-effort: the pending handle is discarded; transports deliver without
  // producing a reply and delivery failures are intentionally silent.
  try {
    transport_for(target).send(target, std::move(req));
  } catch (const SystemException&) {
  }
}

std::string ORB::object_to_string(const ObjectRef& ref) const {
  if (ref.is_nil()) return "IOR:";
  return ref.ior().to_string();
}

ObjectRef ORB::string_to_object(std::string_view ior_string) {
  if (ior_string == "IOR:") return ObjectRef();
  return make_ref(IOR::from_string(ior_string));
}

void ORB::register_initial_reference(const std::string& name, ObjectRef ref) {
  std::lock_guard lock(initial_refs_mu_);
  initial_refs_[name] = std::move(ref);
}

ObjectRef ORB::resolve_initial_references(const std::string& name) {
  std::lock_guard lock(initial_refs_mu_);
  auto it = initial_refs_.find(name);
  if (it == initial_refs_.end())
    throw INV_OBJREF("no initial reference named '" + name + "'");
  return it->second;
}

std::vector<std::string> ORB::list_initial_services() const {
  std::lock_guard lock(initial_refs_mu_);
  std::vector<std::string> names;
  names.reserve(initial_refs_.size());
  for (const auto& [name, ref] : initial_refs_) names.push_back(name);
  return names;
}

}  // namespace corba
