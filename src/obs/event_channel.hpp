// Push telemetry plane: a typed event channel with bounded per-subscriber
// queues and explicit overflow policy.
//
// Everything observability built before this was pull: orbtop polls
// `_obs/<host>` servants, Winner load reports are request/reply, and the
// flight recorder only surfaces on failure dumps.  Polling cost grows with
// hosts x watchers, and overload is only visible after the fact.  This
// channel inverts the direction, following the CORBA Event/Notification
// pattern: producers publish typed events, consumers subscribe with a
// per-subscriber bounded queue and a QoS policy for what happens when they
// fall behind — `drop_oldest` for log-like topics (flight events, session
// state), `coalesce_by_key` for state-like topics (metric deltas, load
// reports) where a newer value supersedes an unsent older one.
//
// Design constraints, in order:
//   * publishers never block: publish() appends under a short mutex and
//     returns; a slow or dead consumer costs its own queue bound, nothing
//     more.  With zero subscribers publish() is one relaxed atomic load.
//   * bounded memory: every subscriber queue has a hard limit; overflow is
//     accounted (obs.events.{dropped,coalesced}_total) never silent, and the
//     first overflow of a subscriber trips a flight-recorder auto-dump so
//     the ring contents land on the `flight.event` topic (see
//     FlightRecorder::dump_to_events).
//   * deterministic under the simulator: delivery is scheduled through an
//     injected `defer` executor (SimRuntime wires the virtual-clock event
//     queue), sequence numbers restart per run, and timestamps come from
//     obs::now() — two same-seed chaos runs render byte-identical event
//     streams (enforced by tests/integration/event_stream_test.cpp).
//   * transport-agnostic: the channel itself is corba-free (this layer sits
//     below the ORB); the push carrier over the real wire — an EventConsumer
//     servant driven by oneway `push` batches — lives in obs/telemetry.hpp.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace obs {

/// Typed topics.  A deliberately small, stable vocabulary (DESIGN.md "Push
/// telemetry plane" has the QoS table).
enum class Topic : std::uint8_t {
  metrics_delta = 0,     ///< changed MetricsRegistry entries, per epoch
  flight_event = 1,      ///< FlightRecorder live steps and ring dumps
  load_report = 2,       ///< Winner load reports as the system manager sees them
  session_state = 3,     ///< transport session lifecycle (resume/overflow)
  shard_state = 4,       ///< checkpoint-shard primary state (version, lag)
  trace_span = 5,        ///< finished SpanRecords (batched SpanExporter)
};
inline constexpr std::size_t kTopicCount = 6;

std::string_view to_string(Topic topic) noexcept;
/// Parses the dotted topic name ("metrics.delta"); nullopt when unknown.
std::optional<Topic> parse_topic(std::string_view name) noexcept;

/// One typed payload field.  A tagged scalar rather than corba::Value keeps
/// this layer free of ORB dependencies; the wire conversion lives in
/// obs/telemetry.hpp.
struct EventField {
  enum class Kind : std::uint8_t { f64, u64, str };
  std::string name;
  Kind kind = Kind::f64;
  double f64 = 0.0;
  std::uint64_t u64 = 0;
  std::string str;

  friend bool operator==(const EventField&, const EventField&) = default;
};
EventField num_field(std::string name, double value);
EventField int_field(std::string name, std::uint64_t value);
EventField str_field(std::string name, std::string value);

/// One published event.
struct Event {
  Topic topic = Topic::metrics_delta;
  std::string host;  ///< origin host; "" = process-wide (sim shares one process)
  std::string key;   ///< coalescing key within the topic (metric name, host, ...)
  double t = 0.0;    ///< obs::now() at publish (virtual under the simulator)
  std::uint64_t seq = 0;  ///< channel publish sequence (restarts on reset())
  std::vector<EventField> fields;

  /// Deterministic one-line rendering, the byte-identical stream contract:
  ///   [<t>] #<seq> <topic> host=<host> key=<key> <name>=<value> ...
  std::string to_line() const;
};

/// What happens when a subscriber's queue is at its bound.
enum class OverflowPolicy : std::uint8_t {
  /// The oldest queued event is discarded (counted in dropped).
  drop_oldest,
  /// The newest queued event with the same (topic, key) is replaced in
  /// place (counted in coalesced) — lossless for absolute-valued state
  /// topics; falls back to drop_oldest when no key matches.
  coalesce_by_key,
};

/// Per-topic default: state-like topics coalesce, log-like topics drop.
OverflowPolicy default_policy(Topic topic) noexcept;

struct SubscribeOptions {
  /// Topics to receive; empty = all.
  std::vector<Topic> topics;
  /// Per-subscriber queue bound (events).
  std::size_t queue_limit = 256;
  /// Overrides the per-topic default policy for every topic when set.
  std::optional<OverflowPolicy> policy;
  /// Minimum spacing between deliveries to this subscriber (seconds on the
  /// obs clock; 0 = deliver as soon as the executor runs).  A consumer that
  /// wants one batched update per second instead of an event storm sets 1.0
  /// and lets the overflow policy coalesce in between.
  double delivery_interval = 0.0;
  /// Identity used for idempotent subscription: a second subscribe with the
  /// same non-empty consumer_id returns the existing subscription id
  /// instead of creating a duplicate.  The remote carrier passes the
  /// consumer's stringified IOR, so one orbtop subscribing through every
  /// `_obs/<host>` servant of a shared-process (simulated) cluster still
  /// receives each event exactly once.
  std::string consumer_id;
};

/// Per-subscriber accounting, queryable for tests and tooling.
struct SubscriberStats {
  std::uint64_t id = 0;
  std::string consumer_id;
  std::size_t depth = 0;        ///< events currently queued
  std::size_t queue_limit = 0;
  std::uint64_t enqueued = 0;   ///< events accepted into the queue (incl. later drops)
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t failures = 0;   ///< consumer invocations that threw
};

class EventChannel {
 public:
  /// Delivers one batch; may throw (a remote push failing).  Three
  /// consecutive failures auto-unsubscribe the consumer.
  using Consumer = std::function<void(std::span<const Event>)>;

  /// Schedules `fn` to run `delay` seconds from now.  The simulator passes
  /// its virtual-clock event queue; when null the channel runs a lazily
  /// spawned delivery worker thread instead.
  using Defer = std::function<void(double delay, std::function<void()> fn)>;

  struct Options {
    Defer defer;
    /// Events handed to a consumer per invocation at most.
    std::size_t max_batch = 128;
  };

  EventChannel();
  ~EventChannel();
  EventChannel(const EventChannel&) = delete;
  EventChannel& operator=(const EventChannel&) = delete;

  /// The process-wide channel the runtime's producers publish to.
  static EventChannel& global();

  /// Installs the delivery executor and opens the channel for subscribe().
  /// Throws std::logic_error when already bound with live subscribers (two
  /// runtimes fighting over the global channel is a bug worth surfacing).
  /// Returns a token for reset(token).
  std::uint64_t bind(Options options);
  /// Drops every subscriber, joins the worker, and closes the channel.
  /// Idempotent; pending deferred drains become no-ops.
  void unbind();
  bool bound() const noexcept;

  /// Registers a consumer.  Throws std::logic_error when the channel is not
  /// bound (callers surface that as "push unavailable" and fall back to
  /// polling).  Returns the subscription id — an existing one when
  /// options.consumer_id matches a live subscription.
  std::uint64_t subscribe(SubscribeOptions options, Consumer consumer);
  /// Removes a subscription; false when the id is unknown.
  bool unsubscribe(std::uint64_t id);

  /// Live subscriptions (relaxed; the publish fast-path check).
  std::size_t subscriber_count() const noexcept {
    return subscriber_count_.load(std::memory_order_relaxed);
  }

  /// Publishes one event to every matching subscriber.  Never blocks on
  /// consumers; with zero subscribers this returns after one atomic load
  /// and the event is not accounted.
  void publish(Topic topic, std::string_view host, std::string_view key,
               std::vector<EventField> fields);

  /// Worker-mode barrier: returns once every queue emptied and no delivery
  /// is in flight (tests).  Under a defer executor it is the caller's event
  /// queue that drains deliveries, so this is a no-op.
  void flush();

  std::vector<SubscriberStats> stats() const;

  /// Per-run determinism: drops every subscriber and restarts the sequence
  /// counter (SimRuntime calls this on the global channel per run).
  void reset();
  /// reset() iff `token` (from bind()) names the current binding — the
  /// install-token rule of obs::set_clock/clear_clock: an owner that dies
  /// after a successor bound the channel leaves the successor's binding
  /// alone.
  void reset(std::uint64_t token);

 private:
  struct Subscriber {
    std::uint64_t id = 0;
    std::string consumer_id;
    std::array<bool, kTopicCount> wants{};
    std::array<OverflowPolicy, kTopicCount> policy{};
    std::size_t queue_limit = 0;
    double delivery_interval = 0.0;
    double next_delivery_at = 0.0;
    bool drain_scheduled = false;  ///< defer mode: a drain event is pending
    bool delivering = false;       ///< worker mode: batch handed out
    bool overflow_dumped = false;  ///< first-overflow flight dump fired
    bool dead = false;             ///< removed; late drains/deliveries no-op
    std::uint64_t consecutive_failures = 0;
    std::deque<Event> queue;
    SubscriberStats stat;
    Consumer consumer;
  };

  void enqueue_locked(Subscriber& sub, const Event& event, bool& overflowed);
  /// Defer mode: schedules a drain for `sub` honoring delivery_interval.
  void schedule_drain_locked(const std::shared_ptr<Subscriber>& sub);
  void drain_deferred(const std::shared_ptr<Subscriber>& sub,
                      std::uint64_t generation);
  /// Delivers one batch to `sub` (lock held on entry and exit).  Returns
  /// false when the subscriber died and was removed.
  bool deliver_locked(std::unique_lock<std::mutex>& lock,
                      const std::shared_ptr<Subscriber>& sub);
  void remove_locked(std::uint64_t id);
  void worker_loop();
  void stop_worker_locked(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< worker wakes on published events
  std::condition_variable flush_cv_;  ///< flush() waits for empty queues
  Options options_;
  bool bound_ = false;
  /// Bumped by unbind()/reset(); pending deferred drains from an older
  /// generation are no-ops (their subscriber is gone anyway).
  std::uint64_t generation_ = 0;
  std::uint64_t bind_token_ = 0;  ///< bumped by every bind()
  std::uint64_t next_id_ = 1;
  std::uint64_t seq_ = 0;
  std::vector<std::shared_ptr<Subscriber>> subscribers_;
  std::atomic<std::size_t> subscriber_count_{0};
  std::thread worker_;
  bool worker_running_ = false;
  bool stop_worker_ = false;
};

/// Publishes to the global channel; the runtime's call sites.  Free when no
/// subscriber exists.
void publish_event(Topic topic, std::string_view host, std::string_view key,
                   std::vector<EventField> fields);
/// True while the global channel has at least one subscriber — producers
/// with non-trivial payload-building cost check this first.
bool events_wanted() noexcept;

}  // namespace obs
