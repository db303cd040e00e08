#include "obs/event_channel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace obs {

namespace {

// Channel-wide accounting.  Handles resolved once; the struct's construction
// inside EventChannel's constructor also pins MetricsRegistry::global() ahead
// of the channel in static-destruction order.
struct ChannelMetrics {
  Counter& published;
  Counter& delivered;
  Counter& dropped;
  Counter& coalesced;
  Counter& push_failures;
  Gauge& subscribers;
  Histogram& delivery_latency;

  ChannelMetrics()
      : published(MetricsRegistry::global().counter("obs.events.published_total")),
        delivered(MetricsRegistry::global().counter("obs.events.delivered_total")),
        dropped(MetricsRegistry::global().counter("obs.events.dropped_total")),
        coalesced(MetricsRegistry::global().counter("obs.events.coalesced_total")),
        push_failures(
            MetricsRegistry::global().counter("obs.events.push_failures_total")),
        subscribers(MetricsRegistry::global().gauge("obs.events.subscribers")),
        delivery_latency(MetricsRegistry::global().histogram(
            "obs.events.delivery_latency_s")) {}
};

ChannelMetrics& channel_metrics() {
  static ChannelMetrics metrics;
  return metrics;
}

// Deterministic double rendering for to_line(): same format regardless of
// locale or value provenance, so same-seed streams diff byte-for-byte.
std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string format_time(double t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9f", t);
  return buf;
}

constexpr std::string_view kTopicNames[kTopicCount] = {
    "metrics.delta", "flight.event", "load.report",
    "session.state", "shard.state", "trace.span"};

// After this many consecutive consumer invocations throw, the subscription
// is torn down — a departed remote consumer must not hold its queue forever.
constexpr std::uint64_t kMaxConsecutiveFailures = 3;

}  // namespace

std::string_view to_string(Topic topic) noexcept {
  const auto index = static_cast<std::size_t>(topic);
  return index < kTopicCount ? kTopicNames[index] : "unknown";
}

std::optional<Topic> parse_topic(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kTopicCount; ++i) {
    if (kTopicNames[i] == name) return static_cast<Topic>(i);
  }
  return std::nullopt;
}

EventField num_field(std::string name, double value) {
  EventField field;
  field.name = std::move(name);
  field.kind = EventField::Kind::f64;
  field.f64 = value;
  return field;
}

EventField int_field(std::string name, std::uint64_t value) {
  EventField field;
  field.name = std::move(name);
  field.kind = EventField::Kind::u64;
  field.u64 = value;
  return field;
}

EventField str_field(std::string name, std::string value) {
  EventField field;
  field.name = std::move(name);
  field.kind = EventField::Kind::str;
  field.str = std::move(value);
  return field;
}

std::string Event::to_line() const {
  std::string out;
  out.reserve(96);
  out += "[";
  out += format_time(t);
  out += "] #";
  out += std::to_string(seq);
  out += " ";
  out += to_string(topic);
  out += " host=";
  out += host;
  out += " key=";
  out += key;
  for (const auto& field : fields) {
    out += " ";
    out += field.name;
    out += "=";
    switch (field.kind) {
      case EventField::Kind::f64:
        out += format_number(field.f64);
        break;
      case EventField::Kind::u64:
        out += std::to_string(field.u64);
        break;
      case EventField::Kind::str:
        out += field.str;
        break;
    }
  }
  return out;
}

OverflowPolicy default_policy(Topic topic) noexcept {
  switch (topic) {
    case Topic::metrics_delta:
    case Topic::load_report:
    case Topic::shard_state:
      // State topics carry absolute values; a newer one supersedes an
      // unsent older one losslessly.
      return OverflowPolicy::coalesce_by_key;
    case Topic::flight_event:
    case Topic::session_state:
    case Topic::trace_span:
      // Spans are log-like: every record is distinct, coalescing by trace id
      // would silently merge a trace's spans into one.
      return OverflowPolicy::drop_oldest;
  }
  return OverflowPolicy::drop_oldest;
}

EventChannel::EventChannel() {
  // Pin the registry and the flight recorder ahead of this channel in
  // static-destruction order: publish() and the overflow dump touch both.
  channel_metrics();
  FlightRecorder::global();
}

EventChannel::~EventChannel() { unbind(); }

EventChannel& EventChannel::global() {
  static EventChannel channel;
  return channel;
}

std::uint64_t EventChannel::bind(Options options) {
  std::unique_lock lock(mu_);
  if (bound_ && subscriber_count_.load(std::memory_order_relaxed) > 0) {
    throw std::logic_error(
        "EventChannel::bind: channel already bound with live subscribers");
  }
  stop_worker_locked(lock);
  ++generation_;
  options_ = std::move(options);
  if (options_.max_batch == 0) options_.max_batch = 1;
  bound_ = true;
  return ++bind_token_;
}

void EventChannel::unbind() {
  std::unique_lock lock(mu_);
  if (!bound_ && subscribers_.empty() && !worker_running_) return;
  ++generation_;
  // Close before the join below releases the lock, so a racing subscribe()
  // lands on "not bound" instead of a subscriber nobody will ever drain.
  bound_ = false;
  for (auto& sub : subscribers_) sub->dead = true;
  subscribers_.clear();
  subscriber_count_.store(0, std::memory_order_relaxed);
  channel_metrics().subscribers.set(0.0);
  stop_worker_locked(lock);
  options_ = {};
  flush_cv_.notify_all();
}

bool EventChannel::bound() const noexcept {
  std::lock_guard lock(mu_);
  return bound_;
}

std::uint64_t EventChannel::subscribe(SubscribeOptions options,
                                      Consumer consumer) {
  if (!consumer) {
    throw std::invalid_argument("EventChannel::subscribe: null consumer");
  }
  std::unique_lock lock(mu_);
  if (!bound_) {
    throw std::logic_error("EventChannel::subscribe: channel not bound");
  }
  if (!options.consumer_id.empty()) {
    for (const auto& sub : subscribers_) {
      if (sub->consumer_id == options.consumer_id) return sub->id;
    }
  }
  auto sub = std::make_shared<Subscriber>();
  sub->id = next_id_++;
  sub->consumer_id = std::move(options.consumer_id);
  if (options.topics.empty()) {
    sub->wants.fill(true);
  } else {
    for (Topic topic : options.topics) {
      const auto index = static_cast<std::size_t>(topic);
      if (index < kTopicCount) sub->wants[index] = true;
    }
  }
  for (std::size_t i = 0; i < kTopicCount; ++i) {
    sub->policy[i] =
        options.policy ? *options.policy : default_policy(static_cast<Topic>(i));
  }
  sub->queue_limit = std::max<std::size_t>(1, options.queue_limit);
  sub->delivery_interval = std::max(0.0, options.delivery_interval);
  sub->consumer = std::move(consumer);
  sub->stat.id = sub->id;
  sub->stat.consumer_id = sub->consumer_id;
  sub->stat.queue_limit = sub->queue_limit;
  subscribers_.push_back(sub);
  subscriber_count_.store(subscribers_.size(), std::memory_order_relaxed);
  channel_metrics().subscribers.set(static_cast<double>(subscribers_.size()));
  if (!options_.defer && !worker_running_) {
    stop_worker_ = false;
    worker_running_ = true;
    worker_ = std::thread([this] { worker_loop(); });
  }
  return sub->id;
}

bool EventChannel::unsubscribe(std::uint64_t id) {
  std::lock_guard lock(mu_);
  const auto before = subscribers_.size();
  remove_locked(id);
  return subscribers_.size() != before;
}

void EventChannel::remove_locked(std::uint64_t id) {
  auto it = std::find_if(subscribers_.begin(), subscribers_.end(),
                         [id](const auto& sub) { return sub->id == id; });
  if (it == subscribers_.end()) return;
  (*it)->dead = true;
  subscribers_.erase(it);
  subscriber_count_.store(subscribers_.size(), std::memory_order_relaxed);
  channel_metrics().subscribers.set(static_cast<double>(subscribers_.size()));
  flush_cv_.notify_all();
}

void EventChannel::publish(Topic topic, std::string_view host,
                           std::string_view key,
                           std::vector<EventField> fields) {
  // The no-subscriber fast path: one relaxed load, no lock, no accounting —
  // the channel unbound/idle must not perturb Table 1 or sim timings.
  if (subscriber_count_.load(std::memory_order_relaxed) == 0) return;

  bool dump_flight = false;
  {
    std::lock_guard lock(mu_);
    if (subscribers_.empty()) return;
    Event event;
    event.topic = topic;
    event.host.assign(host);
    event.key.assign(key);
    event.t = now();
    event.seq = ++seq_;
    event.fields = std::move(fields);
    channel_metrics().published.inc();

    const auto index = static_cast<std::size_t>(topic);
    bool queued_any = false;
    for (auto& sub : subscribers_) {
      if (index >= kTopicCount || !sub->wants[index]) continue;
      bool overflowed = false;
      enqueue_locked(*sub, event, overflowed);
      queued_any = true;
      if (overflowed && !sub->overflow_dumped) {
        sub->overflow_dumped = true;
        dump_flight = true;
      }
      if (options_.defer) schedule_drain_locked(sub);
    }
    if (queued_any && !options_.defer) work_cv_.notify_one();
  }
  if (dump_flight) {
    // Outside the lock: the dump publishes the flight ring back onto this
    // channel (FlightRecorder::dump_to_events), re-entering publish().
    flight_auto_dump("events.subscriber_overflow");
  }
}

void EventChannel::enqueue_locked(Subscriber& sub, const Event& event,
                                  bool& overflowed) {
  auto& metrics = channel_metrics();
  if (sub.queue.size() >= sub.queue_limit) {
    overflowed = true;
    const auto policy = sub.policy[static_cast<std::size_t>(event.topic)];
    if (policy == OverflowPolicy::coalesce_by_key) {
      // Replace the newest queued event with the same (topic, key): the
      // incoming absolute value supersedes it, keeping its queue position
      // so delivery order stays oldest-first.
      for (auto it = sub.queue.rbegin(); it != sub.queue.rend(); ++it) {
        if (it->topic == event.topic && it->key == event.key) {
          *it = event;
          ++sub.stat.coalesced;
          metrics.coalesced.inc();
          return;
        }
      }
    }
    // drop_oldest, or coalesce with no key match.
    sub.queue.pop_front();
    ++sub.stat.dropped;
    metrics.dropped.inc();
  }
  sub.queue.push_back(event);
  ++sub.stat.enqueued;
}

void EventChannel::schedule_drain_locked(const std::shared_ptr<Subscriber>& sub) {
  if (sub->drain_scheduled || sub->queue.empty()) return;
  sub->drain_scheduled = true;
  const double delay = std::max(0.0, sub->next_delivery_at - now());
  const std::uint64_t generation = generation_;
  options_.defer(delay, [this, sub, generation] {
    drain_deferred(sub, generation);
  });
}

void EventChannel::drain_deferred(const std::shared_ptr<Subscriber>& sub,
                                  std::uint64_t generation) {
  std::unique_lock lock(mu_);
  if (generation != generation_ || sub->dead) return;
  sub->drain_scheduled = false;
  if (!deliver_locked(lock, sub)) return;
  if (sub->delivery_interval > 0.0) {
    sub->next_delivery_at = now() + sub->delivery_interval;
  }
  if (!sub->queue.empty()) schedule_drain_locked(sub);
}

bool EventChannel::deliver_locked(std::unique_lock<std::mutex>& lock,
                                  const std::shared_ptr<Subscriber>& sub) {
  if (sub->queue.empty()) return true;
  const std::size_t batch_size = std::min(options_.max_batch, sub->queue.size());
  std::vector<Event> batch;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.push_back(std::move(sub->queue.front()));
    sub->queue.pop_front();
  }
  sub->delivering = true;
  lock.unlock();
  bool ok = true;
  try {
    sub->consumer(std::span<const Event>(batch));
  } catch (...) {
    ok = false;
  }
  const double delivered_at = now();
  lock.lock();
  sub->delivering = false;
  auto& metrics = channel_metrics();
  if (ok) {
    sub->consecutive_failures = 0;
    sub->stat.delivered += batch.size();
    metrics.delivered.inc(batch.size());
    for (const auto& event : batch) {
      metrics.delivery_latency.record(std::max(0.0, delivered_at - event.t));
    }
  } else {
    ++sub->stat.failures;
    metrics.push_failures.inc();
    // The failed batch is lost; account it so drops are never silent.
    sub->stat.dropped += batch.size();
    metrics.dropped.inc(batch.size());
    if (++sub->consecutive_failures >= kMaxConsecutiveFailures && !sub->dead) {
      remove_locked(sub->id);
      return false;
    }
  }
  if (sub->dead) return false;
  if (sub->queue.empty()) flush_cv_.notify_all();
  return true;
}

void EventChannel::worker_loop() {
  std::unique_lock lock(mu_);
  while (!stop_worker_) {
    // Pick the first subscriber that is due: non-empty queue and past its
    // delivery interval.  Track the earliest not-yet-due deadline so the
    // wait below wakes exactly when work becomes deliverable.
    std::shared_ptr<Subscriber> due;
    double earliest = -1.0;
    const double t = now();
    for (auto& sub : subscribers_) {
      if (sub->queue.empty() || sub->delivering) continue;
      if (sub->next_delivery_at <= t) {
        due = sub;
        break;
      }
      if (earliest < 0.0 || sub->next_delivery_at < earliest) {
        earliest = sub->next_delivery_at;
      }
    }
    if (due) {
      if (deliver_locked(lock, due) && due->delivery_interval > 0.0) {
        due->next_delivery_at = now() + due->delivery_interval;
      }
      continue;
    }
    if (earliest >= 0.0) {
      work_cv_.wait_for(lock,
                        std::chrono::duration<double>(earliest - t + 1e-4));
    } else {
      work_cv_.wait(lock);
    }
  }
}

void EventChannel::stop_worker_locked(std::unique_lock<std::mutex>& lock) {
  if (!worker_running_) return;
  stop_worker_ = true;
  work_cv_.notify_all();
  std::thread worker = std::move(worker_);
  lock.unlock();
  worker.join();
  lock.lock();
  worker_running_ = false;
  stop_worker_ = false;
}

void EventChannel::flush() {
  std::unique_lock lock(mu_);
  if (options_.defer || !worker_running_) return;
  work_cv_.notify_all();
  flush_cv_.wait(lock, [this] {
    if (!worker_running_) return true;
    for (const auto& sub : subscribers_) {
      if (!sub->queue.empty() || sub->delivering) return false;
    }
    return true;
  });
}

std::vector<SubscriberStats> EventChannel::stats() const {
  std::lock_guard lock(mu_);
  std::vector<SubscriberStats> out;
  out.reserve(subscribers_.size());
  for (const auto& sub : subscribers_) {
    SubscriberStats stat = sub->stat;
    stat.depth = sub->queue.size();
    out.push_back(std::move(stat));
  }
  return out;
}

void EventChannel::reset() {
  unbind();
  std::lock_guard lock(mu_);
  seq_ = 0;
  next_id_ = 1;
}

void EventChannel::reset(std::uint64_t token) {
  {
    std::lock_guard lock(mu_);
    if (token != bind_token_) return;  // someone else bound since
  }
  reset();
}

void publish_event(Topic topic, std::string_view host, std::string_view key,
                   std::vector<EventField> fields) {
  EventChannel::global().publish(topic, host, key, std::move(fields));
}

bool events_wanted() noexcept {
  return EventChannel::global().subscriber_count() > 0;
}

}  // namespace obs
