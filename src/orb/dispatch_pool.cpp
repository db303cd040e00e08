#include "orb/dispatch_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/exceptions.hpp"

namespace corba {

namespace {

struct PoolMetrics {
  obs::Counter& dispatched = obs::MetricsRegistry::global().counter(
      "orb.dispatch_pool.dispatched_total");
  obs::Gauge& inflight =
      obs::MetricsRegistry::global().gauge("orb.dispatch_pool.inflight");
  obs::Histogram& queue_depth = obs::MetricsRegistry::global().histogram(
      "orb.dispatch_pool.queue_depth",
      {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  /// Time a decoded request waited before its servant started: queued for
  /// a worker, or claimed by an I/O loop until its event batch ended — the
  /// "where does latency come from" attribution for a saturated pool.
  obs::Histogram& queue_wait = obs::MetricsRegistry::global().histogram(
      "orb.dispatch_pool.queue_wait_s");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

// Wall (steady) clock, deliberately not obs::now(): pool workers run real
// threads even while a simulator's virtual clock is installed in the same
// process, and a virtual timestamp here would render nonsense waits.
double pool_monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Key-table size past which idle entries (and their run profiles) are
/// dropped; a dropped key goes back to "never run" and is timed afresh.
constexpr std::size_t kKeyTableLimit = 4096;

thread_local ServantRun* t_current_run = nullptr;

}  // namespace

ServantRun::ServantRun(Hook before_call_out, void* arg) noexcept
    : hook_(before_call_out), arg_(arg), previous_(t_current_run) {
  t_current_run = this;
}

ServantRun::~ServantRun() { t_current_run = previous_; }

void ServantRun::note_call_out() {
  ServantRun* run = t_current_run;
  if (!run || run->called_out_) return;
  if (run->hook_) run->hook_(run->arg_);
  run->called_out_ = true;
}

DispatchPool::DispatchPool(Options options, Dispatch dispatch)
    : options_(options), dispatch_(std::move(dispatch)) {
  if (options_.threads < 1) throw BAD_PARAM("dispatch pool requires >= 1 thread");
  if (options_.queue_limit < 1)
    throw BAD_PARAM("dispatch pool requires a positive queue limit");
  if (!dispatch_) throw BAD_PARAM("dispatch pool requires a dispatch function");
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

DispatchPool::~DispatchPool() { stop(); }

bool DispatchPool::try_submit(RequestMessage& request, Completion& done) {
  std::lock_guard lock(mu_);
  if (stopping_)
    throw BAD_INV_ORDER("dispatch pool is stopped", minor_code::unspecified,
                        CompletionStatus::completed_no);
  if (in_pool_.load(std::memory_order_relaxed) >= options_.queue_limit) {
    space_wanted_ = true;  // arm the edge: ring once when capacity frees up
    return false;
  }
  enqueue_locked(std::move(request), std::move(done));
  return true;
}

void DispatchPool::set_space_callback(std::function<void()> callback) {
  std::lock_guard lock(mu_);
  space_callback_ = std::move(callback);
}

bool DispatchPool::try_claim(const ObjectKey& key) {
  if (in_pool_.load(std::memory_order_relaxed) != 0) return false;
  std::lock_guard lock(mu_);
  if (stopping_ || in_pool_.load(std::memory_order_relaxed) != 0) return false;
  const auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  KeyState& state = it->second;
  if (state.active || state.calls_out || state.last_run_s < 0 ||
      state.last_run_s >= kInlineBudget)
    return false;
  state.active = true;
  return true;
}

void DispatchPool::release_claim(const ObjectKey& key, double waited_s,
                                 double run_s, bool called_out) {
  pool_metrics().queue_wait.record(std::max(0.0, waited_s));
  std::lock_guard lock(mu_);
  const auto it = keys_.find(key);
  if (it != keys_.end()) finish_run_locked(it->second, run_s, called_out);
}

void DispatchPool::finish_run_locked(KeyState& state, double run_s,
                                     bool called_out) {
  state.last_run_s = run_s;
  state.calls_out = state.calls_out || called_out;
  if (state.waiting.empty()) {
    state.active = false;
  } else {
    // FIFO per key: the next job for this key becomes runnable only now
    // that its predecessor finished.
    ready_.push_back(&state);
    work_cv_.notify_one();
  }
}

void DispatchPool::enqueue_locked(RequestMessage request, Completion done) {
  const std::size_t depth =
      in_pool_.fetch_add(1, std::memory_order_relaxed) + 1;
  pool_metrics().queue_depth.record(static_cast<double>(depth));
  obs::flight_event(obs::FlightEvent::dispatch_depth, request.operation,
                    depth);
  Job job{std::move(request), std::move(done), pool_monotonic_seconds()};
  if (obs::tracing_enabled()) {
    // Queue wait is attributable only for traced requests that carried a
    // wire context; the worker records a `dispatch.queue` span from these.
    if (const auto wire = extract_trace_context(job.request)) {
      job.trace = *wire;
      job.trace_enqueued_at = obs::now();
    }
  }
  auto it = keys_.find(job.request.object_key);
  if (it == keys_.end()) {
    if (keys_.size() >= kKeyTableLimit)
      std::erase_if(keys_, [](const auto& entry) {
        return !entry.second.active && entry.second.waiting.empty();
      });
    it = keys_.try_emplace(job.request.object_key).first;
  }
  KeyState& state = it->second;
  state.waiting.push_back(std::move(job));
  // A key becomes runnable when its first job arrives; while a worker is
  // executing it, or an I/O loop holds its claim, the key stays out of
  // ready_ (the worker or release_claim re-queues it).
  if (!state.active) {
    state.active = true;
    ready_.push_back(&state);
    work_cv_.notify_one();
  }
}

void DispatchPool::stop() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
    // A reactor loop parked on the space callback must wake to observe the
    // stop (its retried try_submit then throws and the connection unwinds).
    if (space_wanted_ && space_callback_) {
      space_wanted_ = false;
      space_callback_();
    }
  }
  // Serialized so concurrent stop() calls never race a join.
  std::lock_guard join_lock(join_mu_);
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
}

std::size_t DispatchPool::depth() const {
  return in_pool_.load(std::memory_order_relaxed);
}

std::uint64_t DispatchPool::dispatched() const {
  std::lock_guard lock(mu_);
  return dispatched_;
}

void DispatchPool::worker_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return !ready_.empty() ||
             (stopping_ && in_pool_.load(std::memory_order_relaxed) == 0);
    });
    if (ready_.empty()) return;  // stopping and fully drained
    KeyState& state = *ready_.front();
    ready_.pop_front();
    const bool backlog = !ready_.empty();
    Job job = std::move(state.waiting.front());
    state.waiting.pop_front();

    pool_metrics().inflight.add(1);
    const double started = pool_monotonic_seconds();
    pool_metrics().queue_wait.record(std::max(0.0, started - job.enqueued_at));
    if (job.trace.valid() && obs::tracing_enabled()) {
      // The queue-wait interval as a span, parented on the wire context —
      // it lands beside the request's servant.dispatch span in the
      // assembled tree and feeds the analyzer's queue.wait category.
      obs::record_span("dispatch.queue", job.request.operation,
                       job.trace_enqueued_at, obs::now(), job.trace);
    }
    lock.unlock();
    ReplyMessage reply;
    bool called_out = false;
    {
      ServantRun run;
      reply = dispatch_(job.request);
      called_out = run.called_out();
    }
    const double run_s = pool_monotonic_seconds() - started;
    if (job.request.response_expected && job.done) {
      try {
        job.done(std::move(reply), backlog);
      } catch (...) {
        // Completion failures (connection torn down mid-dispatch) are the
        // client's COMM_FAILURE to observe, not the pool's problem.
      }
    }
    lock.lock();
    pool_metrics().inflight.add(-1);
    pool_metrics().dispatched.inc();
    ++dispatched_;
    const std::size_t left =
        in_pool_.fetch_sub(1, std::memory_order_relaxed) - 1;
    finish_run_locked(state, run_s, called_out);
    if (space_wanted_ && left < options_.queue_limit) {
      // Cheap by contract (an eventfd write), so holding mu_ here is fine
      // and keeps the arm/ring sequence race-free.
      space_wanted_ = false;
      if (space_callback_) space_callback_();
    }
    if (stopping_ && left == 0) work_cv_.notify_all();
  }
}

}  // namespace corba
