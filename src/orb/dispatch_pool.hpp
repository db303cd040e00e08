// Server-side dispatch thread pool.
//
// Decouples socket reads from servant execution: the reactor's I/O loops
// enqueue decoded requests and N workers dispatch them, so one slow method
// does not block every other request behind it (head-of-line blocking) —
// only requests for the *same* object wait on each other.
//
// Ordering contract: requests are executed FIFO **per object key**, one at a
// time per key, preserving the single-threaded servant semantics the rest of
// the runtime was written against while letting distinct objects (and
// distinct connections) proceed in parallel.  Across keys the pool is FIFO
// too — keys become runnable in arrival order — but completion order is
// unconstrained, which is why replies carry request ids (the client transport
// demuxes them; see tcp_transport.hpp).
//
// Inline claims: an I/O loop may run a request itself instead of paying the
// thread hop to a worker and back.  try_claim() grants that only while the
// pool has no job queued or running, no job for the key is claimed, queued
// or running, and the key's last timed run took less than kInlineBudget
// without calling out.  A claimed key sits in the same key table as queued
// work, so a request for it that arrives meanwhile (on any loop) queues
// behind the claim; release_claim() makes it runnable.  Every run on the
// TCP path — worker or inline — is timed and watched for outbound calls
// (ServantRun), which is what the next claim decision reads.
//
// The queue is bounded: try_submit() refuses work once `queue_limit`
// requests are in the pool (queued + executing) and rings the space
// callback when capacity frees up.  The reactor answers a refusal by
// parking the request and no longer reading that connection — TCP flow
// control pushes back to the sender, and an overloaded server degrades into
// backpressure instead of unbounded memory growth.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "orb/message.hpp"

namespace corba {

/// The servant run in progress on this thread on the TCP path: a pool
/// worker's job or a request an I/O loop runs inline.  While one is
/// installed, TcpClientTransport::send reports every outbound call through
/// note_call_out(), so the pool learns which objects call out, and a loop
/// running a servant inline hands itself off to a fresh thread before the
/// servant blocks on a nested call.
class ServantRun {
 public:
  /// Runs on the calling thread before the run's first outbound call; may
  /// throw, failing that call.
  using Hook = void (*)(void* arg);

  explicit ServantRun(Hook before_call_out = nullptr,
                      void* arg = nullptr) noexcept;
  ~ServantRun();
  ServantRun(const ServantRun&) = delete;
  ServantRun& operator=(const ServantRun&) = delete;

  /// Flags the run installed on this thread, if any, as calling out; the
  /// first time, runs its hook first.
  static void note_call_out();

  bool called_out() const noexcept { return called_out_; }

 private:
  Hook hook_;
  void* arg_;
  bool called_out_ = false;
  ServantRun* previous_;
};

class DispatchPool {
 public:
  struct Options {
    /// Worker thread count (>= 1).
    std::size_t threads = 4;
    /// Maximum requests in the pool (queued + executing) before try_submit()
    /// refuses work.
    std::size_t queue_limit = 1024;
  };

  /// Executes one request; must be callable from any worker thread and must
  /// not throw (ObjectAdapter::dispatch is noexcept).
  using Dispatch = std::function<ReplyMessage(const RequestMessage&)>;

  /// Invoked with the reply on a worker thread; exceptions are swallowed
  /// (a completion writing to a dead connection is normal during teardown).
  /// `backlog` is true when other jobs were runnable as this one was picked
  /// up: more replies are about to follow, so the reply may be queued for a
  /// batched write instead of written at once.
  using Completion = std::function<void(ReplyMessage, bool backlog)>;

  /// A key whose last timed run took less than this may run inline on the
  /// I/O loop that read its request (DESIGN.md §6.7 gives the reason for
  /// the value).
  static constexpr double kInlineBudget = 50e-6;

  DispatchPool(Options options, Dispatch dispatch);
  ~DispatchPool();

  DispatchPool(const DispatchPool&) = delete;
  DispatchPool& operator=(const DispatchPool&) = delete;

  /// Enqueues a request without ever blocking.  `done` may be empty
  /// (oneway).  Returns false — leaving `request`/`done` untouched — when
  /// the pool is at queue_limit, and arms the space callback so the caller
  /// is poked once capacity frees up.  Throws BAD_INV_ORDER after stop().
  bool try_submit(RequestMessage& request, Completion& done);

  /// Claims `key` for the caller to run inline when the pool has no job
  /// queued or running, no job for `key` is claimed, queued or running, and
  /// the key's last timed run took less than kInlineBudget and made no
  /// outbound call.  A key never run yet is never claimed.  The caller must
  /// run the request and then call release_claim().
  bool try_claim(const ObjectKey& key);

  /// Ends a claim: records the run (how long the request waited between
  /// its claim and the servant starting, how long the servant ran, and
  /// whether it called out) and makes the jobs that queued behind the claim
  /// runnable.
  void release_claim(const ObjectKey& key, double waited_s, double run_s,
                     bool called_out);

  /// Installs the capacity notification used by try_submit: invoked (at
  /// most once per failed-try_submit episode) when the pool drops back
  /// below queue_limit, and on stop().  The callback runs with the pool
  /// lock held on a worker thread, so it must be cheap and lock-free — an
  /// eventfd write, not real work.  Set before the first try_submit.
  void set_space_callback(std::function<void()> callback);

  /// Drains every queued request, then joins the workers.  Idempotent.
  void stop();

  std::size_t threads() const noexcept { return options_.threads; }

  // --- telemetry -----------------------------------------------------------
  /// Requests currently in the pool (queued + executing).
  std::size_t depth() const;
  /// Requests executed so far.
  std::uint64_t dispatched() const;

 private:
  struct Job {
    RequestMessage request;
    Completion done;
    double enqueued_at = 0.0;  ///< steady-clock seconds; queue-wait metric
    /// Trace seam (captured only while tracing is enabled): the request's
    /// wire trace context and the obs-clock enqueue time, so the worker can
    /// record a `dispatch.queue` span — the queue-wait attribution category
    /// of the critical-path analyzer.  Deliberately not derived from
    /// enqueued_at: that is steady-clock while spans run on obs::now().
    obs::TraceContext trace{};
    double trace_enqueued_at = 0.0;
  };
  /// Per-object-key FIFO plus what the claim decision reads.  Entries
  /// outlive their jobs (the run profile must), and idle ones are pruned
  /// once the table passes kKeyTableLimit.
  struct KeyState {
    std::deque<Job> waiting;
    /// In ready_, executing on a worker, or claimed by an I/O loop.
    bool active = false;
    /// A run of this key made an outbound TCP call: never claimed again.
    bool calls_out = false;
    /// Duration of the key's last timed run (seconds); negative until the
    /// first run finishes.
    double last_run_s = -1.0;
  };

  void worker_loop();
  void enqueue_locked(RequestMessage request, Completion done);
  /// Records a finished run and makes the key's next job runnable (mu_
  /// held).
  void finish_run_locked(KeyState& state, double run_s, bool called_out);

  Options options_;
  Dispatch dispatch_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for runnable keys
  std::unordered_map<ObjectKey, KeyState, ObjectKeyHash> keys_;
  /// Keys with a runnable (not currently executing) head job, FIFO.  Active
  /// entries are never pruned, and unordered_map nodes do not move.
  std::deque<KeyState*> ready_;
  /// Queued + executing (claims not counted).  Written under mu_; read
  /// without it by try_claim's early out.
  std::atomic<std::size_t> in_pool_{0};
  std::uint64_t dispatched_ = 0;
  bool stopping_ = false;
  /// True after a try_submit bounced off queue_limit; cleared when the
  /// space callback fires (edge-triggered, so an idle pool never rings it).
  bool space_wanted_ = false;
  std::function<void()> space_callback_;
  std::mutex join_mu_;
  std::vector<std::thread> workers_;
};

}  // namespace corba
