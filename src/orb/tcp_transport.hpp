// Real-socket transport (GIOP-lite over TCP).
//
// Client side: one shared, **multiplexed** connection per (host, port).
// Concurrent synchronous calls and DII deferred requests are pipelined onto
// the same socket — a frame is written per request (serialized by a write
// mutex) and ReplyMessages are demuxed back to the waiting callers by
// request id (the wire format has always carried it, so messages stay
// byte-identical).  Demultiplexing follows the leader/followers pattern: the
// connection owns no reader thread — instead, one blocked caller at a time
// (the leader) reads the socket, delivering siblings' replies to their
// waiters and promoting a follower to leader when its own reply arrives.  A
// lone synchronous caller therefore reads its own reply directly, with no
// thread hop, while deep pipelines still pay only one thread wakeup per
// reply.  The leader reads into the connection's FrameBuffer: one recv takes
// whatever burst of replies the socket holds, and the socket is polled only
// when no whole frame is buffered.  A connection-level failure fails every
// in-flight call on that connection with COMM_FAILURE/COMPLETED_MAYBE — the
// fault-tolerance layer's recovery path is built to absorb such batched
// failures.
//
// Server side: the epoll reactor (reactor.hpp) — a fixed set of
// TcpServerOptions::io_threads event loops serving any number of
// non-blocking connections, frames assembled incrementally and handed to
// the object adapter's bounded dispatch thread pool (dispatch_pool.hpp).
// Servants run on the dispatch pool, whose completions write replies back —
// possibly out of order — serialized per connection, or, when the pool is
// idle and the object's last run was fast, inline on the loop that read
// the request.  Requests for one object stay FIFO; requests for different
// objects and connections do not block each other.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "orb/session.hpp"
#include "orb/transport.hpp"

namespace corba {

class Reactor;

/// RAII socket with framed message I/O.  Throws COMM_FAILURE on errors.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects with a non-blocking connect + EINTR-safe poll so `timeout_s`
  /// (> 0) bounds the TCP handshake — a black-holed SYN respects the
  /// caller's deadline budget instead of the kernel default.  0 = unbounded.
  static Socket connect(const std::string& host, std::uint16_t port,
                        double timeout_s = 0);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Writes an entire frame (header + body).
  void send_frame(MessageType type, const CdrOutputStream& body);

  /// Writes pre-encoded frame bytes (session retransmit/replay path).
  void send_bytes(std::span<const std::byte> data) { write_all(data); }

  /// Zero-copy frame path: start_frame hands out a FrameBuilder backed by
  /// this socket's scratch buffer (pre-sized to `size_hint`); finish_frame
  /// writes it and reclaims the buffer, so steady-state sends on one
  /// connection allocate nothing.  Callers multiplexing one socket across
  /// threads must serialize start_frame..finish_frame externally.
  FrameBuilder start_frame(MessageType type, std::size_t size_hint = 0);
  void finish_frame(FrameBuilder& frame);

  /// Reads exactly one frame (no byte beyond it).  Returns false on orderly
  /// peer close before a header; throws COMM_FAILURE on mid-frame errors and
  /// TIMEOUT when `timeout_s` (> 0) elapses first.  The body grows in
  /// bounded steps as bytes arrive, never straight to the header's declared
  /// length.
  bool recv_frame(MessageHeader& header, std::vector<std::byte>& body,
                  double timeout_s = 0);

  /// Reads whatever the socket holds into `into` (one recv), waiting up to
  /// `wait_ms` for bytes when none are there (0 = don't wait).  With
  /// `wait_first` it waits before trying the read — cheaper when bytes are
  /// unlikely to be there yet.  Returns the byte count, 0 when nothing
  /// arrived; throws COMM_FAILURE on errors and on peer close.
  std::size_t read_some(std::span<std::byte> into, int wait_ms,
                        bool wait_first);

  /// Polls for readability for up to `timeout_ms` (0 = just check).  Throws
  /// COMM_FAILURE on poll errors; a hangup reports readable so the next read
  /// surfaces the close.
  bool wait_readable(int timeout_ms);

 private:
  void write_all(std::span<const std::byte> data);
  bool read_all(std::span<std::byte> data, bool eof_ok,
                std::chrono::steady_clock::time_point deadline);

  int fd_ = -1;
  /// Recycled through start_frame/finish_frame; capacity follows the
  /// largest frame this connection has sent.
  std::vector<std::byte> scratch_;
};

/// Client-transport tuning.
struct TcpClientOptions {
  /// Bounds the wait for each reply (0 = unbounded).  Expiry raises
  /// TIMEOUT/COMPLETED_MAYBE and abandons only the timed-out call (its late
  /// reply is discarded by request id): the shared connection, and every
  /// other call in flight on it, lives on.
  double request_timeout_s = 0;

  /// Idle multiplexed connections (no in-flight calls) older than this are
  /// closed on the next connection lookup; 0 disables the TTL.
  double idle_ttl_s = 30.0;

  /// Soft cap on open sockets held by this transport: when exceeded, the
  /// least-recently-used *idle* connection is closed before a new one is
  /// opened.  Connections with calls in flight are never culled, so the cap
  /// can be exceeded transiently under load.
  std::size_t max_connections = 64;

  // --- resumable sessions ---------------------------------------------------
  /// Negotiate a session per connection and stamp every request/reply with a
  /// session sequence number, so a lost connection is *resumed* (reconnect
  /// to the same endpoint + replay of unacknowledged frames) instead of
  /// batch-failing every in-flight call.  Off by default; when off the wire
  /// bytes are identical to the pre-session format.
  bool enable_sessions = false;

  /// Hard cap on unacknowledged request frames buffered for retransmission.
  /// Appending beyond it fails the *oldest* in-flight call with
  /// COMM_FAILURE (minor_code::session_overflow).
  std::size_t session_retransmit_limit = 256;

  /// Reconnect attempts before a resume is abandoned and the batched
  /// COMM_FAILURE path (minor_code::session_resume_failed) fires.
  int resume_attempts = 3;

  /// Pause between reconnect attempts.
  double resume_backoff_s = 0.05;

  /// Bound on each (re)connect's TCP handshake and on the session
  /// handshake's reply wait; 0 = unbounded.
  double connect_timeout_s = 10.0;
};

/// One multiplexed connection: a socket, a write mutex, and leader/followers
/// demultiplexing — the first blocked caller reads the socket and routes
/// replies to per-request waiters by request id.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  /// Opens the socket and, when options.enable_sessions is set, performs the
  /// session handshake (hello/accept) before returning.
  static std::shared_ptr<TcpConnection> open(const std::string& host,
                                             std::uint16_t port,
                                             const TcpClientOptions& options =
                                                 TcpClientOptions{});
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Writes the request frame and returns a handle completed when a caller
  /// (this one or a pipelined sibling acting as leader) reads the reply.
  /// `timeout_s` > 0 bounds the wait inside PendingReply::get().
  std::unique_ptr<PendingReply> send(const RequestMessage& request,
                                     double timeout_s);

  /// Writes a request frame without registering a waiter (oneway).
  void send_oneway(const RequestMessage& request);

  /// False once the connection failed (peer close, reset, protocol error);
  /// a dead connection is never reused — this is the health check that
  /// replaces "fail the first call on a stale socket".
  bool healthy() const noexcept {
    return !broken_.load(std::memory_order_acquire);
  }

  std::size_t in_flight() const;
  /// Monotonic-clock seconds of the last send or reply (idle-TTL input).
  double last_used() const;

  /// "host:port" label of the peer (flight-recorder subjects, diagnostics).
  const std::string& peer() const noexcept { return peer_; }

  /// Negotiated session id (0 when sessions are off), frames currently held
  /// for retransmission, and whether the session is still live — telemetry
  /// and test hooks.
  std::uint64_t session_id() const;
  std::size_t retransmit_buffered() const;
  bool session_active() const;

  /// Fails all in-flight calls with COMM_FAILURE; a caller mid-read is
  /// kicked out by shutting the socket down.
  void close();

 private:
  friend class TcpMuxPendingReply;

  struct Waiter {
    /// Release-stored after reply/error are filled in; acquire-loaded by the
    /// waiting caller, so a reply demuxed by a sibling leader is consumed
    /// without retaking the connection lock.
    std::atomic<bool> done{false};
    /// Per-waiter wakeup (guarded by the connection's mu_): the leader
    /// notifies exactly the caller whose reply arrived, so deep pipelines
    /// don't thundering-herd every blocked caller on every reply.
    std::condition_variable cv;
    /// True while the owning caller is blocked in get() as a follower
    /// (guarded by mu_) — leadership handoff targets a blocked waiter.
    bool blocked = false;
    ReplyMessage reply;
    std::exception_ptr error;
  };

  explicit TcpConnection(Socket socket);
  /// Leader loop: reads frames, demuxing each reply to its waiter, until
  /// `waiter` completes (returns true) or `deadline` expires (returns
  /// false).  A partial frame simply stays buffered for the next leader.
  /// Call with mu_ held and leader_active_ set; returns with mu_ held.
  /// Connection failures fail all in-flight calls.
  bool lead(std::unique_lock<std::mutex>& lock,
            const std::shared_ptr<Waiter>& waiter,
            std::chrono::steady_clock::time_point deadline);
  enum class Step { progress, idle, failed };
  /// One leader step: demuxes the next whole buffered frame or, with none
  /// buffered, reads what the socket holds — waiting up to `wait_ms` for it
  /// when it holds nothing (idle: nothing arrived).  Locking contract as
  /// lead().  `failed` means every in-flight call has been failed; with a
  /// live session a failure is first given to resume_locked, bounded by
  /// `deadline` (the leader's per-call deadline budget).
  Step step_locked(std::unique_lock<std::mutex>& lock, int wait_ms,
                   std::chrono::steady_clock::time_point deadline);
  /// Completes the waiter `reply` answers (mu_ held).
  void deliver_locked(ReplyMessage reply);
  /// Demuxes the frames already buffered or waiting on the socket without
  /// blocking (ready()-polling progress).  Locking contract as lead().
  void drain_available_locked(std::unique_lock<std::mutex>& lock);
  /// Wakes one blocked follower to take over reading (call with mu_ held,
  /// after clearing leader_active_).
  void promote_follower_locked();
  /// Marks the connection broken and fails every registered waiter.
  void fail_all_locked(const std::exception_ptr& error);
  /// Resume protocol (leader only, mu_ held): reconnect to the same
  /// endpoint, re-present the session id, exchange highest-received sequence
  /// numbers and replay the unacknowledged tail.  Returns true when the
  /// connection is live again; false when the attempts budget, `deadline`,
  /// or a server-side session rejection ends the resume (the caller then
  /// fires the batched-failure path).
  bool resume_locked(std::unique_lock<std::mutex>& lock,
                     std::chrono::steady_clock::time_point deadline);
  /// Read-side failure funnel: try resume first, fall back to fail_all.
  /// Returns true when the connection was resumed.
  bool handle_failure_locked(std::unique_lock<std::mutex>& lock,
                             const std::exception_ptr& failure,
                             std::chrono::steady_clock::time_point deadline);
  /// Fails the oldest buffered call when the retransmit buffer is at its
  /// hard cap (mu_ held).
  void overflow_evict_locked();
  void write_frame(const RequestMessage& request);
  void touch() noexcept;

  Socket socket_;
  /// Received bytes not yet demuxed.  Owned by the current leader, like
  /// reads of socket_ (leader_active_ excludes every other reader).
  FrameBuffer rbuf_;
  std::string peer_;  ///< "host:port", set once at open()
  std::string host_;  ///< reconnect target (sessions)
  std::uint16_t port_ = 0;
  TcpClientOptions options_;
  std::mutex write_mu_;               ///< serializes frames on the socket
  mutable std::mutex mu_;  ///< waiters_, leadership, broken bookkeeping
  std::unordered_map<std::uint64_t, std::shared_ptr<Waiter>> waiters_;
  /// Request ids abandoned by their caller (timeout or dropped handle),
  /// guarded by mu_: the entry is reaped when the late reply arrives, and
  /// tells the late/duplicate discard reasons apart.
  std::unordered_set<std::uint64_t> abandoned_;
  /// True while some caller is reading the socket as leader (guarded by mu_).
  bool leader_active_ = false;
  std::atomic<bool> broken_{false};
  std::atomic<bool> closing_{false};
  std::atomic<double> last_used_{0.0};

  // Session state (guarded by mu_; writers reach it holding write_mu_ then
  // mu_, so sequence assignment and the socket write stay atomic and wire
  // order equals seq order).
  bool session_active_ = false;
  std::uint64_t session_id_ = 0;
  std::uint64_t next_send_seq_ = 1;
  std::uint64_t highest_reply_seq_ = 0;
  std::unique_ptr<RetransmitBuffer> retransmit_;
};

/// Client transport over TCP (see file comment).
class TcpClientTransport final : public ClientTransport {
 public:
  explicit TcpClientTransport(TcpClientOptions options = {})
      : options_(options) {}
  /// Back-compat constructor: timeout only.
  explicit TcpClientTransport(double request_timeout_s)
      : options_{.request_timeout_s = request_timeout_s} {}
  ~TcpClientTransport();

  std::unique_ptr<PendingReply> send(const IOR& target,
                                     RequestMessage request) override;
  ReplyMessage invoke(const IOR& target, RequestMessage request) override;

  const TcpClientOptions& options() const noexcept { return options_; }
  /// Open multiplexed connections (telemetry / tests).
  std::size_t connection_count() const;

 private:
  using TargetKey = std::pair<std::string, std::uint16_t>;

  /// Returns a healthy shared connection, opening (and, under the socket
  /// cap, culling idle connections) as needed.  `fresh` reports whether the
  /// connection was just opened (callers retry once on a stale reused one).
  std::shared_ptr<TcpConnection> connection_for(const IOR& target, bool* fresh);
  void drop_connection(const IOR& target,
                       const std::shared_ptr<TcpConnection>& dead);

  TcpClientOptions options_;
  mutable std::mutex conn_mu_;
  std::map<TargetKey, std::shared_ptr<TcpConnection>> connections_;
};

/// Server-endpoint tuning.
struct TcpServerOptions {
  /// Reactor event-loop threads (>= 1); the receive-side thread budget.
  std::size_t io_threads = 2;

  /// listen(2) backlog: pending-connect queue depth before the kernel
  /// refuses new SYNs (connect storms deeper than this see timeouts).
  int listen_backlog = 256;

  /// Harvest connections idle (no bytes in, no replies out) for this long,
  /// in seconds; 0 disables harvesting.
  double idle_timeout_s = 0;
};

/// Server endpoint: owns the listen socket and the reactor that accepts
/// connections and dispatches into an adapter.
class TcpServerEndpoint {
 public:
  /// Binds and listens immediately (port 0 selects an ephemeral port).
  TcpServerEndpoint(const std::string& host, std::uint16_t port,
                    TcpServerOptions options = {});
  ~TcpServerEndpoint();

  TcpServerEndpoint(const TcpServerEndpoint&) = delete;
  TcpServerEndpoint& operator=(const TcpServerEndpoint&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Starts the reactor's event loops dispatching into `adapter`.
  void start(std::shared_ptr<ObjectAdapter> adapter);

  /// Stops accepting, closes connections, joins all threads.  Idempotent.
  void stop();

 private:
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  TcpServerOptions options_;
  std::shared_ptr<ObjectAdapter> adapter_;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<Reactor> reactor_;
  /// Sessions survive connection loss but die with the endpoint — a
  /// restarted server rejects old session ids (the stale-session path).
  SessionTable sessions_{/*reply_limit=*/256};
};

}  // namespace corba
