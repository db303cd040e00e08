// Resumable-session tests: wire format round trips (and bytes-identical
// encoding with sessions off), RetransmitBuffer semantics (cumulative ack,
// replay ordering, overflow eviction), and the end-to-end resume protocol
// driven through a byte-level TCP relay that can sever, withhold and
// re-target traffic — reconnect-with-replay completes in-flight calls
// exactly-once, a stale session id falls back to the batched failure path,
// and retransmit-buffer overflow fails the oldest call.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/session.hpp"
#include "orb/tcp_transport.hpp"
#include "test_interfaces.hpp"

namespace corba {
namespace {

using namespace std::chrono_literals;
using corbaft_test::CalcServant;

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

// --- wire format -----------------------------------------------------------

TEST(SessionWireTest, HelloRoundTrip) {
  SessionHello hello{.session_id = 42, .highest_reply_seq = 17};
  CdrOutputStream out;
  hello.encode_body(out);
  CdrInputStream in(out.buffer());
  const SessionHello decoded = SessionHello::decode_body(in);
  EXPECT_EQ(decoded.session_id, 42u);
  EXPECT_EQ(decoded.highest_reply_seq, 17u);
}

TEST(SessionWireTest, AcceptRoundTrip) {
  SessionAccept accept{.ok = true, .session_id = 7, .highest_request_seq = 9};
  CdrOutputStream out;
  accept.encode_body(out);
  CdrInputStream in(out.buffer());
  const SessionAccept decoded = SessionAccept::decode_body(in);
  EXPECT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.session_id, 7u);
  EXPECT_EQ(decoded.highest_request_seq, 9u);

  SessionAccept reject{.ok = false};
  CdrOutputStream out2;
  reject.encode_body(out2);
  CdrInputStream in2(out2.buffer());
  EXPECT_FALSE(SessionAccept::decode_body(in2).ok);
}

TEST(SessionWireTest, RequestSessionContextRoundTrip) {
  RequestMessage req;
  req.request_id = 5;
  req.object_key = ObjectKey::from_string("key");
  req.operation = "add";
  req.arguments = {Value(std::int32_t(1)), Value(std::int32_t(2))};
  attach_session_context(req, SessionContext{.seq = 11, .ack = 4});

  CdrOutputStream out;
  req.encode_body(out);
  CdrInputStream in(out.buffer());
  const RequestMessage decoded = RequestMessage::decode_body(in);
  const auto context = extract_session_context(decoded);
  ASSERT_TRUE(context.has_value());
  EXPECT_EQ(context->seq, 11u);
  EXPECT_EQ(context->ack, 4u);

  // Re-attaching replaces the slot instead of accumulating contexts.
  RequestMessage again = decoded;
  attach_session_context(again, SessionContext{.seq = 12, .ack = 11});
  EXPECT_EQ(again.service_contexts.size(), decoded.service_contexts.size());
  EXPECT_EQ(extract_session_context(again)->seq, 12u);
}

TEST(SessionWireTest, RequestWithoutSessionHasNoContext) {
  RequestMessage req;
  req.request_id = 1;
  req.object_key = ObjectKey::from_string("key");
  req.operation = "add";
  CdrOutputStream out;
  req.encode_body(out);
  CdrInputStream in(out.buffer());
  EXPECT_FALSE(extract_session_context(RequestMessage::decode_body(in))
                   .has_value());
}

TEST(SessionWireTest, ReplyTailFieldsRoundTripAndStayOffTheWireWhenUnused) {
  ReplyMessage plain = ReplyMessage::make_result(3, Value(std::int32_t(9)));
  CdrOutputStream plain_out;
  plain.encode_body(plain_out);

  ReplyMessage stamped = ReplyMessage::make_result(3, Value(std::int32_t(9)));
  stamped.has_session = true;
  stamped.session_seq = 21;
  stamped.session_ack = 20;
  CdrOutputStream stamped_out;
  stamped.encode_body(stamped_out);

  // Sessions off: byte-identical to the historical encoding (the tail is
  // simply absent, not zero-filled).
  EXPECT_LT(plain_out.buffer().size(), stamped_out.buffer().size());
  CdrInputStream plain_in(plain_out.buffer());
  const ReplyMessage plain_decoded = ReplyMessage::decode_body(plain_in);
  EXPECT_FALSE(plain_decoded.has_session);

  CdrInputStream stamped_in(stamped_out.buffer());
  const ReplyMessage decoded = ReplyMessage::decode_body(stamped_in);
  ASSERT_TRUE(decoded.has_session);
  EXPECT_EQ(decoded.session_seq, 21u);
  EXPECT_EQ(decoded.session_ack, 20u);
  EXPECT_EQ(decoded.result_or_throw().as_i32(), 9);
}

// --- retransmit buffer -----------------------------------------------------

std::vector<std::byte> frame_bytes(std::size_t n, std::byte fill) {
  return std::vector<std::byte>(n, fill);
}

TEST(RetransmitBufferTest, CumulativeAckEvictsPrefix) {
  RetransmitBuffer buffer(8);
  for (std::uint64_t seq = 1; seq <= 5; ++seq)
    buffer.append(seq, 100 + seq, frame_bytes(10, std::byte{0x42}));
  EXPECT_EQ(buffer.size(), 5u);
  EXPECT_EQ(buffer.bytes(), 50u);
  EXPECT_EQ(buffer.ack(3), 3u);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.bytes(), 20u);
  EXPECT_EQ(buffer.ack(3), 0u);  // acks are idempotent
  EXPECT_EQ(buffer.ack(100), 2u);
  EXPECT_TRUE(buffer.empty());
}

TEST(RetransmitBufferTest, AfterReturnsOrderedUnackedTail) {
  RetransmitBuffer buffer(8);
  for (std::uint64_t seq = 1; seq <= 6; ++seq)
    buffer.append(seq, seq, frame_bytes(4, std::byte(seq)));
  const auto tail = buffer.after(2);
  ASSERT_EQ(tail.size(), 4u);
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_EQ(tail[i]->seq, 3 + i);
  EXPECT_TRUE(buffer.after(6).empty());
}

TEST(RetransmitBufferTest, OverflowEvictsOldest) {
  RetransmitBuffer buffer(2);
  buffer.append(1, 11, frame_bytes(4, std::byte{1}));
  buffer.append(2, 22, frame_bytes(4, std::byte{2}));
  EXPECT_TRUE(buffer.full());
  const auto victim = buffer.evict_oldest();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->seq, 1u);
  EXPECT_EQ(victim->request_id, 11u);
  EXPECT_FALSE(buffer.full());
}

TEST(RetransmitBufferTest, ReplayOrderingProperty) {
  // Property: against a reference model under random appends and cumulative
  // acks, after(k) always returns exactly the unacked frames with seq > k,
  // oldest first.
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 50; ++round) {
    RetransmitBuffer buffer(256);
    std::deque<std::uint64_t> model;
    std::uint64_t next_seq = 1;
    std::uint64_t acked = 0;
    for (int step = 0; step < 100; ++step) {
      if (model.empty() || rng() % 2 == 0) {
        buffer.append(next_seq, next_seq, frame_bytes(1 + rng() % 8,
                                                      std::byte{0x5a}));
        model.push_back(next_seq);
        ++next_seq;
      } else {
        acked = model[rng() % model.size()];
        buffer.ack(acked);
        while (!model.empty() && model.front() <= acked) model.pop_front();
      }
      const std::uint64_t peer =
          acked + (rng() % 3 == 0 ? 0 : rng() % (next_seq - acked));
      const auto tail = buffer.after(peer);
      std::vector<std::uint64_t> expected;
      for (std::uint64_t seq : model)
        if (seq > peer) expected.push_back(seq);
      ASSERT_EQ(tail.size(), expected.size());
      for (std::size_t i = 0; i < tail.size(); ++i)
        ASSERT_EQ(tail[i]->seq, expected[i]);
    }
  }
}

TEST(SessionTableTest, CreateFindAndStaleRejection) {
  SessionTable table(/*reply_limit=*/4, /*max_sessions=*/2);
  auto a = table.create();
  auto b = table.create();
  EXPECT_NE(a->id, b->id);
  EXPECT_EQ(table.find(a->id), a);
  EXPECT_EQ(table.find(a->id + b->id + 100), nullptr);  // unknown id
  // Cap eviction drops the oldest session.
  auto c = table.create();
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(a->id), nullptr);
  EXPECT_EQ(table.find(c->id), c);
}

// --- end-to-end over a byte-level relay -------------------------------------

int must_socket() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  return fd;
}

/// TCP relay between the client transport and a real server endpoint.  The
/// tests drive three controls: sever() (close the current connection pair —
/// a connection reset that kills no host), hold() (silently discard
/// client→server bytes, so a sent frame is "lost" and must be replayed) and
/// set_target() (re-point at a different server — the stale-session case).
class Relay {
 public:
  explicit Relay(std::uint16_t target_port) : target_port_(target_port) {
    listen_fd_ = must_socket();
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)), 0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len), 0);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { accept_clients(); });
  }

  ~Relay() { stop(); }

  std::uint16_t port() const noexcept { return port_; }
  void set_target(std::uint16_t port) noexcept { target_port_.store(port); }
  void hold(bool on) noexcept { hold_.store(on); }

  /// Severs every live connection pair (both directions).
  void sever() {
    std::lock_guard lock(mu_);
    for (const auto& [client_fd, server_fd] : pairs_) {
      ::shutdown(client_fd, SHUT_RDWR);
      ::shutdown(server_fd, SHUT_RDWR);
    }
  }

  void stop() {
    if (stopping_.exchange(true)) return;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    if (acceptor_.joinable()) acceptor_.join();
    sever();
    std::vector<std::thread> pumps;
    {
      std::lock_guard lock(mu_);
      pumps.swap(pumps_);
    }
    for (std::thread& pump : pumps) pump.join();
    std::lock_guard lock(mu_);
    for (const auto& [client_fd, server_fd] : pairs_) {
      ::close(client_fd);
      ::close(server_fd);
    }
    pairs_.clear();
  }

 private:
  void accept_clients() {
    for (;;) {
      const int client_fd = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd < 0) {
        if (stopping_.load()) return;
        continue;
      }
      const int server_fd = must_socket();
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(target_port_.load());
      if (::connect(server_fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::close(server_fd);
        ::close(client_fd);
        continue;
      }
      std::lock_guard lock(mu_);
      if (stopping_.load()) {
        ::close(server_fd);
        ::close(client_fd);
        return;
      }
      pairs_.push_back({client_fd, server_fd});
      pumps_.emplace_back([this, client_fd, server_fd] {
        pump(client_fd, server_fd, /*client_to_server=*/true);
      });
      pumps_.emplace_back([this, client_fd, server_fd] {
        pump(server_fd, client_fd, /*client_to_server=*/false);
      });
    }
  }

  void pump(int from, int to, bool client_to_server) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(from, buf, sizeof(buf), 0);
      if (n <= 0) break;
      if (client_to_server && hold_.load()) continue;  // black-hole the bytes
      ssize_t sent = 0;
      bool failed = false;
      while (sent < n) {
        const ssize_t w = ::send(to, buf + sent, n - sent, MSG_NOSIGNAL);
        if (w <= 0) {
          failed = true;
          break;
        }
        sent += w;
      }
      if (failed) break;
    }
    ::shutdown(from, SHUT_RDWR);
    ::shutdown(to, SHUT_RDWR);
  }

  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<std::uint16_t> target_port_;
  std::atomic<bool> hold_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex mu_;
  std::vector<std::pair<int, int>> pairs_;
  std::vector<std::thread> pumps_;
};

RequestMessage make_request(const IOR& target, std::uint64_t id, std::int32_t a,
                            std::int32_t b) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = target.key;
  req.operation = "add";
  req.arguments = {Value(a), Value(b)};
  return req;
}

/// add() blocks for `delay` (counts calls — the exactly-once witness).
class SlowServant : public corbaft_test::CalcSkeleton {
 public:
  explicit SlowServant(std::chrono::milliseconds delay) : delay_(delay) {}
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    std::this_thread::sleep_for(delay_);
    ++calls_;
    return a + b;
  }
  std::string echo(const std::string& s) override { return s; }
  void fail() override {}
  std::int64_t calls() const override { return calls_.load(); }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<std::int64_t> calls_{0};
};

class SessionResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = ORB::init({.endpoint_name = "sess-server", .enable_tcp = true});
    target_ = server_->activate(std::make_shared<CalcServant>());
    relay_ = std::make_unique<Relay>(target_.ior().port);
  }

  IOR relay_ior(const ObjectRef& ref) const {
    IOR ior = ref.ior();
    ior.port = relay_->port();
    return ior;
  }

  static TcpClientOptions session_options() {
    return TcpClientOptions{.enable_sessions = true,
                            .resume_attempts = 5,
                            .resume_backoff_s = 0.02,
                            .connect_timeout_s = 5.0};
  }

  std::shared_ptr<ORB> server_;
  ObjectRef target_;
  std::unique_ptr<Relay> relay_;
};

TEST_F(SessionResumeTest, HandshakeEstablishesSession) {
  TcpClientTransport transport(session_options());
  const IOR ior = relay_ior(target_);
  const ReplyMessage reply = transport.invoke(ior, make_request(ior, 1, 20, 22));
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
}

TEST_F(SessionResumeTest, LostRequestFrameIsReplayedExactlyOnce) {
  auto slow = std::make_shared<SlowServant>(10ms);
  const ObjectRef slow_ref = server_->activate(slow);
  const IOR ior = relay_ior(slow_ref);

  TcpClientTransport transport(session_options());
  // Warm the connection (session handshake happens here, while the relay
  // still forwards everything).
  const IOR calc_ior = relay_ior(target_);
  (void)transport.invoke(calc_ior, make_request(calc_ior, 1, 1, 1));

  const std::uint64_t resumes_before =
      counter_value("transport.session.resumes_total");
  const std::uint64_t retransmits_before =
      counter_value("transport.session.retransmitted_frames_total");

  // Black-hole the request frame, then reset the connection: the only way
  // this call can complete is a session resume that retransmits the frame.
  relay_->hold(true);
  auto pending = transport.send(ior, make_request(ior, 2, 40, 2));
  std::this_thread::sleep_for(50ms);  // frame swallowed by the relay
  relay_->sever();
  relay_->hold(false);

  const ReplyMessage reply = pending->get();
  EXPECT_EQ(reply.request_id, 2u);
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
  EXPECT_EQ(slow->calls(), 1) << "replay must execute the call exactly once";
  EXPECT_GE(counter_value("transport.session.resumes_total"),
            resumes_before + 1);
  EXPECT_GE(counter_value("transport.session.retransmitted_frames_total"),
            retransmits_before + 1);
}

TEST_F(SessionResumeTest, MidCallResetResumesWithoutFailingTheCall) {
  auto slow = std::make_shared<SlowServant>(400ms);
  const ObjectRef slow_ref = server_->activate(slow);
  const IOR ior = relay_ior(slow_ref);

  TcpClientTransport transport(session_options());
  const std::uint64_t resumes_before =
      counter_value("transport.session.resumes_total");

  auto pending = transport.send(ior, make_request(ior, 1, 20, 22));
  std::this_thread::sleep_for(100ms);  // request delivered, servant running
  relay_->sever();

  // The reply direction now needs the resumed connection (routed to the new
  // carrier, or replayed from the server's reply buffer on hello).
  const ReplyMessage reply = pending->get();
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
  EXPECT_EQ(slow->calls(), 1);
  EXPECT_GE(counter_value("transport.session.resumes_total"),
            resumes_before + 1);
}

TEST_F(SessionResumeTest, PipelinedSiblingsSurviveTheReset) {
  auto slow = std::make_shared<SlowServant>(150ms);
  const ObjectRef slow_ref = server_->activate(slow);
  const IOR ior = relay_ior(slow_ref);

  TcpClientTransport transport(session_options());
  std::vector<std::unique_ptr<PendingReply>> pending;
  for (std::uint64_t id = 1; id <= 4; ++id)
    pending.push_back(transport.send(ior, make_request(ior, id, int(id), 1)));
  std::this_thread::sleep_for(100ms);
  relay_->sever();
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const ReplyMessage reply = pending[id - 1]->get();
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.result_or_throw().as_i32(), int(id) + 1);
  }
  EXPECT_EQ(slow->calls(), 4) << "every pipelined call exactly once";
}

TEST_F(SessionResumeTest, StaleSessionFallsBackToBatchedFailure) {
  auto other_server =
      ORB::init({.endpoint_name = "sess-other", .enable_tcp = true});
  const ObjectRef other = other_server->activate(std::make_shared<CalcServant>());

  TcpClientTransport transport(session_options());
  const IOR ior = relay_ior(target_);
  (void)transport.invoke(ior, make_request(ior, 1, 1, 1));

  const std::uint64_t failures_before =
      counter_value("transport.session.resume_failures_total");

  // Lose the next frame, then re-point the relay at a server that has never
  // seen this session: the resume handshake must be rejected and the call
  // fail through the batched COMM_FAILURE path.
  relay_->hold(true);
  auto pending = transport.send(ior, make_request(ior, 2, 2, 2));
  std::this_thread::sleep_for(50ms);
  relay_->set_target(other.ior().port);
  relay_->sever();
  relay_->hold(false);

  try {
    (void)pending->get();
    FAIL() << "stale session must not resume";
  } catch (const COMM_FAILURE& error) {
    EXPECT_EQ(error.minor(), minor_code::session_resume_failed);
    EXPECT_EQ(error.completed(), CompletionStatus::completed_maybe);
  }
  EXPECT_GE(counter_value("transport.session.resume_failures_total"),
            failures_before + 1);

  // The transport itself recovers: re-point the relay at the real server
  // and the next call opens a fresh session.
  relay_->set_target(target_.ior().port);
  const ReplyMessage reply = transport.invoke(ior, make_request(ior, 3, 3, 3));
  EXPECT_EQ(reply.result_or_throw().as_i32(), 6);
}

TEST_F(SessionResumeTest, RetransmitOverflowFailsOldestCall) {
  auto slow = std::make_shared<SlowServant>(300ms);
  const ObjectRef slow_ref = server_->activate(slow);
  const IOR ior = relay_ior(slow_ref);

  TcpClientOptions options = session_options();
  options.session_retransmit_limit = 2;
  TcpClientTransport transport(options);
  const std::uint64_t overflow_before =
      counter_value("transport.session.overflow_failures_total");

  std::vector<std::unique_ptr<PendingReply>> pending;
  for (std::uint64_t id = 1; id <= 3; ++id)
    pending.push_back(transport.send(ior, make_request(ior, id, int(id), 0)));

  // The third send exceeded the hard cap: the oldest buffered call fails.
  try {
    (void)pending[0]->get();
    FAIL() << "oldest call must fail on retransmit-buffer overflow";
  } catch (const COMM_FAILURE& error) {
    EXPECT_EQ(error.minor(), minor_code::session_overflow);
    EXPECT_EQ(error.completed(), CompletionStatus::completed_maybe);
  }
  EXPECT_EQ(pending[1]->get().result_or_throw().as_i32(), 2);
  EXPECT_EQ(pending[2]->get().result_or_throw().as_i32(), 3);
  EXPECT_EQ(counter_value("transport.session.overflow_failures_total"),
            overflow_before + 1);
}

// --- satellite fixes ---------------------------------------------------------

TEST(ConnectDeadlineTest, NonBlockingConnectHonorsTimeout) {
  // A listener that never accepts, with a minimal backlog: once the accept
  // queue is full the kernel silently drops further SYNs
  // (tcp_abort_on_overflow defaults to 0), so the connect hangs in SYN
  // retransmission — exactly the black-holed-SYN case the deadline exists
  // for.  Without the deadline this would block for the kernel's
  // minutes-long default.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  // Linux admits backlog+1 handshakes before the queue jams, so a few
  // filler connects (kept open) are enough to reach the dropping state.
  std::vector<Socket> filler;
  bool timed_out = false;
  for (int i = 0; i < 16 && !timed_out; ++i) {
    const auto start = std::chrono::steady_clock::now();
    try {
      filler.push_back(Socket::connect("127.0.0.1", port, /*timeout_s=*/0.3));
    } catch (const COMM_FAILURE&) {
      const auto took = std::chrono::steady_clock::now() - start;
      EXPECT_GE(took, 250ms);  // actually waited for the deadline...
      EXPECT_LT(took, 5s);     // ...and no longer than that
      timed_out = true;
    }
  }
  EXPECT_TRUE(timed_out);
  ::close(listen_fd);
}

TEST(ConnectDeadlineTest, ConnectWithTimeoutStillConnects) {
  auto server = ORB::init({.endpoint_name = "sess-conn", .enable_tcp = true});
  const ObjectRef ref = server->activate(std::make_shared<CalcServant>());
  Socket socket =
      Socket::connect(ref.ior().host, ref.ior().port, /*timeout_s=*/2.0);
  EXPECT_TRUE(socket.valid());
}

TEST(DiscardReasonTest, LateReplySplitsFromDuplicate) {
  auto server = ORB::init({.endpoint_name = "sess-late", .enable_tcp = true});
  auto slow = std::make_shared<SlowServant>(300ms);
  const ObjectRef slow_ref = server->activate(slow);
  const ObjectRef fast_ref = server->activate(std::make_shared<CalcServant>());

  const std::uint64_t late_before =
      counter_value("transport.tcp.discarded_replies_late_total");
  const std::uint64_t discarded_before =
      counter_value("transport.tcp.discarded_replies_total");

  TcpClientTransport transport(TcpClientOptions{.request_timeout_s = 0.1});
  auto pending = transport.send(slow_ref.ior(),
                                make_request(slow_ref.ior(), 1, 1, 1));
  EXPECT_THROW((void)pending->get(), TIMEOUT);
  std::this_thread::sleep_for(400ms);  // the late reply is now buffered
  // The next call's leader drains the abandoned call's reply first and
  // attributes the discard to the `late` reason.
  const ReplyMessage reply = transport.invoke(
      fast_ref.ior(), make_request(fast_ref.ior(), 2, 20, 22));
  EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
  EXPECT_EQ(counter_value("transport.tcp.discarded_replies_late_total"),
            late_before + 1);
  EXPECT_EQ(counter_value("transport.tcp.discarded_replies_total"),
            discarded_before + 1);
}

}  // namespace
}  // namespace corba
