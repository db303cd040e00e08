// Batched TCP I/O tests: replies held for the reactor loop's burst flush
// never wait for another servant and still drain across Reactor::stop; the
// client's buffered frame reader demuxes reply bursts cut at arbitrary
// points (inside headers, several frames per segment), drops a reply cut off
// by a connection loss so the session replay completes the call exactly
// once, fails every in-flight call when closed mid-frame, and never sizes
// memory from a header's declared body length.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "orb/exceptions.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/tcp_transport.hpp"
#include "test_interfaces.hpp"

namespace corba {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using corbaft_test::CalcServant;

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Resident set size of this process, from /proc/self/status (KiB).
long resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

RequestMessage make_add_request(const IOR& target, std::uint64_t id,
                                std::int32_t a, std::int32_t b) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = target.key;
  req.operation = "add";
  req.arguments = {Value(a), Value(b)};
  return req;
}

std::vector<std::byte> request_frame(const RequestMessage& req) {
  CdrOutputStream body;
  req.encode_body(body);
  return encode_frame(MessageType::request, body);
}

std::vector<std::byte> reply_frame(const ReplyMessage& reply) {
  CdrOutputStream body;
  reply.encode_body(body);
  return encode_frame(MessageType::reply, body);
}

template <typename Message>
Message recv_message(Socket& socket, MessageType expected) {
  MessageHeader header;
  std::vector<std::byte> body;
  if (!socket.recv_frame(header, body, /*timeout_s=*/10.0))
    throw COMM_FAILURE("peer closed while a frame was expected");
  EXPECT_EQ(header.type, expected);
  CdrInputStream in(body, header.byte_order);
  return Message::decode_body(in);
}

/// Servant whose add() sleeps for a fixed delay.
class DelayServant : public corbaft_test::CalcSkeleton {
 public:
  explicit DelayServant(std::chrono::milliseconds delay) : delay_(delay) {}
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    std::this_thread::sleep_for(delay_);
    return a + b;
  }
  std::string echo(const std::string& s) override { return s; }
  void fail() override {}
  std::int64_t calls() const override { return 0; }

 private:
  std::chrono::milliseconds delay_;
};

/// A loopback listener that plays the server by hand.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() { ::close(fd_); }

  std::uint16_t port() const noexcept { return port_; }

  /// IOR of an object "hosted" here (the key is never looked at).
  IOR ior() const {
    IOR ior;
    ior.protocol = std::string(protocol::tcp);
    ior.host = "127.0.0.1";
    ior.port = port_;
    ior.key = ObjectKey::from_string("raw");
    return ior;
  }

  /// Accepts one connection (waiting at most 10 s).
  Socket accept() {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 10'000) != 1) {
      ADD_FAILURE() << "no connection to accept";
      return Socket();
    }
    Socket socket(::accept(fd_, nullptr, nullptr));
    const int one = 1;
    ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return socket;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

// --- a held reply waits for the loop, not for a servant ---------------------

TEST(ReplyBurstTest, ReplyHoldNeverWaitsForAServant) {
  // One dispatch worker.  The gate call keeps it busy while the fast and
  // slow requests queue up behind it, so the worker picks the fast one up
  // with the slow one runnable: that reply is held for a burst flush.  The
  // loop must write it at once, not after the worker's next (400 ms) job.
  auto server = ORB::init({.endpoint_name = "hold-server",
                           .enable_tcp = true,
                           .dispatch_threads = 1});
  const IOR gate =
      server->activate(std::make_shared<DelayServant>(30ms)).ior();
  const IOR fast = server->activate(std::make_shared<CalcServant>()).ior();
  const IOR slow =
      server->activate(std::make_shared<DelayServant>(400ms)).ior();

  std::vector<std::byte> burst;
  for (const auto& frame : {request_frame(make_add_request(gate, 1, 1, 1)),
                            request_frame(make_add_request(fast, 2, 20, 22)),
                            request_frame(make_add_request(slow, 3, 2, 2))})
    burst.insert(burst.end(), frame.begin(), frame.end());

  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  const auto sent = Clock::now();
  socket.send_bytes(burst);
  auto fast_at = Clock::time_point::max();
  for (int i = 0; i < 3; ++i) {
    const auto reply = recv_message<ReplyMessage>(socket, MessageType::reply);
    if (reply.request_id == 2) {
      fast_at = Clock::now();
      EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
    }
  }
  EXPECT_LT(fast_at - sent, 150ms) << "the fast reply waited for a servant";
}

// --- reply bursts cut anywhere are demuxed to the right waiters -------------

TEST(ReplyBurstTest, SplitReplyBurstsReachTheRightWaiters) {
  constexpr int kRounds = 12;
  constexpr int kCalls = 16;
  RawListener listener;
  TcpClientTransport transport(TcpClientOptions{.request_timeout_s = 10.0});
  const IOR target = listener.ior();
  std::mt19937 rng(20260417);
  Socket conn;

  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::unique_ptr<PendingReply>> pending;
    for (int i = 0; i < kCalls; ++i) {
      const std::uint64_t id = std::uint64_t(round) * 100 + std::uint64_t(i);
      pending.push_back(transport.send(
          target, make_add_request(target, id, std::int32_t(id), 1)));
    }
    if (round == 0) conn = listener.accept();

    // Answer every request in shuffled order, as one byte stream cut at
    // seeded points: some inside a 12-byte header, some segments carrying
    // several whole frames.
    std::vector<RequestMessage> requests;
    for (int i = 0; i < kCalls; ++i)
      requests.push_back(
          recv_message<RequestMessage>(conn, MessageType::request));
    std::shuffle(requests.begin(), requests.end(), rng);
    std::vector<std::byte> stream;
    std::vector<std::size_t> frame_starts;
    for (const RequestMessage& req : requests) {
      frame_starts.push_back(stream.size());
      const auto frame = reply_frame(ReplyMessage::make_result(
          req.request_id, Value(std::int32_t(req.request_id) + 1)));
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    std::vector<std::size_t> cuts;
    std::uniform_int_distribution<std::size_t> anywhere(1, stream.size() - 1);
    std::uniform_int_distribution<std::size_t> in_header(
        1, MessageHeader::kEncodedSize - 1);
    for (int k = 0; k < 4; ++k) cuts.push_back(anywhere(rng));
    cuts.push_back(frame_starts[std::size_t(round) % kCalls] + in_header(rng));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    cuts.push_back(stream.size());

    // The caller is already reading when the segments arrive one by one.
    std::thread caller([&] {
      for (int i = 0; i < kCalls; ++i) {
        const std::uint64_t id =
            std::uint64_t(round) * 100 + std::uint64_t(i);
        const ReplyMessage reply = pending[std::size_t(i)]->get();
        EXPECT_EQ(reply.request_id, id);
        EXPECT_EQ(reply.result_or_throw().as_i32(), std::int32_t(id) + 1);
      }
    });
    std::size_t from = 0;
    for (const std::size_t to : cuts) {
      if (to <= from) continue;
      std::this_thread::sleep_for(2ms);  // separate segments
      conn.send_bytes(std::span(stream).subspan(from, to - from));
      from = to;
    }
    caller.join();
  }
  EXPECT_EQ(transport.connection_count(), 1u);
}

// --- a reply cut off by a connection loss is replayed exactly once ----------

TEST(ReplyBurstTest, ResumeDropsPartialReplyAndReplayCompletesOnce) {
  RawListener listener;
  const IOR target = listener.ior();
  constexpr std::uint64_t kSession = 77;
  std::atomic<bool> done{false};

  std::thread server([&] {
    Socket first = listener.accept();
    const auto hello =
        recv_message<SessionHello>(first, MessageType::session_hello);
    EXPECT_EQ(hello.session_id, 0u);
    CdrOutputStream accept_body;
    SessionAccept{true, kSession, 0}.encode_body(accept_body);
    first.send_frame(MessageType::session_accept, accept_body);

    const auto request =
        recv_message<RequestMessage>(first, MessageType::request);
    const auto ctx = extract_session_context(request);
    ASSERT_TRUE(ctx.has_value());
    ReplyMessage reply =
        ReplyMessage::make_result(request.request_id, Value(std::int32_t(42)));
    reply.has_session = true;
    reply.session_seq = 1;
    reply.session_ack = ctx->seq;
    const std::vector<std::byte> frame = reply_frame(reply);
    // Half a reply, then the connection dies under it.
    first.send_bytes(std::span(frame).first(frame.size() / 2));
    std::this_thread::sleep_for(50ms);
    ::shutdown(first.fd(), SHUT_RDWR);
    first.close();

    Socket second = listener.accept();
    const auto resume =
        recv_message<SessionHello>(second, MessageType::session_hello);
    EXPECT_EQ(resume.session_id, kSession);
    EXPECT_EQ(resume.highest_reply_seq, 0u);  // the half reply was not used
    CdrOutputStream resume_body;
    SessionAccept{true, kSession, ctx->seq}.encode_body(resume_body);
    second.send_frame(MessageType::session_accept, resume_body);
    second.send_bytes(frame);  // the replay
    while (!done.load()) std::this_thread::sleep_for(5ms);
  });

  const std::uint64_t resumes_before =
      counter_value("transport.session.resumes_total");
  const std::uint64_t discarded_before =
      counter_value("transport.tcp.discarded_replies_total");
  {
    TcpClientTransport transport(TcpClientOptions{
        .request_timeout_s = 10.0,
        .enable_sessions = true,
        .resume_backoff_s = 0.01,
        .connect_timeout_s = 5.0});
    try {
      const ReplyMessage reply =
          transport.invoke(target, make_add_request(target, 9, 40, 2));
      EXPECT_EQ(reply.request_id, 9u);
      EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
    } catch (const Exception& e) {
      ADD_FAILURE() << "call failed: " << e.what();
    }
    done.store(true);
    server.join();
  }
  EXPECT_EQ(counter_value("transport.session.resumes_total"),
            resumes_before + 1);
  EXPECT_EQ(counter_value("transport.tcp.discarded_replies_total"),
            discarded_before);
}

// --- close() while the leader is blocked mid-frame --------------------------

TEST(ReplyBurstTest, CloseMidFrameFailsEveryCallInFlight) {
  RawListener listener;
  const IOR target = listener.ior();
  auto connection = TcpConnection::open("127.0.0.1", listener.port());
  std::vector<std::unique_ptr<PendingReply>> pending;
  for (std::uint64_t id = 1; id <= 3; ++id)
    pending.push_back(
        connection->send(make_add_request(target, id, 1, 1), /*timeout_s=*/0));
  Socket conn = listener.accept();
  for (int i = 0; i < 3; ++i)
    (void)recv_message<RequestMessage>(conn, MessageType::request);
  const auto frame =
      reply_frame(ReplyMessage::make_result(1, Value(std::int32_t(2))));
  conn.send_bytes(std::span(frame).first(MessageHeader::kEncodedSize + 3));

  std::vector<std::thread> callers;
  std::atomic<int> comm_failures{0};
  for (auto& p : pending)
    callers.emplace_back([&, reply = p.get()] {
      try {
        (void)reply->get();
      } catch (const COMM_FAILURE&) {
        comm_failures.fetch_add(1);
      }
    });
  std::this_thread::sleep_for(100ms);  // a leader now holds a partial frame
  connection->close();
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(comm_failures.load(), 3);
  EXPECT_FALSE(connection->healthy());
}

// --- replies computed around Reactor::stop still drain ----------------------

TEST(ReplyBurstTest, RepliesHeldAcrossReactorStopReachTheClient) {
  // One worker.  Behind the gate call, the slow one is picked up with a
  // call from another connection runnable, so its reply is held — and it
  // is computed only after the reactor stopped, with no later reply on its
  // connection to carry it out.
  auto server = ORB::init({.endpoint_name = "stop-server",
                           .enable_tcp = true,
                           .dispatch_threads = 1});
  const IOR gate =
      server->activate(std::make_shared<DelayServant>(30ms)).ior();
  const IOR slow =
      server->activate(std::make_shared<DelayServant>(200ms)).ior();
  const IOR fast = server->activate(std::make_shared<CalcServant>()).ior();
  std::vector<std::byte> burst;
  for (const auto& frame : {request_frame(make_add_request(gate, 1, 1, 1)),
                            request_frame(make_add_request(slow, 2, 2, 2))})
    burst.insert(burst.end(), frame.begin(), frame.end());
  Socket first = Socket::connect("127.0.0.1", server->tcp_port());
  Socket second = Socket::connect("127.0.0.1", server->tcp_port());
  first.send_bytes(burst);
  std::this_thread::sleep_for(5ms);
  second.send_bytes(request_frame(make_add_request(fast, 3, 3, 3)));
  std::this_thread::sleep_for(100ms);  // every request is in the pool
  server->shutdown();  // the reactor first, then the pool drains

  for (const std::uint64_t id : {1, 2}) {
    const auto reply = recv_message<ReplyMessage>(first, MessageType::reply);
    EXPECT_EQ(reply.request_id, id);
    EXPECT_EQ(reply.result_or_throw().as_i32(), 2 * std::int32_t(id));
  }
  const auto reply = recv_message<ReplyMessage>(second, MessageType::reply);
  EXPECT_EQ(reply.request_id, 3u);
  EXPECT_EQ(reply.result_or_throw().as_i32(), 6);
}

// --- a 256 MiB declared reply body reserves nothing -------------------------

constexpr std::uint32_t kHugeBody = 256u << 20;
constexpr long kRssSlackKib = 32 * 1024;

std::array<std::byte, MessageHeader::kEncodedSize> huge_reply_header() {
  MessageHeader header;
  header.type = MessageType::reply;
  header.body_length = kHugeBody;
  return header.encode();
}

TEST(HugeReplyHeaderTest, RecvFrameTimesOutWithoutReserving) {
  RawListener listener;
  Socket client = Socket::connect("127.0.0.1", listener.port());
  Socket conn = listener.accept();
  conn.send_bytes(huge_reply_header());  // ...and then silence
  const long rss_before = resident_kib();
  MessageHeader header;
  std::vector<std::byte> body;
  EXPECT_THROW(client.recv_frame(header, body, /*timeout_s=*/0.3), TIMEOUT);
  EXPECT_LT(resident_kib() - rss_before, kRssSlackKib);
  EXPECT_LT(body.capacity(), std::size_t(kRssSlackKib) * 1024);
}

TEST(HugeReplyHeaderTest, TransportCallTimesOutWithoutReserving) {
  RawListener listener;
  const IOR target = listener.ior();
  std::atomic<bool> done{false};
  std::thread server([&] {
    Socket conn = listener.accept();
    (void)recv_message<RequestMessage>(conn, MessageType::request);
    conn.send_bytes(huge_reply_header());
    // Silent until the call is over (bounded, so a client that waits for
    // the whole body fails instead of hanging).
    const auto give_up = Clock::now() + 5s;
    while (!done.load() && Clock::now() < give_up)
      std::this_thread::sleep_for(5ms);
  });
  const long rss_before = resident_kib();
  {
    TcpClientTransport transport(
        TcpClientOptions{.request_timeout_s = 0.3});
    EXPECT_THROW(transport.invoke(target, make_add_request(target, 1, 1, 1)),
                 TIMEOUT);
    EXPECT_LT(resident_kib() - rss_before, kRssSlackKib);
    done.store(true);
    server.join();
  }
}

}  // namespace
}  // namespace corba
