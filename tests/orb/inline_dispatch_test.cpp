// Adaptive inline dispatch on the reactor loop: per-key FIFO while dispatch
// mixes inline runs and the pool, the loop hand-off that keeps a nested
// call into the same server from deadlocking, a slow run sending the key
// back to the pool, and one sendmsg for a burst of inline replies.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
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

std::uint64_t inline_runs() { return counter_value("orb.dispatch.inline_total"); }
std::uint64_t pool_runs() {
  return counter_value("orb.dispatch_pool.dispatched_total");
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

std::vector<std::byte> encode_request(const RequestMessage& req) {
  CdrOutputStream body;
  req.encode_body(body);
  return encode_frame(MessageType::request, body);
}

ReplyMessage recv_reply(Socket& socket, double timeout_s = 10.0) {
  MessageHeader header;
  std::vector<std::byte> body;
  if (!socket.recv_frame(header, body, timeout_s))
    throw COMM_FAILURE("peer closed while a reply was expected");
  CdrInputStream in(body, header.byte_order);
  return ReplyMessage::decode_body(in);
}

/// One synchronous add over a raw socket.
std::int32_t call_add(Socket& socket, const IOR& target, std::uint64_t id,
                      std::int32_t a, std::int32_t b) {
  socket.send_bytes(encode_request(make_add_request(target, id, a, b)));
  const ReplyMessage reply = recv_reply(socket);
  EXPECT_EQ(reply.request_id, id);
  return reply.result_or_throw().as_i32();
}

/// Waits until no pool job is queued or running, so the next request's
/// claim decision sees the last run's profile.
void wait_pool_idle(const std::shared_ptr<ORB>& orb) {
  const auto deadline = Clock::now() + 5s;
  while (orb->adapter().dispatch_pool()->depth() != 0 &&
         Clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
}

/// Calls `target` until one call runs inline, so that the next call is
/// claimable too unless that run itself read over budget.  Run times are
/// wall clock: on a loaded or sanitized build a run can read slow, hence
/// the bounded retry.
bool warm_until_inline(Socket& socket, const std::shared_ptr<ORB>& orb,
                       const IOR& target, std::uint64_t& id) {
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t before = inline_runs();
    EXPECT_EQ(call_add(socket, target, ++id, 0, 0), 0);
    wait_pool_idle(orb);
    if (inline_runs() == before + 1) return true;
  }
  return false;
}

// --- (a) per-key FIFO while dispatch mixes inline runs and the pool ---------

/// add(conn, seq): records per-connection order and overlapping runs.  Every
/// 8th run lingers past the inline budget, so the key keeps moving between
/// the loops and the pool.
class OrderRecorder : public corbaft_test::CalcSkeleton {
 public:
  std::int32_t add(std::int32_t conn, std::int32_t seq) override {
    if (running_.fetch_add(1) != 0) overlaps_.fetch_add(1);
    {
      std::lock_guard lock(mu_);
      std::int32_t& last = last_seq_[conn];
      if (seq != last + 1) ++disorders_;
      last = seq;
    }
    if (calls_.fetch_add(1) % 8 == 7) {
      const auto until = Clock::now() + 200us;
      while (Clock::now() < until) {
      }
    }
    running_.fetch_sub(1);
    return seq;
  }
  std::string echo(const std::string& s) override { return s; }
  void fail() override {}
  std::int64_t calls() const override { return calls_.load(); }

  int overlaps() const { return overlaps_.load(); }
  int disorders() const {
    std::lock_guard lock(mu_);
    return disorders_;
  }

 private:
  std::atomic<int> running_{0};
  std::atomic<int> overlaps_{0};
  std::atomic<std::int64_t> calls_{0};
  mutable std::mutex mu_;
  std::map<std::int32_t, std::int32_t> last_seq_;
  int disorders_ = 0;
};

TEST(InlineDispatchTest, PerKeyOrderHoldsWhileDispatchMixesInlineAndPool) {
  auto server = ORB::init({.endpoint_name = "inline-order",
                           .enable_tcp = true,
                           .dispatch_threads = 4,
                           .io_threads = 2});
  auto hammered = std::make_shared<OrderRecorder>();
  auto beside = std::make_shared<OrderRecorder>();
  const IOR hot = server->activate(hammered).ior();
  const IOR other = server->activate(beside).ior();

  const std::uint64_t inline_before = inline_runs();
  const std::uint64_t pool_before = pool_runs();
  constexpr int kConns = 2;  // accepted round-robin: one per io loop
  constexpr int kMinRounds = 60;
  constexpr int kDepth = 8;  // requests per burst, alternating keys
  // Rounds start together, with the pool drained: the first requests of a
  // round are claimed inline, and the ones racing them queue in the pool.
  // Run times are wall clock, so on a loaded machine runs can read over
  // budget for a while: go on until both paths were taken (bounded).
  const auto give_up = Clock::now() + 20s;
  std::atomic<bool> more{true};
  int rounds = 0;
  std::barrier round_start(kConns, [&]() noexcept {
    more = rounds < kMinRounds ||
           ((inline_runs() == inline_before || pool_runs() == pool_before) &&
            Clock::now() < give_up);
    ++rounds;
  });
  std::vector<std::thread> clients;
  std::atomic<int> bad_replies{0};
  std::atomic<int> sent[kConns] = {};
  for (int c = 0; c < kConns; ++c) {
    clients.emplace_back([&, c] {
      Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
      std::int32_t seq_hot = 0;
      std::int32_t seq_other = 0;
      std::uint64_t id = 0;
      for (;;) {
        wait_pool_idle(server);
        round_start.arrive_and_wait();
        if (!more) break;
        sent[c] += kDepth;
        std::vector<std::byte> burst;
        for (int i = 0; i < kDepth; ++i) {
          const bool to_hot = i % 2 == 0;
          const auto frame = encode_request(make_add_request(
              to_hot ? hot : other, ++id, c,
              to_hot ? ++seq_hot : ++seq_other));
          burst.insert(burst.end(), frame.begin(), frame.end());
        }
        socket.send_bytes(burst);
        for (int i = 0; i < kDepth; ++i)
          if (recv_reply(socket).status != ReplyStatus::no_exception)
            bad_replies.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_EQ(hammered->calls(), (sent[0] + sent[1]) / 2);
  EXPECT_EQ(beside->calls(), (sent[0] + sent[1]) / 2);
  EXPECT_EQ(hammered->overlaps(), 0) << "two runs of one key overlapped";
  EXPECT_EQ(beside->overlaps(), 0);
  EXPECT_EQ(hammered->disorders(), 0) << "a connection's requests reordered";
  EXPECT_EQ(beside->disorders(), 0);
  EXPECT_GT(inline_runs(), inline_before) << "nothing ran inline";
  EXPECT_GT(pool_runs(), pool_before) << "nothing ran on the pool";
}

// --- (b) a nested call into the same server hands the loop off --------------

/// Calls `target` (an object of its own ORB) over TCP on the first call
/// after arm(); every other call just adds.
class CallsBackWhenArmed : public corbaft_test::CalcSkeleton {
 public:
  explicit CallsBackWhenArmed(ObjectRef target) : target_(std::move(target)) {}
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    ++calls_;
    if (armed_.exchange(false))
      return corbaft_test::CalcStub(target_).add(a, b) + 1000;
    return a + b;
  }
  std::string echo(const std::string& s) override { return s; }
  void fail() override {}
  std::int64_t calls() const override { return calls_.load(); }

  void arm() { armed_ = true; }

 private:
  ObjectRef target_;  // holds its ORB weakly
  std::atomic<bool> armed_{false};
  std::atomic<std::int64_t> calls_{0};
};

TEST(InlineDispatchTest, NestedCallIntoTheSameServerHandsTheLoopOff) {
  // One io loop.  After fast runs, the armed call runs inline and calls
  // back into this server: only a fresh thread on the loop can read the
  // nested request.  Without the hand-off the nested call times out.
  auto server = ORB::init(
      {.endpoint_name = "inline-nested",
       .enable_tcp = true,
       .tcp_client = {.request_timeout_s = 4.0},
       .io_threads = 1});
  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  std::uint64_t id = 0;
  bool handed_off = false;
  // A servant that called out from a pool run is flagged too and never
  // runs inline again, so each attempt takes fresh objects.
  for (int attempt = 0; attempt < 10 && !handed_off; ++attempt) {
    const ObjectRef callee = server->activate(std::make_shared<CalcServant>());
    auto servant = std::make_shared<CallsBackWhenArmed>(callee);
    const IOR caller = server->activate(servant).ior();
    if (!warm_until_inline(socket, server, caller, id)) continue;
    servant->arm();
    const std::uint64_t handoffs_before =
        counter_value("orb.dispatch.loop_handoffs_total");
    const auto started = Clock::now();
    EXPECT_EQ(call_add(socket, caller, ++id, 20, 22), 1042);
    EXPECT_LT(Clock::now() - started, 2s) << "the nested call waited for a "
                                             "loop that was running its caller";
    handed_off = counter_value("orb.dispatch.loop_handoffs_total") ==
                 handoffs_before + 1;
    if (!handed_off) continue;  // the armed call went to the pool

    // Flagged as calling out: the next call goes to the pool, and the
    // loop's new thread keeps serving.
    wait_pool_idle(server);
    const std::uint64_t inline_before = inline_runs();
    EXPECT_EQ(call_add(socket, caller, ++id, 1, 1), 2);
    EXPECT_EQ(inline_runs(), inline_before);
  }
  EXPECT_TRUE(handed_off) << "no armed call ran inline";
  server->shutdown();
}

// --- (c) after a slow run the key goes back to the pool ---------------------

/// add(mode, b): mode 1 sleeps 30 ms; mode 2 blocks until open() (or 5 s).
class GatedServant : public corbaft_test::CalcSkeleton {
 public:
  std::int32_t add(std::int32_t mode, std::int32_t b) override {
    ++calls_;
    if (mode == 1) std::this_thread::sleep_for(30ms);
    if (mode == 2) {
      std::unique_lock lock(mu_);
      cv_.wait_for(lock, 5s, [this] { return open_; });
    }
    return mode + b;
  }
  std::string echo(const std::string& s) override { return s; }
  void fail() override {}
  std::int64_t calls() const override { return calls_.load(); }

  void open() {
    std::lock_guard lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::atomic<std::int64_t> calls_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(InlineDispatchTest, SlowRunSendsTheKeysNextRequestToThePool) {
  auto server = ORB::init({.endpoint_name = "inline-slow",
                           .enable_tcp = true,
                           .io_threads = 1});
  auto gated = std::make_shared<GatedServant>();
  const IOR slow = server->activate(gated).ior();
  const IOR fast = server->activate(std::make_shared<CalcServant>()).ior();

  Socket first = Socket::connect("127.0.0.1", server->tcp_port());
  Socket second = Socket::connect("127.0.0.1", server->tcp_port());
  std::uint64_t id = 0;
  // One 30 ms run, inline (the runs before it were fast).
  bool slow_ran_inline = false;
  for (int attempt = 0; attempt < 10 && !slow_ran_inline; ++attempt) {
    if (!warm_until_inline(first, server, slow, id)) continue;
    const std::uint64_t inline_before = inline_runs();
    EXPECT_EQ(call_add(first, slow, ++id, 1, 1), 2);
    slow_ran_inline = inline_runs() == inline_before + 1;
    wait_pool_idle(server);
  }
  ASSERT_TRUE(slow_ran_inline);

  // The key's last run blew the budget, so this blocking run goes to the
  // pool, and the loop stays free to answer the other connection.
  first.send_bytes(encode_request(make_add_request(slow, ++id, 2, 2)));
  const std::uint64_t blocked_id = id;
  std::this_thread::sleep_for(20ms);
  const auto sent = Clock::now();
  EXPECT_EQ(call_add(second, fast, ++id, 20, 22), 42);
  EXPECT_LT(Clock::now() - sent, 2s) << "the fast call waited for the slow run";
  gated->open();
  const ReplyMessage reply = recv_reply(first);
  EXPECT_EQ(reply.request_id, blocked_id);
  EXPECT_EQ(reply.result_or_throw().as_i32(), 4);
}

// --- after a hand-off the rest of the batch answers at once ----------------

TEST(InlineDispatchTest, RepliesAfterAHandOffDoNotWaitForALaterNestedCall) {
  // One io loop and one batch of three inline runs: the first calls out
  // (hand-off), the second is a plain add, the third calls out into a
  // servant that blocks until this test has seen the first two replies.
  // Those replies must not wait in the batch's burst behind the third run.
  auto server = ORB::init(
      {.endpoint_name = "inline-after-handoff",
       .enable_tcp = true,
       .tcp_client = {.request_timeout_s = 8.0},
       .io_threads = 1});
  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  std::uint64_t id = 0;
  bool all_inline = false;
  for (int attempt = 0; attempt < 10 && !all_inline; ++attempt) {
    auto gate = std::make_shared<GatedServant>();
    auto first = std::make_shared<CallsBackWhenArmed>(
        server->activate(std::make_shared<CalcServant>()));
    auto third = std::make_shared<CallsBackWhenArmed>(server->activate(gate));
    const IOR first_ior = server->activate(first).ior();
    const IOR plain = server->activate(std::make_shared<CalcServant>()).ior();
    const IOR third_ior = server->activate(third).ior();
    if (!warm_until_inline(socket, server, first_ior, id) ||
        !warm_until_inline(socket, server, plain, id) ||
        !warm_until_inline(socket, server, third_ior, id))
      continue;
    first->arm();
    third->arm();
    const std::uint64_t inline_before = inline_runs();
    std::vector<std::byte> burst;
    for (const auto& request :
         {make_add_request(first_ior, ++id, 1, 1),
          make_add_request(plain, ++id, 20, 22),
          make_add_request(third_ior, ++id, 2, 0)}) {
      const auto frame = encode_request(request);
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    socket.send_bytes(burst);
    // The gate opens on its own after 5 s; well before that, the first two
    // replies must be here.
    const auto sent = Clock::now();
    EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 1002);
    EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 42);
    const auto waited = Clock::now() - sent;
    gate->open();
    EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 1002);
    wait_pool_idle(server);
    all_inline = inline_runs() >= inline_before + 3;
    if (all_inline) {
      EXPECT_LT(waited, 2s) << "replies waited for a later run's nested call";
    }
  }
  EXPECT_TRUE(all_inline) << "the three runs never shared one inline batch";
  server->shutdown();
}

// --- (d) a burst of inline replies leaves in one sendmsg --------------------

void expect_one_flush_for_a_warmed_burst(bool with_session) {
  constexpr int kObjects = 7;
  auto server = ORB::init({.endpoint_name = "inline-burst",
                           .enable_tcp = true,
                           .io_threads = 1});
  std::vector<IOR> targets;
  for (int i = 0; i < kObjects; ++i)
    targets.push_back(server->activate(std::make_shared<CalcServant>()).ior());

  Socket socket = Socket::connect("127.0.0.1", server->tcp_port());
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
  const auto request = [&](const IOR& target) {
    RequestMessage req = make_add_request(target, ++id, 40, 2);
    if (with_session) attach_session_context(req, {.seq = ++seq, .ack = 0});
    return encode_request(req);
  };
  if (with_session) {
    CdrOutputStream hello_body;
    SessionHello{.session_id = 0, .highest_reply_seq = 0}.encode_body(
        hello_body);
    socket.send_bytes(encode_frame(MessageType::session_hello, hello_body));
    MessageHeader header;
    std::vector<std::byte> body;
    ASSERT_TRUE(socket.recv_frame(header, body, 5.0));
    ASSERT_EQ(header.type, MessageType::session_accept);
  }
  // Warm every object: its first run goes to the pool and is timed.
  for (int i = 0; i < kObjects; ++i) {
    socket.send_bytes(request(targets[i]));
    EXPECT_EQ(recv_reply(socket).result_or_throw().as_i32(), 42);
    wait_pool_idle(server);
  }

  // A burst whose runs all stay inline is written once.  A run that reads
  // over budget sends its key's next request to the pool, so on a loaded
  // machine a burst may need repeating before all seven run inline.
  bool all_inline = false;
  for (int attempt = 0; attempt < 20 && !all_inline; ++attempt) {
    // The previous attempt's inline write may still be counted after its
    // replies arrived.
    std::this_thread::sleep_for(20ms);
    const std::uint64_t flushes_before =
        counter_value("transport.tcp.reply_flushes_total");
    const std::uint64_t inline_before = inline_runs();
    std::vector<std::byte> burst;
    const std::uint64_t first_id = id + 1;
    for (int i = 0; i < kObjects; ++i) {
      const auto frame = request(targets[i]);
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    socket.send_bytes(burst);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < kObjects; ++i) {
      const ReplyMessage reply = recv_reply(socket);
      ids.push_back(reply.request_id);
      EXPECT_EQ(reply.result_or_throw().as_i32(), 42);
    }
    wait_pool_idle(server);
    all_inline = inline_runs() == inline_before + kObjects;
    if (!all_inline) continue;
    for (int i = 0; i < kObjects; ++i)
      EXPECT_EQ(ids[i], first_id + i) << "inline replies leave in run order";
    // The loop counts a write after sendmsg returns, which can be after the
    // replies arrived here: let it settle before counting.
    const auto deadline = Clock::now() + 2s;
    while (counter_value("transport.tcp.reply_flushes_total") ==
               flushes_before &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(counter_value("transport.tcp.reply_flushes_total"),
              flushes_before + 1);
  }
  EXPECT_TRUE(all_inline) << "no burst ran fully inline";
}

TEST(InlineDispatchTest, WarmedBurstIsWrittenWithOneSendmsg) {
  expect_one_flush_for_a_warmed_burst(/*with_session=*/false);
}

TEST(InlineDispatchTest, WarmedSessionBurstIsWrittenWithOneSendmsg) {
  expect_one_flush_for_a_warmed_burst(/*with_session=*/true);
}

// --- the always-inline mode is gone ------------------------------------------

TEST(InlineDispatchTest, ZeroDispatchThreadsIsRejectedWithTcp) {
  EXPECT_THROW(ORB::init({.endpoint_name = "no-pool",
                          .enable_tcp = true,
                          .dispatch_threads = 0}),
               BAD_PARAM);
}

}  // namespace
}  // namespace corba
