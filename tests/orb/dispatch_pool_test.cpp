// DispatchPool unit tests: FIFO-per-key ordering, cross-key parallelism,
// bounded-queue refusal with its space callback, drain-on-stop semantics,
// and the inline-claim rule.
#include "orb/dispatch_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "orb/exceptions.hpp"

namespace corba {
namespace {

using namespace std::chrono_literals;

ObjectKey key_of(std::string_view name) {
  return ObjectKey::from_string(name);
}

RequestMessage request_for(std::string_view key, std::uint64_t id,
                           bool response_expected = true) {
  RequestMessage req;
  req.request_id = id;
  req.object_key = key_of(key);
  req.operation = "op";
  req.response_expected = response_expected;
  return req;
}

/// try_submit for a pool known to have room: the request must be taken.
void submit(DispatchPool& pool, RequestMessage request,
            DispatchPool::Completion done = {}) {
  ASSERT_TRUE(pool.try_submit(request, done)) << "pool unexpectedly full";
}

TEST(DispatchPoolTest, ExecutesAndCompletes) {
  DispatchPool pool({.threads = 2}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value(std::int32_t(7)));
  });
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ReplyMessage got;
  submit(pool, request_for("a", 1), [&](ReplyMessage reply, bool) {
    std::lock_guard lock(mu);
    got = std::move(reply);
    done = true;
    cv.notify_one();
  });
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return done; }));
  EXPECT_EQ(got.request_id, 1u);
  EXPECT_EQ(got.result_or_throw().as_i32(), 7);
  pool.stop();
  EXPECT_EQ(pool.dispatched(), 1u);
}

TEST(DispatchPoolTest, FifoPerObjectKey) {
  // Many workers, one key: execution must still be serial and in order.
  std::mutex mu;
  std::vector<std::uint64_t> order;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  DispatchPool pool({.threads = 8}, [&](const RequestMessage& req) {
    const int now = concurrent.fetch_add(1) + 1;
    int expected = max_concurrent.load();
    while (now > expected &&
           !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(1ms);
    {
      std::lock_guard lock(mu);
      order.push_back(req.request_id);
    }
    concurrent.fetch_sub(1);
    return ReplyMessage::make_result(req.request_id, Value());
  });
  constexpr std::uint64_t kCalls = 64;
  for (std::uint64_t i = 0; i < kCalls; ++i)
    submit(pool, request_for("serial", i));
  pool.stop();  // drains before joining
  ASSERT_EQ(order.size(), kCalls);
  for (std::uint64_t i = 0; i < kCalls; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(max_concurrent.load(), 1);
}

TEST(DispatchPoolTest, DistinctKeysRunInParallel) {
  // Two keys, two workers: a request blocked on key A must not stop key B.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> b_done{false};
  DispatchPool pool({.threads = 2}, [&](const RequestMessage& req) {
    if (req.object_key == key_of("a")) {
      std::unique_lock lock(mu);
      cv.wait_for(lock, 5s, [&] { return release; });
    } else {
      b_done.store(true);
    }
    return ReplyMessage::make_result(req.request_id, Value());
  });
  submit(pool, request_for("a", 1));
  submit(pool, request_for("b", 2));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!b_done.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(b_done.load()) << "key b was stuck behind key a";
  {
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  }
  pool.stop();
}

TEST(DispatchPoolTest, BacklogReportsOtherRunnableJobs) {
  // One worker held on key "gate" while "b" and "c" queue up: "b" is picked
  // up with "c" runnable (backlog), "c" with nothing behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  DispatchPool pool({.threads = 1}, [&](const RequestMessage& req) {
    if (req.object_key == key_of("gate")) {
      std::unique_lock lock(mu);
      cv.wait_for(lock, 5s, [&] { return release; });
    }
    return ReplyMessage::make_result(req.request_id, Value());
  });
  std::map<std::uint64_t, bool> backlog;
  auto record = [&](ReplyMessage reply, bool more) {
    std::lock_guard lock(mu);
    backlog[reply.request_id] = more;
  };
  submit(pool, request_for("gate", 1), record);
  submit(pool, request_for("b", 2), record);
  submit(pool, request_for("c", 3), record);
  {
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  }
  pool.stop();
  EXPECT_TRUE(backlog.at(2));
  EXPECT_FALSE(backlog.at(3));
}

TEST(DispatchPoolTest, TrySubmitRefusesAtLimitAndRingsSpaceOnce) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  DispatchPool pool({.threads = 1, .queue_limit = 2},
                    [&](const RequestMessage& req) {
                      std::unique_lock lock(mu);
                      cv.wait_for(lock, 5s, [&] { return release; });
                      return ReplyMessage::make_result(req.request_id, Value());
                    });
  std::atomic<int> rings{0};
  pool.set_space_callback([&] { rings.fetch_add(1); });
  submit(pool, request_for("k", 1));  // executing (blocked in dispatch)
  submit(pool, request_for("k", 2));  // queued; pool is now full

  // Refused at the limit, and again: the caller keeps the request and its
  // completion for a later retry.
  std::atomic<bool> completed{false};
  RequestMessage third = request_for("k", 3);
  DispatchPool::Completion done = [&](ReplyMessage, bool) {
    completed.store(true);
  };
  EXPECT_FALSE(pool.try_submit(third, done));
  EXPECT_FALSE(pool.try_submit(third, done));
  EXPECT_EQ(third.request_id, 3u);
  EXPECT_EQ(third.object_key, key_of("k"));
  EXPECT_EQ(third.operation, "op");
  EXPECT_TRUE(static_cast<bool>(done));
  EXPECT_EQ(pool.depth(), 2u);
  EXPECT_EQ(rings.load(), 0);

  {
    std::lock_guard lock(mu);
    release = true;
    cv.notify_all();
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (pool.dispatched() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  ASSERT_EQ(pool.dispatched(), 2u);
  // Both freed slots came after one refusal episode: exactly one ring.
  EXPECT_EQ(rings.load(), 1);

  // The retry is taken and completes with the original completion.
  EXPECT_TRUE(pool.try_submit(third, done));
  pool.stop();
  EXPECT_TRUE(completed.load());
  EXPECT_EQ(pool.dispatched(), 3u);
  EXPECT_EQ(rings.load(), 1);
}

TEST(DispatchPoolTest, StopDrainsQueuedWork) {
  std::atomic<int> executed{0};
  DispatchPool pool({.threads = 1}, [&](const RequestMessage& req) {
    std::this_thread::sleep_for(1ms);
    executed.fetch_add(1);
    return ReplyMessage::make_result(req.request_id, Value());
  });
  for (std::uint64_t i = 0; i < 20; ++i) submit(pool, request_for("k", i));
  pool.stop();
  EXPECT_EQ(executed.load(), 20);
  EXPECT_EQ(pool.depth(), 0u);
}

TEST(DispatchPoolTest, SubmitAfterStopThrows) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  pool.stop();
  RequestMessage request = request_for("k", 1);
  DispatchPool::Completion done;
  EXPECT_THROW(pool.try_submit(request, done), BAD_INV_ORDER);
}

TEST(DispatchPoolTest, CompletionExceptionIsSwallowed) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  submit(pool, request_for("k", 1), [](ReplyMessage, bool) {
    throw std::runtime_error("dead connection");
  });
  pool.stop();  // must not terminate / rethrow
  EXPECT_EQ(pool.dispatched(), 1u);
}

TEST(DispatchPoolTest, OnewayGetsNoCompletion) {
  std::atomic<bool> completed{false};
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  RequestMessage req = request_for("k", 1, /*response_expected=*/false);
  submit(pool, std::move(req),
         [&](ReplyMessage, bool) { completed.store(true); });
  pool.stop();
  EXPECT_FALSE(completed.load());
  EXPECT_EQ(pool.dispatched(), 1u);
}

/// Runs one job for `key` on the pool and waits until the pool is idle, so
/// the key's run profile is recorded.
void run_once(DispatchPool& pool, std::string_view key, std::uint64_t id) {
  std::atomic<bool> done{false};
  submit(pool, request_for(key, id),
         [&](ReplyMessage, bool) { done.store(true); });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while ((!done.load() || pool.depth() != 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
}

/// Runs pool jobs for `key` until one is timed under the inline budget
/// (run times are wall clock: a cold or sanitized run can read slow), and
/// returns with the key unclaimed and claimable.
bool make_claimable(DispatchPool& pool, std::string_view key) {
  for (std::uint64_t id = 100; id < 200; ++id) {
    run_once(pool, key, id);
    if (pool.try_claim(key_of(key))) {
      pool.release_claim(key_of(key), 0.0, 1e-6, /*called_out=*/false);
      return true;
    }
  }
  return false;
}

TEST(DispatchPoolTest, ClaimNeedsAFastTimedRunAndAnIdlePool) {
  std::atomic<bool> hold{false};
  std::atomic<bool> held{false};
  DispatchPool pool({.threads = 1}, [&](const RequestMessage& req) {
    if (req.object_key == key_of("gate"))
      while (hold.load()) {
        held.store(true);
        std::this_thread::sleep_for(1ms);
      }
    return ReplyMessage::make_result(req.request_id, Value());
  });
  EXPECT_FALSE(pool.try_claim(key_of("a"))) << "never run";
  ASSERT_TRUE(make_claimable(pool, "a"));
  ASSERT_TRUE(pool.try_claim(key_of("a")));
  EXPECT_FALSE(pool.try_claim(key_of("a"))) << "already claimed";
  pool.release_claim(key_of("a"), 0.0, 1e-6, /*called_out=*/false);
  ASSERT_TRUE(pool.try_claim(key_of("a")));
  pool.release_claim(key_of("a"), 0.0, 2 * DispatchPool::kInlineBudget, false);
  EXPECT_FALSE(pool.try_claim(key_of("a"))) << "last run over budget";
  // A pool run timed under budget makes it eligible again.
  ASSERT_TRUE(make_claimable(pool, "a"));

  // Any pool job queued or running rules every claim out.
  hold.store(true);
  submit(pool, request_for("gate", 3));
  while (!held.load()) std::this_thread::sleep_for(1ms);
  EXPECT_FALSE(pool.try_claim(key_of("a"))) << "pool busy";
  hold.store(false);
  pool.stop();
  EXPECT_FALSE(pool.try_claim(key_of("a"))) << "pool stopped";
}

TEST(DispatchPoolTest, KeyThatCalledOutIsNeverClaimedAgain) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    return ReplyMessage::make_result(req.request_id, Value());
  });
  ASSERT_TRUE(make_claimable(pool, "a"));
  ASSERT_TRUE(pool.try_claim(key_of("a")));
  pool.release_claim(key_of("a"), 0.0, 1e-6, /*called_out=*/true);
  run_once(pool, "a", 2);
  EXPECT_FALSE(pool.try_claim(key_of("a")));
}

TEST(DispatchPoolTest, PoolRunThatCallsOutFlagsItsKey) {
  DispatchPool pool({.threads = 1}, [](const RequestMessage& req) {
    if (req.request_id == 2) ServantRun::note_call_out();
    return ReplyMessage::make_result(req.request_id, Value());
  });
  ASSERT_TRUE(make_claimable(pool, "a"));
  run_once(pool, "a", 2);
  EXPECT_FALSE(pool.try_claim(key_of("a")));
}

TEST(DispatchPoolTest, JobsQueuedBehindAClaimRunAfterItsRelease) {
  std::mutex mu;
  std::vector<std::uint64_t> ran;
  DispatchPool pool({.threads = 2}, [&](const RequestMessage& req) {
    std::lock_guard lock(mu);
    ran.push_back(req.request_id);
    return ReplyMessage::make_result(req.request_id, Value());
  });
  ASSERT_TRUE(make_claimable(pool, "a"));
  ASSERT_TRUE(pool.try_claim(key_of("a")));
  {
    std::lock_guard lock(mu);
    ran.clear();
  }
  submit(pool, request_for("a", 2));
  submit(pool, request_for("b", 3));  // another key is not held up
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (pool.depth() != 1 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(20ms);
  {
    std::lock_guard lock(mu);
    EXPECT_EQ(ran, (std::vector<std::uint64_t>{3}))
        << "a job ran while its key was claimed";
  }
  pool.release_claim(key_of("a"), 0.0, 1e-6, false);
  pool.stop();
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{3, 2}));
}

}  // namespace
}  // namespace corba
