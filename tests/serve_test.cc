// Tests for the batched inference serving runtime (src/serve).
//
// The central contract: a request served through the continuous-batching
// scheduler returns exactly the tokens that sample::GenerateCached would
// produce for the same prompt/options/seed on a dedicated session —
// whatever else shares the batch. Plus unit coverage for the queue, the
// KV pool, the worker pool, and the server's admission/cancel/deadline/
// shutdown/stats behavior. Registered under the `serve` ctest label so
// the TSan preset can run the suite in isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sample/sampler.h"
#include "serve/inference_server.h"
#include "serve/kv_cache_pool.h"
#include "serve/request_queue.h"
#include "serve/worker_pool.h"
#include "util/fault.h"

namespace llm::serve {
namespace {

// --- RequestQueue ----------------------------------------------------------

std::shared_ptr<RequestState> MakeState(RequestId id) {
  auto state = std::make_shared<RequestState>();
  state->id = id;
  return state;
}

TEST(RequestQueueTest, BoundedFifoAndRejection) {
  RequestQueue queue(2);
  EXPECT_TRUE(queue.Push(MakeState(1)).ok());
  EXPECT_TRUE(queue.Push(MakeState(2)).ok());
  const util::Status full = queue.Push(MakeState(3));
  EXPECT_EQ(full.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.size(), 2u);

  std::shared_ptr<RequestState> state;
  ASSERT_TRUE(queue.TryPop(&state));
  EXPECT_EQ(state->id, 1u);  // FIFO
  ASSERT_TRUE(queue.TryPop(&state));
  EXPECT_EQ(state->id, 2u);
  EXPECT_FALSE(queue.TryPop(&state));
}

TEST(RequestQueueTest, CloseRejectsPushAndWakesWaiters) {
  RequestQueue queue(4);
  std::thread waiter([&] {
    std::shared_ptr<RequestState> state;
    EXPECT_FALSE(queue.WaitPop(&state));  // closed and empty
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Close();
  waiter.join();
  EXPECT_EQ(queue.Push(MakeState(9)).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(RequestQueueTest, WaitPopDeliversAcrossThreads) {
  RequestQueue queue(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(queue.Push(MakeState(7)).ok());
  });
  std::shared_ptr<RequestState> state;
  ASSERT_TRUE(queue.WaitPop(&state));
  EXPECT_EQ(state->id, 7u);
  producer.join();
}

// --- KvCachePool -----------------------------------------------------------

TEST(KvCachePoolTest, LeasesAllSlotsThenExhausts) {
  nn::GPTConfig cfg;
  cfg.vocab_size = 7;
  cfg.max_seq_len = 8;
  cfg.d_model = 16;
  cfg.n_layer = 2;
  cfg.n_head = 2;
  KvCachePool pool(cfg, 3);
  EXPECT_EQ(pool.free_count(), 3);
  EXPECT_GT(pool.bytes(), 0u);

  std::vector<int64_t> slots;
  for (int i = 0; i < 3; ++i) {
    const int64_t slot = pool.Acquire();
    ASSERT_GE(slot, 0);
    slots.push_back(slot);
  }
  EXPECT_EQ(pool.Acquire(), -1);  // exhausted
  EXPECT_EQ(pool.free_count(), 0);

  // Views are per-slot/per-layer distinct storage.
  for (size_t a = 0; a < slots.size(); ++a) {
    for (size_t b = a + 1; b < slots.size(); ++b) {
      EXPECT_NE(pool.slot_views(slots[a])[0].keys,
                pool.slot_views(slots[b])[0].keys);
    }
    EXPECT_NE(pool.slot_views(slots[a])[0].keys,
              pool.slot_views(slots[a])[1].keys);
    EXPECT_NE(pool.slot_views(slots[a])[0].keys,
              pool.slot_views(slots[a])[0].values);
  }

  pool.Release(slots[1]);
  EXPECT_EQ(pool.free_count(), 1);
  EXPECT_EQ(pool.Acquire(), slots[1]);  // recycled, not reallocated
}

// --- WorkerPool ------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {0, 1, 3}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.lanes(), threads > 0 ? threads : 1);
    std::vector<std::atomic<int>> hits(17);
    for (auto& h : hits) h.store(0);
    pool.Run(17, [&](int64_t i, int lane) {
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, pool.lanes());
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(WorkerPoolTest, BackToBackRunsAreIsolated) {
  WorkerPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.Run(round % 5, [&](int64_t i, int) { sum.fetch_add(i + 1); });
    const int64_t n = round % 5;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

// Forces the late-wake interleaving deterministically: one worker is
// signalled for run E but reacquires the pool lock only after Run(E) has
// returned, and would reach its claim loop only once Run(E+1) has reset the
// claim cursor. It must sit E out and then serve E+1 with E+1's fn; a
// worker that joined the finished run would claim E+1's index 1 through
// the null fn of run E.
TEST(WorkerPoolTest, LateWakerSitsOutCompletedRun) {
  using Point = WorkerPool::WakePoint;
  WorkerPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int late_lane = -1;         // the worker held at kWoken during run E
  bool run_returned = false;  // Run(E) has returned
  bool relocked = false;      // the late worker holds the pool lock again
  bool next_started = false;  // run E+1 has claimed index 0
  bool second_claimed = false;
  pool.SetWakeHookForTesting([&](int lane, Point point) {
    std::unique_lock<std::mutex> lock(mu);
    if (point == Point::kWoken && late_lane == -1) {
      late_lane = lane;
      cv.wait(lock, [&] { return run_returned; });
    } else if (point == Point::kRelocked && lane == late_lane && !relocked) {
      relocked = true;
      cv.notify_all();
    } else if (point == Point::kClaiming && lane == late_lane) {
      cv.wait(lock, [&] { return next_started; });
    }
  });

  std::vector<std::atomic<int>> first_hits(2);
  for (auto& h : first_hits) h.store(0);
  pool.Run(2, [&](int64_t i, int lane) {
    first_hits[static_cast<size_t>(i)].fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_NE(lane, late_lane);
  });
  for (const auto& h : first_hits) EXPECT_EQ(h.load(), 1);
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_NE(late_lane, -1);
    run_returned = true;
    cv.notify_all();
    // The late worker now holds the pool lock, so Run(E+1) below can only
    // publish its run after the worker has read the finished one.
    cv.wait(lock, [&] { return relocked; });
  }

  std::vector<std::atomic<int>> hits(2);
  for (auto& h : hits) h.store(0);
  pool.Run(2, [&](int64_t i, int) {
    hits[static_cast<size_t>(i)].fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      // Hold index 0 until another claim lands, so the late worker's claim
      // is guaranteed to draw index 1 while the run is still open.
      next_started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return second_claimed; });
    } else {
      second_claimed = true;
      cv.notify_all();
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- InferenceServer -------------------------------------------------------

nn::GPTConfig SmallConfig() {
  nn::GPTConfig cfg;
  cfg.vocab_size = 19;
  cfg.max_seq_len = 16;
  cfg.d_model = 24;
  cfg.n_layer = 2;
  cfg.n_head = 3;
  return cfg;
}

GenerateRequest MakeRequest(std::vector<int64_t> prompt, uint64_t seed,
                            int64_t max_new = 8) {
  GenerateRequest request;
  request.prompt = std::move(prompt);
  request.seed = seed;
  request.max_new_tokens = max_new;
  request.sampler.temperature = 0.8f;
  request.sampler.top_k = 7;
  return request;
}

std::vector<int64_t> SingleStreamReference(const nn::GPTModel& model,
                                           const GenerateRequest& request) {
  sample::GenerateOptions opts;
  opts.max_new_tokens = request.max_new_tokens;
  opts.sampler = request.sampler;
  opts.stop_token = request.stop_token;
  util::Rng rng(request.seed);
  return sample::GenerateCached(model, request.prompt, opts, &rng);
}

TEST(InferenceServerTest, MoreRequestsThanSlotsAllMatchSingleStream) {
  // 9 concurrent requests through 3 KV slots: continuous batching must
  // recycle slots mid-flight, and every request must still get the exact
  // tokens a dedicated single-stream session would have produced.
  util::Rng rng(31);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 3;
  options.num_workers = 2;
  options.queue_capacity = 32;
  InferenceServer server(&model, options);
  server.Start();

  std::vector<GenerateRequest> requests;
  requests.push_back(MakeRequest({3, 1, 4, 1, 5}, 1));
  requests.push_back(MakeRequest({2, 7}, 2, 12));
  requests.push_back(MakeRequest({9, 9, 8, 2, 6, 5, 3}, 3));
  requests.push_back(MakeRequest({0}, 4, 15));  // runs into the window
  requests.push_back(MakeRequest({11, 16, 13}, 5));
  requests.push_back(MakeRequest({1}, 6, 3));
  {
    GenerateRequest greedy = MakeRequest({5, 5, 5}, 7);
    greedy.sampler = sample::SamplerOptions{0.0f, 0, 0.0f};
    requests.push_back(std::move(greedy));
  }
  {
    GenerateRequest nucleus = MakeRequest({8, 2}, 8, 10);
    nucleus.sampler = sample::SamplerOptions{1.1f, 0, 0.9f};
    requests.push_back(std::move(nucleus));
  }
  requests.push_back(MakeRequest({4, 4, 4, 4}, 9, 6));

  std::vector<RequestId> ids;
  for (const auto& request : requests) {
    auto id = server.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    auto result = server.Wait(ids[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().status.ok());
    EXPECT_EQ(result.value().tokens,
              SingleStreamReference(model, requests[i]))
        << "request " << i;
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, requests.size());
  EXPECT_EQ(stats.active_slots, 0);
}

TEST(InferenceServerTest, StopTokenAndFinishReasons) {
  util::Rng rng(32);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  // Greedy-probe the first generated token, then use it as a stop token.
  GenerateRequest probe = MakeRequest({6, 2}, 0, 1);
  probe.sampler = sample::SamplerOptions{0.0f, 0, 0.0f};
  RequestResult probed = server.GenerateBlocking(probe);
  ASSERT_TRUE(probed.status.ok());
  ASSERT_EQ(probed.tokens.size(), 1u);
  EXPECT_EQ(probed.reason, FinishReason::kLength);

  GenerateRequest stop_request = probe;
  stop_request.max_new_tokens = 10;
  stop_request.stop_token = probed.tokens[0];
  RequestResult stopped = server.GenerateBlocking(stop_request);
  ASSERT_TRUE(stopped.status.ok());
  EXPECT_EQ(stopped.reason, FinishReason::kStop);
  EXPECT_EQ(stopped.tokens, probed.tokens);

  // A request that outruns the model window finishes with kWindow.
  GenerateRequest window_request = MakeRequest({1}, 3, 100);
  RequestResult windowed = server.GenerateBlocking(window_request);
  ASSERT_TRUE(windowed.status.ok());
  EXPECT_EQ(windowed.reason, FinishReason::kWindow);
  EXPECT_EQ(windowed.tokens, SingleStreamReference(model, window_request));
}

TEST(InferenceServerTest, StreamsEveryTokenInOrder) {
  util::Rng rng(33);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  std::vector<int64_t> streamed;
  std::mutex streamed_mu;
  GenerateRequest request = MakeRequest({2, 3, 5, 7}, 17, 9);
  request.on_token = [&](RequestId, int64_t token) {
    std::lock_guard<std::mutex> lock(streamed_mu);
    streamed.push_back(token);
  };
  RequestResult result = server.GenerateBlocking(request);
  ASSERT_TRUE(result.status.ok());
  std::lock_guard<std::mutex> lock(streamed_mu);
  EXPECT_EQ(streamed, result.tokens);
}

TEST(InferenceServerTest, SubmitValidationAndZeroLengthRequests) {
  util::Rng rng(34);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  EXPECT_EQ(server.Submit(MakeRequest({}, 1)).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(
      server.Submit(MakeRequest(std::vector<int64_t>(17, 1), 1)).status().code(),
      util::StatusCode::kInvalidArgument);  // prompt longer than the window
  EXPECT_EQ(server.Submit(MakeRequest({19}, 1)).status().code(),
            util::StatusCode::kInvalidArgument);  // token out of vocabulary
  EXPECT_EQ(server.Submit(MakeRequest({-1}, 1)).status().code(),
            util::StatusCode::kInvalidArgument);

  GenerateRequest empty_gen = MakeRequest({1, 2}, 1, 0);
  RequestResult result = server.GenerateBlocking(empty_gen);
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(result.tokens.empty());
  EXPECT_EQ(result.reason, FinishReason::kLength);

  EXPECT_EQ(server.Wait(99999).status().code(), util::StatusCode::kNotFound);
}

TEST(InferenceServerTest, BoundedAdmissionRejectsWhenQueueFull) {
  util::Rng rng(35);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.queue_capacity = 3;
  InferenceServer server(&model, options);
  // Not started: the queue fills deterministically.
  std::vector<RequestId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = server.Submit(MakeRequest({1, 2}, static_cast<uint64_t>(i), 2));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  auto rejected = server.Submit(MakeRequest({1, 2}, 99, 2));
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.Stats().rejected, 1u);
  EXPECT_EQ(server.Stats().queue_depth, 3u);

  // Pre-Start submissions are served once the scheduler comes up.
  server.Start();
  for (RequestId id : ids) {
    auto result = server.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().status.ok());
    EXPECT_EQ(result.value().tokens.size(), 2u);
  }
}

TEST(InferenceServerTest, CancelQueuedRequestBeforeStart) {
  util::Rng rng(36);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  auto id = server.Submit(MakeRequest({1, 2, 3}, 5, 50));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(server.Cancel(id.value()));
  server.Start();
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kCancelled);
  EXPECT_EQ(result.value().status.code(), util::StatusCode::kCancelled);
  EXPECT_TRUE(result.value().tokens.empty());
  EXPECT_FALSE(server.Cancel(99999));  // unknown id
}

TEST(InferenceServerTest, CancelInFlightKeepsPartialOutput) {
  util::Rng rng(37);
  nn::GPTConfig cfg = SmallConfig();
  // A window this deep takes the scheduler thousands of ticks to exhaust,
  // so the cancel below always lands while the request is in flight.
  cfg.max_seq_len = 4096;
  nn::GPTModel model(cfg, &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  std::promise<void> first_token;
  std::atomic<bool> signalled{false};
  GenerateRequest request = MakeRequest({1, 2}, 11, 10000);
  request.on_token = [&](RequestId, int64_t) {
    if (!signalled.exchange(true)) first_token.set_value();
  };
  auto id = server.Submit(request);
  ASSERT_TRUE(id.ok());
  first_token.get_future().wait();
  EXPECT_TRUE(server.Cancel(id.value()));
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kCancelled);
  EXPECT_GE(result.value().tokens.size(), 1u);
  // The partial stream is still the exact single-stream prefix: replaying
  // the request with max_new_tokens == the partial length must reproduce
  // it token for token.
  GenerateRequest replay = request;
  replay.on_token = nullptr;
  replay.max_new_tokens = static_cast<int64_t>(result.value().tokens.size());
  EXPECT_EQ(result.value().tokens, SingleStreamReference(model, replay));
}

TEST(InferenceServerTest, QueuedDeadlineExpiresBeforeAdmission) {
  util::Rng rng(38);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  GenerateRequest request = MakeRequest({1, 2}, 3, 4);
  request.timeout = std::chrono::milliseconds(1);
  auto id = server.Submit(request);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Start();  // deadline already gone when the scheduler first looks
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kDeadline);
  EXPECT_EQ(result.value().status.code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.Stats().expired, 1u);
}

TEST(InferenceServerTest, ShutdownCancelsInFlightAndQueued) {
  util::Rng rng(39);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;  // keeps the in-flight request from finishing
  nn::GPTModel model(cfg, &rng);
  ServerOptions options;
  options.max_batch_size = 1;  // second request stays queued
  auto server = std::make_unique<InferenceServer>(&model, options);
  server->Start();

  std::promise<void> first_token;
  std::atomic<bool> signalled{false};
  GenerateRequest request = MakeRequest({1, 2}, 11, 10000);
  request.on_token = [&](RequestId, int64_t) {
    if (!signalled.exchange(true)) first_token.set_value();
  };
  auto in_flight = server->Submit(request);
  ASSERT_TRUE(in_flight.ok());
  first_token.get_future().wait();
  auto queued = server->Submit(MakeRequest({3, 4}, 12, 10000));
  ASSERT_TRUE(queued.ok());

  server->Shutdown();
  auto flight_result = server->Wait(in_flight.value());
  ASSERT_TRUE(flight_result.ok());
  EXPECT_EQ(flight_result.value().reason, FinishReason::kCancelled);
  EXPECT_GE(flight_result.value().tokens.size(), 1u);
  auto queued_result = server->Wait(queued.value());
  ASSERT_TRUE(queued_result.ok());
  EXPECT_EQ(queued_result.value().reason, FinishReason::kCancelled);

  // Post-shutdown submissions are refused.
  EXPECT_EQ(server->Submit(MakeRequest({1}, 1)).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(InferenceServerTest, StatsTrackThroughputAndLatency) {
  util::Rng rng(40);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 4;
  InferenceServer server(&model, options);
  server.Start();
  std::vector<RequestId> ids;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    auto id = server.Submit(MakeRequest({1, 2, 3}, seed, 5));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (RequestId id : ids) ASSERT_TRUE(server.Wait(id).ok());
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.total_tokens, 30u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_EQ(stats.total_slots, 4);
  EXPECT_GT(stats.tokens_per_sec, 0.0);
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.p99_latency_ms);
}

// --- Resilience ------------------------------------------------------------
//
// Fault-injection-driven coverage of the failure model (DESIGN.md §10):
// poisoned lanes, throwing callbacks, leaked slots, stalled ticks, drain,
// deadline shedding, and the cancel/shutdown races. Every test disarms the
// injector on exit so a failing assertion can't poison its neighbors.

class ServeResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { util::FaultInjector::Global().Disarm(); }
};

TEST_F(ServeResilienceTest, PoisonedLaneRetiresAloneOthersBitExact) {
  // Three requests share one batch; the first lane's logits are poisoned
  // with NaN at its first sampling step. That request must fail with
  // Internal — and the other two must still be bit-exact against the
  // single-stream reference, proving the poison never crossed lanes.
  util::Rng rng(50);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 3;
  options.num_workers = 0;  // deterministic occurrence order
  InferenceServer server(&model, options);

  std::vector<GenerateRequest> requests;
  requests.push_back(MakeRequest({3}, 1, 6));  // slot 0: poisoned
  requests.push_back(MakeRequest({5}, 2, 6));
  requests.push_back(MakeRequest({7}, 3, 6));
  std::vector<RequestId> ids;
  for (const auto& request : requests) {
    auto id = server.Submit(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  // Length-1 prompts sample on the very first tick, lanes in slot order, so
  // occurrence 0 of kDecodeNaN is exactly request 0's first sample.
  util::FaultInjector::Global().ArmAt(util::FaultSite::kDecodeNaN, {0});
  server.Start();

  auto poisoned = server.Wait(ids[0]);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_EQ(poisoned.value().reason, FinishReason::kFault);
  EXPECT_EQ(poisoned.value().status.code(), util::StatusCode::kInternal);
  EXPECT_TRUE(poisoned.value().tokens.empty());
  for (size_t i = 1; i < ids.size(); ++i) {
    auto result = server.Wait(ids[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().status.ok());
    EXPECT_EQ(result.value().tokens, SingleStreamReference(model, requests[i]))
        << "batch mate " << i << " not bit-exact";
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.health, ServerHealth::kDegraded);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
}

TEST_F(ServeResilienceTest, ThrowingOnTokenCallbackIsIsolated) {
  // Request A's streaming callback throws on its second token; A must fail
  // with Internal while batch mate B (no callback) completes bit-exact.
  util::Rng rng(51);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 2;
  options.num_workers = 0;
  InferenceServer server(&model, options);

  std::atomic<int> delivered{0};
  GenerateRequest bad = MakeRequest({2}, 4, 6);
  bad.on_token = [&](RequestId, int64_t) { delivered.fetch_add(1); };
  GenerateRequest good = MakeRequest({9}, 5, 6);
  auto bad_id = server.Submit(bad);
  auto good_id = server.Submit(good);
  ASSERT_TRUE(bad_id.ok());
  ASSERT_TRUE(good_id.ok());
  // kOnTokenThrow occurrences count only callback deliveries, and B has no
  // callback — so occurrence 1 is A's second token, deterministically.
  util::FaultInjector::Global().ArmAt(util::FaultSite::kOnTokenThrow, {1});
  server.Start();

  auto bad_result = server.Wait(bad_id.value());
  ASSERT_TRUE(bad_result.ok());
  EXPECT_EQ(bad_result.value().reason, FinishReason::kFault);
  EXPECT_EQ(bad_result.value().status.code(), util::StatusCode::kInternal);
  EXPECT_EQ(delivered.load(), 1);  // the throwing delivery never landed
  auto good_result = server.Wait(good_id.value());
  ASSERT_TRUE(good_result.ok());
  EXPECT_EQ(good_result.value().tokens, SingleStreamReference(model, good));
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.health, ServerHealth::kDegraded);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
}

TEST_F(ServeResilienceTest, LeakedSlotIsSweptBackAndServingContinues) {
  // The first retirement leaks its KV slot (Release is dropped). With a
  // single slot, the second request can only ever run if the reclamation
  // sweep repairs the leak.
  util::Rng rng(52);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 1;
  InferenceServer server(&model, options);
  auto first = server.Submit(MakeRequest({1, 2}, 6, 3));
  auto second = server.Submit(MakeRequest({3, 4}, 7, 3));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  util::FaultInjector::Global().ArmAt(util::FaultSite::kSlotLeak, {0});
  server.Start();

  for (RequestId id : {first.value(), second.value()}) {
    auto result = server.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.value().status.ok());
    EXPECT_EQ(result.value().tokens.size(), 3u);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.leaks_repaired, 1u);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
  EXPECT_EQ(stats.health, ServerHealth::kDegraded);
}

TEST_F(ServeResilienceTest, WatchdogConvertsStallIntoFailedRequest) {
  // An injected 30ms worker stall against a 15ms tick budget: the watchdog
  // must fail the in-flight request with a diagnostic Internal status —
  // Wait returns instead of hanging — and the server keeps serving.
  util::Rng rng(53);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;  // the stalled request would otherwise run long
  nn::GPTModel model(cfg, &rng);
  ServerOptions options;
  options.max_batch_size = 1;
  options.num_workers = 0;
  options.tick_budget = std::chrono::milliseconds(15);
  InferenceServer server(&model, options);
  auto id = server.Submit(MakeRequest({1, 2}, 8, 10000));
  ASSERT_TRUE(id.ok());
  util::FaultInjector::Global().ArmAt(util::FaultSite::kWorkerStall, {5});
  server.Start();

  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kFault);
  EXPECT_EQ(result.value().status.code(), util::StatusCode::kInternal);
  EXPECT_NE(result.value().status.ToString().find("stalled"),
            std::string::npos);
  EXPECT_GE(server.Stats().stalled_ticks, 1u);
  EXPECT_EQ(server.Stats().health, ServerHealth::kDegraded);

  // The wedged tick is over; the server must still serve new requests.
  util::FaultInjector::Global().Disarm();
  RequestResult after = server.GenerateBlocking(MakeRequest({3}, 9, 4));
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.tokens.size(), 4u);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
}

TEST_F(ServeResilienceTest, DrainCompletesInFlightAndRejectsNewSubmits) {
  util::Rng rng(54);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;
  nn::GPTModel model(cfg, &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  std::promise<void> first_token;
  std::atomic<bool> signalled{false};
  GenerateRequest request = MakeRequest({1, 2}, 21, 40);
  request.on_token = [&](RequestId, int64_t) {
    if (!signalled.exchange(true)) first_token.set_value();
  };
  auto id = server.Submit(request);
  ASSERT_TRUE(id.ok());
  first_token.get_future().wait();

  auto drain_status = std::async(std::launch::async, [&] {
    return server.Drain(std::chrono::seconds(20));
  });
  while (server.Health() != ServerHealth::kDraining) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Admission is closed the moment draining begins.
  EXPECT_EQ(server.Submit(MakeRequest({5}, 1)).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(drain_status.get().ok());

  // The in-flight request was allowed to finish, not cancelled.
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kLength);
  EXPECT_EQ(result.value().tokens.size(), 40u);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
  EXPECT_EQ(stats.health, ServerHealth::kDraining);
}

TEST_F(ServeResilienceTest, DrainTimeoutCancelsTheRemainder) {
  util::Rng rng(55);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;
  nn::GPTModel model(cfg, &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  std::promise<void> first_token;
  std::atomic<bool> signalled{false};
  GenerateRequest request = MakeRequest({1, 2}, 22, 100000);
  request.on_token = [&](RequestId, int64_t) {
    if (!signalled.exchange(true)) first_token.set_value();
  };
  auto id = server.Submit(request);
  ASSERT_TRUE(id.ok());
  first_token.get_future().wait();

  // Far too little time for a 100000-token request: Drain must give up and
  // report it, and the Shutdown it runs cancels the request with its
  // partial output intact.
  const util::Status drained = server.Drain(std::chrono::milliseconds(5));
  EXPECT_EQ(drained.code(), util::StatusCode::kDeadlineExceeded);
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kCancelled);
  EXPECT_GE(result.value().tokens.size(), 1u);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
}

TEST_F(ServeResilienceTest, MidFlightDeadlineKeepsSingleStreamPrefix) {
  // A deadline that lapses mid-generation retires the request with kDeadline
  // and whatever it produced so far — and that partial output is still the
  // exact single-stream prefix.
  util::Rng rng(56);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;
  nn::GPTModel model(cfg, &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  GenerateRequest request = MakeRequest({1, 2}, 23, 100000);
  request.timeout = std::chrono::milliseconds(100);
  auto id = server.Submit(request);
  ASSERT_TRUE(id.ok());
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kDeadline);
  EXPECT_EQ(result.value().status.code(), util::StatusCode::kDeadlineExceeded);
  ASSERT_GE(result.value().tokens.size(), 1u);
  GenerateRequest replay = request;
  replay.max_new_tokens = static_cast<int64_t>(result.value().tokens.size());
  EXPECT_EQ(result.value().tokens, SingleStreamReference(model, replay));
  EXPECT_EQ(server.Stats().expired, 1u);
}

TEST_F(ServeResilienceTest, InfeasibleDeadlineShedAtAdmission) {
  // A model heavy enough that its measured decode rate makes a
  // window-filling request obviously infeasible in 25ms: admission must
  // shed it (kDeadline, zero tokens) instead of wasting a KV slot.
  util::Rng rng(57);
  nn::GPTConfig cfg;
  cfg.vocab_size = 4096;
  cfg.max_seq_len = 16384;
  cfg.d_model = 128;
  cfg.n_layer = 2;
  cfg.n_head = 4;
  nn::GPTModel model(cfg, &rng);
  ServerOptions options;
  options.max_batch_size = 1;
  InferenceServer server(&model, options);
  server.Start();

  // Warm the decode-rate estimate past its trust threshold.
  RequestResult warmup = server.GenerateBlocking(MakeRequest({1, 2}, 1, 12));
  ASSERT_TRUE(warmup.status.ok());
  ASSERT_GT(server.Stats().est_ms_per_step, 0.0);

  GenerateRequest doomed = MakeRequest({3}, 2, 1000000);
  doomed.timeout = std::chrono::milliseconds(25);
  auto id = server.Submit(doomed);
  ASSERT_TRUE(id.ok());  // accepted into the queue; shed at admission
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kDeadline);
  EXPECT_EQ(result.value().status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.value().status.ToString().find("infeasible"),
            std::string::npos);
  EXPECT_TRUE(result.value().tokens.empty());
  EXPECT_EQ(server.Stats().expired, 1u);
}

TEST_F(ServeResilienceTest, EstimateSeedHintEnablesColdShedding) {
  // A fresh server given an est_ms_per_step_seed hint (e.g. carried over
  // from the outgoing incarnation by a rolling reload) sheds an
  // infeasible deadline IMMEDIATELY — before a single tick is measured.
  util::Rng rng(58);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 1;
  options.est_ms_per_step_seed = 50.0;  // hint: ~50ms/step
  InferenceServer server(&model, options);
  server.Start();
  EXPECT_DOUBLE_EQ(server.Stats().est_ms_per_step, 50.0);  // hint published

  GenerateRequest doomed = MakeRequest({3}, 2, 10);  // ~11 steps => ~550ms
  doomed.timeout = std::chrono::milliseconds(25);
  auto id = server.Submit(doomed);
  ASSERT_TRUE(id.ok());
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kDeadline);
  EXPECT_NE(result.value().status.ToString().find("infeasible"),
            std::string::npos);
  EXPECT_TRUE(result.value().tokens.empty());
  EXPECT_EQ(server.Stats().expired, 1u);
}

TEST_F(ServeResilienceTest, ColdServerDoesNotShedFeasibleDeadlines) {
  // With no hint and no measured ticks there is no estimate at all, so
  // feasibility shedding stays off: the very first deadlined request is
  // admitted and served rather than judged on a garbage estimate.
  util::Rng rng(59);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 2;
  InferenceServer server(&model, options);
  server.Start();
  ASSERT_DOUBLE_EQ(server.Stats().est_ms_per_step, 0.0);  // truly cold

  GenerateRequest first = MakeRequest({1, 2}, 1, 6);
  first.timeout = std::chrono::seconds(5);
  RequestResult result = server.GenerateBlocking(first);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.reason, FinishReason::kLength);
  EXPECT_EQ(server.Stats().expired, 0u);
  // And the first measured tick seeds the estimate for later admissions.
  EXPECT_GT(server.Stats().est_ms_per_step, 0.0);
}

TEST_F(ServeResilienceTest, FirstTickStallDoesNotCauseFalseShedding) {
  // A 30ms injected stall on the very first measured tick inflates the
  // initial estimate; the optimistic floor (fastest tick seen) must keep
  // that from condemning feasible deadlines while the EMA warms up.
  util::FaultInjector::Global().ArmAt(util::FaultSite::kWorkerStall, {0});
  util::Rng rng(60);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 2;
  InferenceServer server(&model, options);
  server.Start();

  std::vector<RequestId> ids;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    GenerateRequest request = MakeRequest({1, 2}, seed, 6);
    request.timeout = std::chrono::seconds(5);  // generous and feasible
    auto id = server.Submit(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (RequestId id : ids) {
    auto result = server.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().reason, FinishReason::kLength)
        << FinishReasonName(result.value().reason);
  }
  EXPECT_EQ(server.Stats().expired, 0u);
}

TEST_F(ServeResilienceTest, StreamingInterleavedWithCancelDeliversPrefix) {
  // Cancellation racing the token stream: every token in the result was
  // streamed, and nothing streams after the cancel retires the request.
  util::Rng rng(58);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;
  nn::GPTModel model(cfg, &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  std::mutex streamed_mu;
  std::vector<int64_t> streamed;
  std::promise<void> third_token;
  GenerateRequest request = MakeRequest({1, 2}, 24, 100000);
  request.on_token = [&](RequestId, int64_t token) {
    std::lock_guard<std::mutex> lock(streamed_mu);
    streamed.push_back(token);
    if (streamed.size() == 3) third_token.set_value();
  };
  auto id = server.Submit(request);
  ASSERT_TRUE(id.ok());
  third_token.get_future().wait();
  EXPECT_TRUE(server.Cancel(id.value()));
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().reason, FinishReason::kCancelled);
  ASSERT_GE(result.value().tokens.size(), 3u);
  std::lock_guard<std::mutex> lock(streamed_mu);
  EXPECT_EQ(streamed, result.value().tokens);
}

TEST_F(ServeResilienceTest, CancelRacingAdmissionAlwaysReachesOneTerminal) {
  // Hammer the cancel-vs-admission window: submit and immediately cancel.
  // Whatever the race decides, every request must reach exactly one
  // terminal state and every KV slot must come back.
  util::Rng rng(59);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.max_batch_size = 4;
  options.num_workers = 2;
  InferenceServer server(&model, options);
  server.Start();

  std::vector<RequestId> ids;
  for (int i = 0; i < 60; ++i) {
    auto id = server.Submit(
        MakeRequest({1, 2}, static_cast<uint64_t>(i), 4));
    ASSERT_TRUE(id.ok());
    server.Cancel(id.value());
    ids.push_back(id.value());
    if (i % 3 == 0) std::this_thread::yield();
  }
  for (RequestId id : ids) {
    auto result = server.Wait(id);
    ASSERT_TRUE(result.ok());
    EXPECT_NE(result.value().reason, FinishReason::kNone);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 60u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                 stats.expired + stats.failed);
  EXPECT_EQ(stats.active_slots, 0);
  EXPECT_EQ(stats.free_slots, stats.total_slots);
}

TEST_F(ServeResilienceTest, WaitAfterShutdownAlwaysReturns) {
  // Submits racing Shutdown: every accepted request must reach a terminal
  // state so Wait never hangs — including a push that lands between the
  // scheduler's final queue drain and the queue closing.
  util::Rng rng(60);
  nn::GPTConfig cfg = SmallConfig();
  cfg.max_seq_len = 4096;
  nn::GPTModel model(cfg, &rng);
  for (int round = 0; round < 8; ++round) {
    InferenceServer server(&model, ServerOptions{});
    server.Start();
    std::vector<RequestId> accepted;
    std::thread submitter([&] {
      for (int i = 0; i < 200; ++i) {
        auto id = server.Submit(
            MakeRequest({1, 2}, static_cast<uint64_t>(i), 1000));
        if (!id.ok()) {
          if (id.status().code() == util::StatusCode::kFailedPrecondition) {
            break;  // shutdown won the race
          }
          continue;  // queue momentarily full
        }
        accepted.push_back(id.value());
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(1 + round % 3));
    server.Shutdown();
    submitter.join();
    for (RequestId id : accepted) {
      auto result = server.Wait(id);  // must return, never hang
      ASSERT_TRUE(result.ok());
      EXPECT_NE(result.value().reason, FinishReason::kNone);
    }
    const ServerStats stats = server.Stats();
    EXPECT_EQ(stats.submitted, stats.completed + stats.cancelled +
                                   stats.expired + stats.failed);
    EXPECT_EQ(stats.free_slots, stats.total_slots);
  }
}

TEST_F(ServeResilienceTest, SubmitWithRetryGivesUpAfterMaxAttempts) {
  util::Rng rng(61);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.queue_capacity = 1;
  InferenceServer server(&model, options);  // not started: queue stays full
  ASSERT_TRUE(server.Submit(MakeRequest({1}, 1, 2)).ok());

  RetryOptions retry;
  retry.max_attempts = 3;
  retry.initial_backoff = std::chrono::milliseconds(1);
  retry.max_backoff = std::chrono::milliseconds(4);
  retry.jitter_seed = 9;
  auto rejected = server.SubmitWithRetry(MakeRequest({2}, 2, 2), retry);
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.Stats().rejected, 3u);  // one per attempt
}

TEST_F(ServeResilienceTest, SubmitWithRetrySucceedsOnceCapacityFrees) {
  util::Rng rng(62);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.queue_capacity = 1;
  InferenceServer server(&model, options);
  auto blocker = server.Submit(MakeRequest({1}, 1, 2));
  ASSERT_TRUE(blocker.ok());

  // Capacity frees when the scheduler starts and drains the queue; the
  // retry loop must ride out the rejections until then.
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    server.Start();
  });
  RetryOptions retry;
  retry.max_attempts = 10;
  retry.initial_backoff = std::chrono::milliseconds(4);
  retry.max_backoff = std::chrono::milliseconds(20);
  retry.jitter_seed = 17;
  auto id = server.SubmitWithRetry(MakeRequest({2}, 2, 2), retry);
  starter.join();
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().status.ok());
  ASSERT_TRUE(server.Wait(blocker.value()).ok());
  EXPECT_GT(server.Stats().rejected, 0u);
}

TEST_F(ServeResilienceTest, SubmitWithRetryHonorsRequestDeadline) {
  util::Rng rng(63);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.queue_capacity = 1;
  InferenceServer server(&model, options);  // not started: queue stays full
  ASSERT_TRUE(server.Submit(MakeRequest({1}, 1, 2)).ok());

  // The request carries a 5ms deadline, but the retry policy alone would
  // happily sleep for hundreds of ms (10 attempts, 20ms+ backoffs). The
  // loop must give up before the deadline instead of sleeping through it:
  // the first backoff (jittered into [10ms, 20ms)) already overshoots.
  GenerateRequest request = MakeRequest({2}, 2, 2);
  request.timeout = std::chrono::milliseconds(5);
  RetryOptions retry;
  retry.max_attempts = 10;
  retry.initial_backoff = std::chrono::milliseconds(20);
  retry.max_backoff = std::chrono::milliseconds(80);
  retry.jitter_seed = 21;
  const auto start = std::chrono::steady_clock::now();
  auto rejected = server.SubmitWithRetry(request, retry);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kResourceExhausted);
  // One admission attempt, then the would-overshoot backoff aborts the
  // loop: nowhere near the 10-attempt budget, and no deadline-long sleep.
  EXPECT_EQ(server.Stats().rejected, 1u);
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
}

TEST_F(ServeResilienceTest, PercentilesComputedOverPartiallyFilledWindow) {
  util::Rng rng(64);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  server.Start();

  // One completion: a single sample far short of the 512-entry window.
  // Every percentile must equal that sample, not read zeroed slots.
  RequestResult first = server.GenerateBlocking(MakeRequest({1, 2}, 1, 3));
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ServerStats stats = server.Stats();
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_DOUBLE_EQ(stats.p50_latency_ms, stats.p99_latency_ms);

  // A few more samples: still partial, percentiles stay ordered and real.
  for (uint64_t i = 2; i <= 5; ++i) {
    ASSERT_TRUE(server.GenerateBlocking(MakeRequest({1}, i, 2)).status.ok());
  }
  stats = server.Stats();
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.p99_latency_ms);
  server.Shutdown();
}

TEST_F(ServeResilienceTest, PollTransitionsAndForgetsFinishedRequests) {
  util::Rng rng(65);
  nn::GPTModel model(SmallConfig(), &rng);
  InferenceServer server(&model, ServerOptions{});
  auto id = server.Submit(MakeRequest({1, 2}, 1, 3));
  ASSERT_TRUE(id.ok());

  RequestResult out;
  // Queued but unserved (server not started): pending, not unknown.
  EXPECT_EQ(server.Poll(id.value(), &out),
            InferenceServer::PollOutcome::kPending);
  // An id never issued: unknown.
  EXPECT_EQ(server.Poll(id.value() + 999, &out),
            InferenceServer::PollOutcome::kUnknown);

  server.Start();
  while (server.Poll(id.value(), &out) !=
         InferenceServer::PollOutcome::kReady) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_FALSE(out.tokens.empty());
  // kReady consumed the result: the id is forgotten for both Poll and Wait.
  EXPECT_EQ(server.Poll(id.value(), &out),
            InferenceServer::PollOutcome::kUnknown);
  EXPECT_EQ(server.Wait(id.value()).status().code(),
            util::StatusCode::kNotFound);
  server.Shutdown();
}

TEST_F(ServeResilienceTest, ApproxLoadTracksQueuedAndActiveWork) {
  util::Rng rng(66);
  nn::GPTModel model(SmallConfig(), &rng);
  ServerOptions options;
  options.queue_capacity = 8;
  InferenceServer server(&model, options);
  EXPECT_EQ(server.ApproxLoad(), 0);

  std::vector<RequestId> ids;
  for (uint64_t i = 1; i <= 3; ++i) {
    auto id = server.Submit(MakeRequest({1}, i, 2));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(server.ApproxLoad(), 3);  // all queued, none active yet

  server.Start();
  for (RequestId id : ids) ASSERT_TRUE(server.Wait(id).ok());
  server.Drain(std::chrono::seconds(5));
  EXPECT_EQ(server.ApproxLoad(), 0);
  server.Shutdown();
}

// Bit-exactness across architecture variants: the serving path must agree
// with the single-stream reference for pre/post-LN, sinusoidal positions,
// attention-only stacks, tied embeddings, and windowed attention.
struct ServeVariant {
  bool pre_ln;
  bool learned_pos;
  bool attn_only;
  bool tied;
  int window;
};

class ServeVariants : public ::testing::TestWithParam<ServeVariant> {};

TEST_P(ServeVariants, ServerMatchesSingleStream) {
  const ServeVariant& v = GetParam();
  nn::GPTConfig cfg = SmallConfig();
  cfg.pre_layernorm = v.pre_ln;
  cfg.learned_positional = v.learned_pos;
  cfg.attention_only = v.attn_only;
  cfg.tie_embeddings = v.tied;
  cfg.attention_window = v.window;
  util::Rng rng(41);
  nn::GPTModel model(cfg, &rng);

  ServerOptions options;
  options.max_batch_size = 3;
  InferenceServer server(&model, options);
  server.Start();

  std::vector<GenerateRequest> requests;
  requests.push_back(MakeRequest({3, 1, 4, 1, 5}, 1, 7));
  requests.push_back(MakeRequest({2, 7}, 2, 9));
  requests.push_back(MakeRequest({0}, 3, 12));
  requests.push_back(MakeRequest({9, 8, 7, 6}, 4, 5));
  std::vector<RequestId> ids;
  for (const auto& request : requests) {
    auto id = server.Submit(request);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    auto result = server.Wait(ids[i]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().tokens,
              SingleStreamReference(model, requests[i]))
        << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ServeVariants,
    ::testing::Values(ServeVariant{true, true, false, false, 0},
                      ServeVariant{false, true, false, false, 0},
                      ServeVariant{true, false, false, false, 0},
                      ServeVariant{true, true, true, false, 0},
                      ServeVariant{true, true, false, true, 0},
                      ServeVariant{false, false, true, true, 3}));

}  // namespace
}  // namespace llm::serve
