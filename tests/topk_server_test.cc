// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// TopKServer: submission/completion plumbing, admission control (both shed
// policies), watchdog deadline cancellation with certified anytime answers,
// and the warmed-worker steady state (arena byte stability). The scorers
// below give the tests deterministic handles on worker timing: GateScorer
// parks a worker mid-query until released, SlowScorer stretches every
// aggregation so a deadline reliably lands mid-run.

#include "core/topk_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/algorithms.h"
#include "gen/database_generator.h"
#include "lists/scorer.h"

namespace topk {
namespace {

/// Sum scorer whose first aggregation blocks until Open() — pins one worker
/// inside a query so tests can fill the admission queue deterministically.
class GateScorer final : public Scorer {
 public:
  using Scorer::Combine;

  Score Combine(const Score* scores, size_t count) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      entered_ = true;
      entered_cv_.notify_all();
      open_cv_.wait(lock, [&] { return open_; });
    }
    Score total = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total += scores[i];
    }
    return total;
  }

  std::string name() const override { return "gate-sum"; }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    open_cv_.notify_all();
  }

  /// Blocks until a worker is parked inside Combine.
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [&] { return entered_; });
  }

  /// Like AwaitEntered, but gives up once `future` resolves: a request that
  /// never reaches the gate (e.g. expired at dequeue) must not hang the
  /// test. Returns whether a worker entered.
  bool AwaitEnteredOrResolved(std::future<Result<TopKResult>>& future) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (entered_cv_.wait_for(lock, std::chrono::milliseconds(1),
                                 [&] { return entered_; })) {
          return true;
        }
      }
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        std::lock_guard<std::mutex> lock(mu_);
        return entered_;
      }
    }
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable open_cv_;
  mutable std::condition_variable entered_cv_;
  mutable bool open_ = false;
  mutable bool entered_ = false;
};

/// Sum scorer that sleeps per aggregation, stretching each algorithm round so
/// a millisecond-scale deadline reliably expires mid-run.
class SlowScorer final : public Scorer {
 public:
  using Scorer::Combine;

  explicit SlowScorer(std::chrono::microseconds delay) : delay_(delay) {}

  Score Combine(const Score* scores, size_t count) const override {
    std::this_thread::sleep_for(delay_);
    Score total = 0.0;
    for (size_t i = 0; i < count; ++i) {
      total += scores[i];
    }
    return total;
  }

  std::string name() const override { return "slow-sum"; }

 private:
  std::chrono::microseconds delay_;
};

class TopKServerTest : public ::testing::Test {
 protected:
  TopKServerTest() : db_(MakeUniformDatabase(600, 4, 9042)) {}

  Database db_;
  SumScorer sum_;
};

TEST_F(TopKServerTest, SubmittedRequestsCompleteWithExactResults) {
  ServerOptions options;
  options.num_threads = 2;
  TopKServer server(&db_, options);

  std::vector<std::future<Result<TopKResult>>> futures;
  for (size_t i = 0; i < 12; ++i) {
    ServerRequest request;
    request.kind = (i % 2 == 0) ? AlgorithmKind::kBpa : AlgorithmKind::kTa;
    request.query = TopKQuery{1 + i, &sum_};
    futures.push_back(server.Submit(request));
  }
  auto bpa = MakeAlgorithm(AlgorithmKind::kBpa);
  auto ta = MakeAlgorithm(AlgorithmKind::kTa);
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<TopKResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.ValueUnsafe().completion, Completion::kExact);
    const TopKAlgorithm& direct = (i % 2 == 0) ? *bpa : *ta;
    const TopKResult want =
        direct.Execute(db_, TopKQuery{1 + i, &sum_}).ValueOrDie();
    EXPECT_EQ(got.ValueUnsafe().Items(), want.Items()) << "request " << i;
    EXPECT_EQ(got.ValueUnsafe().stats, want.stats) << "request " << i;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.shed_rejected + stats.shed_degraded, 0u);
}

TEST_F(TopKServerTest, FailedRequestsDoNotAffectTheirNeighbours) {
  ServerOptions options;
  options.num_threads = 2;
  TopKServer server(&db_, options);

  std::vector<TopKQuery> queries = {TopKQuery{3, &sum_}, TopKQuery{7, &sum_}};
  queries.push_back(TopKQuery{db_.num_items() + 1, &sum_});  // invalid k
  queries.push_back(TopKQuery{5, nullptr});                  // no scorer
  queries.push_back(TopKQuery{11, &sum_});
  std::vector<std::future<Result<TopKResult>>> futures;
  for (const TopKQuery& query : queries) {
    futures.push_back(
        server.Submit(ServerRequest{AlgorithmKind::kTa, query, 0.0}));
  }
  std::vector<Result<TopKResult>> results;
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_TRUE(results[2].status().IsInvalid());
  EXPECT_TRUE(results[3].status().IsInvalid());
  EXPECT_TRUE(results[4].ok());
  EXPECT_EQ(server.stats().completed, 3u);
  EXPECT_EQ(server.stats().failed, 2u);
}

TEST_F(TopKServerTest, MixedScorersMatchTheOracle) {
  ServerOptions options;
  options.num_threads = 3;
  TopKServer server(&db_, options);
  MinScorer min;
  MaxScorer max;
  const std::vector<TopKQuery> queries = {
      TopKQuery{5, &sum_}, TopKQuery{5, &min}, TopKQuery{5, &max}};
  std::vector<std::future<Result<TopKResult>>> futures;
  for (const TopKQuery& query : queries) {
    futures.push_back(
        server.Submit(ServerRequest{AlgorithmKind::kBpa, query, 0.0}));
  }
  auto naive = MakeAlgorithm(AlgorithmKind::kNaive);
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<TopKResult> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const TopKResult want = naive->Execute(db_, queries[i]).ValueOrDie();
    EXPECT_EQ(got.ValueUnsafe().Items(), want.Items()) << "scorer " << i;
  }
}

// Two submitting threads share one server: every answer must match the
// single-threaded run of the same query (run under TSan in CI).
TEST_F(TopKServerTest, ConcurrentSubmittersShareOneServer) {
  ServerOptions options;
  options.num_threads = 2;
  TopKServer server(&db_, options);
  const auto submit_all = [&](AlgorithmKind kind, size_t count,
                              std::vector<Result<TopKResult>>* out) {
    std::vector<std::future<Result<TopKResult>>> futures;
    for (size_t i = 0; i < count; ++i) {
      futures.push_back(server.Submit(
          ServerRequest{kind, TopKQuery{1 + i % 25, &sum_}, 0.0}));
    }
    for (auto& future : futures) {
      out->push_back(future.get());
    }
  };
  std::vector<Result<TopKResult>> bpa_results;
  std::vector<Result<TopKResult>> nra_results;
  std::thread bpa_issuer(
      [&] { submit_all(AlgorithmKind::kBpa, 24, &bpa_results); });
  std::thread nra_issuer(
      [&] { submit_all(AlgorithmKind::kNra, 16, &nra_results); });
  bpa_issuer.join();
  nra_issuer.join();
  auto bpa = MakeAlgorithm(AlgorithmKind::kBpa);
  auto nra = MakeAlgorithm(AlgorithmKind::kNra);
  for (size_t i = 0; i < bpa_results.size(); ++i) {
    ASSERT_TRUE(bpa_results[i].ok());
    const TopKResult want =
        bpa->Execute(db_, TopKQuery{1 + i % 25, &sum_}).ValueOrDie();
    EXPECT_EQ(bpa_results[i].ValueUnsafe().stats, want.stats) << i;
  }
  for (size_t i = 0; i < nra_results.size(); ++i) {
    ASSERT_TRUE(nra_results[i].ok());
    const TopKResult want =
        nra->Execute(db_, TopKQuery{1 + i % 25, &sum_}).ValueOrDie();
    EXPECT_EQ(nra_results[i].ValueUnsafe().stats, want.stats) << i;
  }
}

TEST_F(TopKServerTest, CallbacksFireInSubmissionOrderOnOneWorker) {
  ServerOptions options;
  options.num_threads = 1;  // single worker => FIFO completion
  TopKServer server(&db_, options);

  std::mutex mu;
  std::vector<size_t> order;
  std::condition_variable cv;
  const size_t kRequests = 8;
  for (size_t i = 0; i < kRequests; ++i) {
    ServerRequest request;
    request.kind = AlgorithmKind::kNra;
    request.query = TopKQuery{5 + i, &sum_};
    ASSERT_TRUE(server.SubmitWithCallback(request, [&, i](Result<TopKResult> r) {
      ASSERT_TRUE(r.ok());
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      cv.notify_all();
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return order.size() == kRequests; });
  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST_F(TopKServerTest, FullQueueRejectsUnderRejectPolicy) {
  GateScorer gate;
  ServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.shed_policy = ShedPolicy::kReject;
  TopKServer server(&db_, options);

  // Request 1 parks the only worker; request 2 fills the queue.
  auto running = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &gate}, 0.0});
  gate.AwaitEntered();
  auto queued = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});

  // Request 3 finds the queue full and is rejected immediately.
  auto shed = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<TopKResult> shed_result = shed.get();
  EXPECT_FALSE(shed_result.ok());
  EXPECT_TRUE(shed_result.status().IsResourceExhausted())
      << shed_result.status().ToString();

  gate.Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(TopKServerTest, FullQueueServesDegradedAnytimeAnswer) {
  GateScorer gate;
  ServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.shed_policy = ShedPolicy::kServeDegraded;
  options.degraded_access_budget = 32;  // far below the exact run's cost
  TopKServer server(&db_, options);

  auto running = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &gate}, 0.0});
  gate.AwaitEntered();
  auto queued = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});

  // Request 3 is served inline on this thread under the degraded budget: an
  // ok() anytime result whose certificate names the tripped budget.
  auto shed = server.Submit(ServerRequest{
      AlgorithmKind::kNra, TopKQuery{10, &sum_}, 0.0});
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<TopKResult> degraded = shed.get();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.ValueUnsafe().completion, Completion::kAccessBudget);
  EXPECT_GE(degraded.ValueUnsafe().theta, 1.0);
  EXPECT_LE(degraded.ValueUnsafe().stats.TotalAccesses(), 32u + 64u)
      << "budget enforced at round granularity only";

  gate.Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_degraded, 1u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(TopKServerTest, OverdueInFlightRequestIsCancelledWithCertificate) {
  SlowScorer slow(std::chrono::microseconds(500));
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  // Without the deadline this TA run takes hundreds of milliseconds (every
  // aggregation sleeps); with it, the watchdog cancels within a couple of
  // watchdog periods past 20 ms and the worker returns the anytime answer.
  ServerRequest request;
  request.kind = AlgorithmKind::kTa;
  request.query = TopKQuery{20, &slow};
  request.deadline_ms = 20.0;
  Result<TopKResult> got = server.Submit(request).get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const TopKResult& result = got.ValueUnsafe();
  EXPECT_EQ(result.completion, Completion::kDeadline);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_TRUE(result.theta >= 1.0 || std::isinf(result.theta));
  // The certificate relates the bounds: nothing unreturned can beat
  // theta * (weakest returned lower bound).
  if (!result.items.empty() && result.kth_lower_bound > 0.0) {
    EXPECT_LE(result.unreturned_upper_bound,
              result.theta * result.kth_lower_bound + 1e-9);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

// The self-healing watchdog handshake: ExecuteInto's Arm() clears the cancel
// flag at run start, so a RequestCancel that lands between slot publication
// and Arm would be lost if delivered only once. The watchdog re-cancels every
// still-overdue slot each pass, so the cancel must arrive eventually no
// matter how the first delivery interleaves with Arm. A 1 ms deadline puts
// the first cancel right around dequeue and Arm; the worker then stays
// parked until the test observes the cancel flag set on its governor — the
// park began after Arm, so an observed flag can no longer be cleared — which
// makes the outcome independent of how promptly the watchdog thread gets
// scheduled. A request whose deadline is already gone at dequeue never
// reaches the gate; that attempt is checked as such and retried, so 25
// iterations each park a worker. Under TSan this also proves the
// slot-mutex/atomic discipline of the re-cancel path.
TEST_F(TopKServerTest, WatchdogRecancelSurvivesArmRace) {
  int expired_attempts = 0;
  for (int iteration = 0; iteration < 25;) {
    GateScorer gate;
    ServerOptions options;
    options.num_threads = 1;
    options.watchdog_period_ms = 0.25;
    TopKServer server(&db_, options);

    ServerRequest request;
    request.kind = AlgorithmKind::kTa;
    request.query = TopKQuery{3, &gate};
    request.deadline_ms = 1.0;
    auto future = server.Submit(request);
    if (!gate.AwaitEnteredOrResolved(future)) {
      // Expired while queued: failed without executing, nothing to race.
      const Result<TopKResult> expired = future.get();
      ASSERT_TRUE(expired.status().IsResourceExhausted())
          << expired.status().ToString();
      ASSERT_EQ(server.stats().expired_at_dequeue, 1u);
      ASSERT_LT(++expired_attempts, 1000)
          << "requests keep expiring before a worker picks them up";
      continue;
    }
    // The worker is parked inside the query's first aggregation; the
    // deadline expires while it sits there and the watchdog fires (and keeps
    // re-firing) across the park. Hold the gate until that cancel is visible.
    const QueryGovernor& governor = server.worker_context(0).governor();
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(30);
    while (!governor.cancel_requested() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const bool cancelled = governor.cancel_requested();
    gate.Open();
    ASSERT_TRUE(cancelled) << "iteration " << iteration
                           << ": the watchdog never cancelled the parked "
                              "overdue query";

    Result<TopKResult> got = future.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const TopKResult& result = got.ValueUnsafe();
    EXPECT_EQ(result.completion, Completion::kDeadline)
        << "iteration " << iteration;
    EXPECT_GE(result.theta, 1.0) << "iteration " << iteration;
    EXPECT_EQ(server.stats().deadline_cancelled, 1u)
        << "iteration " << iteration;
    ++iteration;
  }
}

TEST_F(TopKServerTest, RequestOverdueAtDequeueFailsWithoutExecuting) {
  GateScorer gate;
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  auto running = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &gate}, 0.0});
  gate.AwaitEntered();
  // Queued behind the parked worker with a deadline far shorter than the
  // park: expired before a worker ever picks it up.
  ServerRequest doomed;
  doomed.kind = AlgorithmKind::kBpa;
  doomed.query = TopKQuery{3, &sum_};
  doomed.deadline_ms = 5.0;
  auto expired = server.Submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Open();

  Result<TopKResult> expired_result = expired.get();
  EXPECT_FALSE(expired_result.ok());
  EXPECT_TRUE(expired_result.status().IsResourceExhausted())
      << expired_result.status().ToString();
  EXPECT_TRUE(running.get().ok());
  EXPECT_EQ(server.stats().expired_at_dequeue, 1u);
}

TEST_F(TopKServerTest, StopAnswersEverythingAdmitted) {
  std::vector<std::future<Result<TopKResult>>> futures;
  {
    ServerOptions options;
    options.num_threads = 2;
    TopKServer server(&db_, options);
    for (size_t i = 0; i < 16; ++i) {
      ServerRequest request;
      request.kind = AlgorithmKind::kBpa2;
      request.query = TopKQuery{1 + (i % 10), &sum_};
      futures.push_back(server.Submit(request));
    }
    // Destructor: stops admission, drains the queue, joins the workers.
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
}

TEST_F(TopKServerTest, SubmitAfterStopIsRefused) {
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);
  server.Stop();
  auto refused = server.Submit(ServerRequest{
      AlgorithmKind::kTa, TopKQuery{3, &sum_}, 0.0});
  Result<TopKResult> result = refused.get();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsUnavailable());
}

// The serving steady state reuses each worker's warmed context: after the
// first pass over a fixed workload the pool arena must not grow by a single
// byte. (The future/promise plumbing allocates per request by design; the
// execution path itself is what must stay allocation-free.)
TEST_F(TopKServerTest, WarmedWorkerArenaIsByteStableAcrossRequests) {
  ServerOptions options;
  options.num_threads = 1;
  TopKServer server(&db_, options);

  auto run_wave = [&] {
    std::vector<std::future<Result<TopKResult>>> futures;
    for (size_t i = 0; i < 6; ++i) {
      ServerRequest request;
      request.kind = (i % 2 == 0) ? AlgorithmKind::kNra : AlgorithmKind::kCa;
      request.query = TopKQuery{8 + i, &sum_};
      futures.push_back(server.Submit(request));
    }
    for (auto& future : futures) {
      ASSERT_TRUE(future.get().ok());
    }
  };

  run_wave();  // warm-up sizes the arena to the workload
  const size_t warmed_bytes =
      server.worker_context(0).pool().arena_bytes_reserved();
  EXPECT_GT(warmed_bytes, 0u);
  for (int wave = 0; wave < 3; ++wave) {
    run_wave();
    EXPECT_EQ(server.worker_context(0).pool().arena_bytes_reserved(),
              warmed_bytes)
        << "wave " << wave;
  }
}

}  // namespace
}  // namespace topk
