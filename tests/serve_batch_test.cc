// Micro-batching tests (src/serve/micro_batcher.h, docs/SERVING.md):
// the pure flush policy, deadline- and linger-triggered flushes under
// fake clocks, admission shedding, drain-on-destruction, circuit-breaker
// accounting for expired batch members, and — the load-bearing contract —
// bitwise identity between SubmitTopK and the serial TopK path at every
// batch cutoff and submitter count. Runs in every build flavor, including
// the tsan and failpoints lanes; failpoint scenarios live in
// serve_faults_test.cc.

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "distance/metric.h"
#include "geo/preprocess.h"
#include "obs/metrics.h"
#include "serve/micro_batcher.h"
#include "serve/similarity_server.h"

namespace tmn::serve {
namespace {

// Fake clocks (Deadline::ClockFn is a plain function pointer, so the
// fakes keep their state in globals reset by each test). Atomics: the
// test thread advances the clock while the dispatcher thread polls it.
std::atomic<double> g_fake_now{0.0};
double FakeClock() { return g_fake_now.load(); }

// Advances one tick per read: the Nth deadline check in the pipeline
// sees time N (see the serial sweep in serve_test.cc).
std::atomic<double> g_step_now{0.0};
double SteppingClock() { return g_step_now.fetch_add(1.0) + 1.0; }

std::vector<geo::Trajectory> TestDatabase(int n, uint64_t seed) {
  data::SyntheticConfig config;
  config.num_trajectories = n;
  config.min_length = 10;
  config.max_length = 16;
  config.seed = seed;
  auto raw = data::GenerateSynthetic(config);
  return geo::NormalizeTrajectories(raw, geo::ComputeNormalization(raw));
}

std::unique_ptr<core::SimilarityModel> TestModel() {
  core::TmnModelConfig config;
  config.hidden_dim = 8;
  config.use_matching = false;  // TMN-NM: non-pairwise, can pre-embed.
  return std::make_unique<core::TmnModel>(config);
}

ServerConfig BatchConfig(size_t max_batch_size) {
  ServerConfig config;
  config.rerank_candidates = 8;
  config.batching.max_batch_size = max_batch_size;
  return config;
}

// Bitwise equality: indices, tier, and the exact bits of every distance.
void ExpectBitwiseEqual(const QueryResult& got, const QueryResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.tier, want.tier) << label;
  ASSERT_EQ(got.indices, want.indices) << label;
  ASSERT_EQ(got.distances.size(), want.distances.size()) << label;
  for (size_t i = 0; i < got.distances.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.distances[i], &want.distances[i],
                          sizeof(double)),
              0)
        << label << " distance bits differ at rank " << i;
  }
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global()
      .GetCounter(name, obs::Stability::kUnstable)
      .value();
}

// ---------------------------------------------------------------------
// The pure flush policy.

TEST(DecideFlushTest, EmptyQueueNeverFlushes) {
  const MicroBatcherConfig config;
  const FlushDecision d = DecideFlush(0, 0.0, 100.0, config, false);
  EXPECT_FALSE(d.flush);
}

TEST(DecideFlushTest, SizeCutoffWinsOverEverything) {
  MicroBatcherConfig config;
  config.max_batch_size = 4;
  for (const bool draining : {false, true}) {
    const FlushDecision d = DecideFlush(4, 0.0, 100.0, config, draining);
    EXPECT_TRUE(d.flush);
    EXPECT_EQ(d.reason, BatchFlushReason::kSize);
  }
  EXPECT_EQ(DecideFlush(9, 0.0, 100.0, config, false).reason,
            BatchFlushReason::kSize);
}

TEST(DecideFlushTest, DrainFlushesPartialBatches) {
  MicroBatcherConfig config;
  config.max_batch_size = 8;
  const FlushDecision d = DecideFlush(3, 0.0, 100.0, config, true);
  EXPECT_TRUE(d.flush);
  EXPECT_EQ(d.reason, BatchFlushReason::kDrain);
}

TEST(DecideFlushTest, DeadlineSlackCutoff) {
  MicroBatcherConfig config;
  config.max_batch_size = 8;
  config.flush_slack_seconds = 0.010;
  config.max_linger_seconds = 100.0;
  // Slack above the flush budget: hold the batch open.
  EXPECT_FALSE(DecideFlush(2, 0.0, 0.011, config, false).flush);
  // At or below: flush now, spending the remaining slack on the batch.
  for (const double slack : {0.010, 0.004, 0.0, -1.0}) {
    const FlushDecision d = DecideFlush(2, 0.0, slack, config, false);
    EXPECT_TRUE(d.flush) << "slack " << slack;
    EXPECT_EQ(d.reason, BatchFlushReason::kDeadline);
  }
}

TEST(DecideFlushTest, LingerCutoffCoversDeadlinelessTraffic) {
  MicroBatcherConfig config;
  config.max_batch_size = 8;
  config.max_linger_seconds = 0.002;
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DecideFlush(1, 0.0015, inf, config, false).flush);
  const FlushDecision d = DecideFlush(1, 0.002, inf, config, false);
  EXPECT_TRUE(d.flush);
  EXPECT_EQ(d.reason, BatchFlushReason::kDeadline);
}

TEST(DecideFlushTest, WaitIsTheNearerCutoff) {
  MicroBatcherConfig config;
  config.max_batch_size = 8;
  config.flush_slack_seconds = 0.010;
  config.max_linger_seconds = 0.100;
  // Deadline cutoff nearer: slack 0.025 - 0.010 = 0.015 < linger 0.090.
  FlushDecision d = DecideFlush(2, 0.010, 0.025, config, false);
  EXPECT_FALSE(d.flush);
  EXPECT_DOUBLE_EQ(d.wait_seconds, 0.015);
  // Infinite slack: the linger budget is the only timer.
  d = DecideFlush(2, 0.010, std::numeric_limits<double>::infinity(), config,
                  false);
  EXPECT_FALSE(d.flush);
  EXPECT_DOUBLE_EQ(d.wait_seconds, 0.090);
}

// ---------------------------------------------------------------------
// MicroBatcher alone, with a recording processor.

TEST(MicroBatcherTest, SizeFlushFormsFullBatches) {
  const uint64_t size_before = CounterValue("tmn.serve.batch.flush_size");
  MicroBatcherConfig config;
  config.max_batch_size = 4;
  config.max_linger_seconds = 1000.0;
  config.flush_slack_seconds = 0.0;
  std::vector<size_t> sizes;
  common::Mutex mu;
  MicroBatcher batcher(config, [&](std::vector<BatchRequest> batch,
                                   BatchFlushReason reason) {
    {
      common::MutexLock lock(mu);
      sizes.push_back(batch.size());
    }
    EXPECT_EQ(reason, BatchFlushReason::kSize);
    for (BatchRequest& r : batch) {
      r.promise.set_value(common::StatusOr<QueryResult>(QueryResult{}));
    }
  });
  std::vector<std::future<common::StatusOr<QueryResult>>> futures;
  for (int i = 0; i < 8; ++i) {
    BatchRequest request;
    request.k = 1;
    futures.push_back(request.promise.get_future());
    batcher.Submit(std::move(request));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  {
    common::MutexLock lock(mu);
    size_t total = 0;
    for (size_t s : sizes) {
      EXPECT_LE(s, 4u);
      total += s;
    }
    EXPECT_EQ(total, 8u);
  }
  EXPECT_GE(CounterValue("tmn.serve.batch.flush_size"), size_before + 2);
}

TEST(MicroBatcherTest, FakeClockDeadlineSlackTriggersFlush) {
  const uint64_t deadline_before =
      CounterValue("tmn.serve.batch.flush_deadline");
  g_fake_now = 0.0;
  MicroBatcherConfig config;
  config.max_batch_size = 8;           // Never reached: one member.
  config.max_linger_seconds = 1000.0;  // Never reached on the fake clock.
  config.flush_slack_seconds = 1.0;
  config.clock = &FakeClock;
  common::Mutex mu;
  bool flushed = false;
  BatchFlushReason reason = BatchFlushReason::kSize;
  MicroBatcher batcher(config, [&](std::vector<BatchRequest> batch,
                                   BatchFlushReason r) {
    {
      common::MutexLock lock(mu);
      flushed = true;
      reason = r;
    }
    for (BatchRequest& req : batch) {
      req.promise.set_value(common::StatusOr<QueryResult>(QueryResult{}));
    }
  });
  BatchRequest request;
  request.k = 1;
  request.deadline = common::Deadline::AfterSeconds(10.0, &FakeClock);
  auto future = request.promise.get_future();
  batcher.Submit(std::move(request));
  // Slack 10s > flush budget 1s: the batch must stay open while the
  // dispatcher re-polls (real time passes; the fake clock is frozen).
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  {
    common::MutexLock lock(mu);
    EXPECT_FALSE(flushed);
  }
  // Advance the fake clock: slack drops to 0.5s <= 1s and the next poll
  // flushes for the deadline.
  g_fake_now = 9.5;
  EXPECT_TRUE(future.get().ok());
  {
    common::MutexLock lock(mu);
    EXPECT_TRUE(flushed);
    EXPECT_EQ(reason, BatchFlushReason::kDeadline);
  }
  EXPECT_GE(CounterValue("tmn.serve.batch.flush_deadline"),
            deadline_before + 1);
}

TEST(MicroBatcherTest, FakeClockLingerTriggersFlush) {
  g_fake_now = 0.0;
  MicroBatcherConfig config;
  config.max_batch_size = 8;
  config.max_linger_seconds = 2.0;
  config.flush_slack_seconds = 0.5;
  config.clock = &FakeClock;  // Drives enqueue ages.
  MicroBatcher batcher(config, [](std::vector<BatchRequest> batch,
                                  BatchFlushReason r) {
    EXPECT_EQ(r, BatchFlushReason::kDeadline);
    for (BatchRequest& req : batch) {
      req.promise.set_value(common::StatusOr<QueryResult>(QueryResult{}));
    }
  });
  BatchRequest request;  // No deadline: only the linger timer applies.
  request.k = 1;
  auto future = request.promise.get_future();
  batcher.Submit(std::move(request));
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  g_fake_now = 2.5;  // Oldest member has now lingered past the cap.
  EXPECT_TRUE(future.get().ok());
}

// ---------------------------------------------------------------------
// SubmitTopK vs serial TopK: bitwise identity.

class ServeBatchIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    database_ = TestDatabase(64, 77);
    queries_ = TestDatabase(24, 78);
  }

  std::unique_ptr<SimilarityServer> MakeServer(const ServerConfig& config) {
    auto server = SimilarityServer::Create(
        config, database_, dist::CreateMetric(dist::MetricType::kHausdorff),
        TestModel());
    EXPECT_TRUE(server.ok());
    EXPECT_TRUE(server.value()->embedding_tier_available());
    return std::move(server.value());
  }

  // Serial references computed with the plain TopK path.
  std::vector<QueryResult> SerialReference(const SimilarityServer& server,
                                           size_t k) {
    std::vector<QueryResult> reference;
    for (const auto& q : queries_) {
      auto r = server.TopK(q, k);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      reference.push_back(std::move(r.value()));
    }
    return reference;
  }

  std::vector<geo::Trajectory> database_;
  std::vector<geo::Trajectory> queries_;
};

TEST_F(ServeBatchIdentityTest, BitwiseIdenticalAcrossBatchCutoffs) {
  // Batch size 1 (every query its own batch), a ragged middle cutoff, and
  // one larger than the query count: the answer must not depend on how
  // the stream happened to be chopped into batches.
  for (const size_t cutoff : {size_t{1}, size_t{3}, size_t{16}}) {
    auto server = MakeServer(BatchConfig(cutoff));
    const std::vector<QueryResult> reference = SerialReference(*server, 5);
    std::vector<std::future<common::StatusOr<QueryResult>>> futures;
    for (const auto& q : queries_) {
      auto submitted = server->SubmitTopK(q, 5);
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(submitted.value()));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      common::StatusOr<QueryResult> r = futures[i].get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectBitwiseEqual(r.value(), reference[i],
                         "cutoff " + std::to_string(cutoff) + " query " +
                             std::to_string(i));
    }
  }
}

TEST_F(ServeBatchIdentityTest, BitwiseIdenticalAcrossSubmitterCounts) {
  auto server = MakeServer(BatchConfig(4));
  const std::vector<QueryResult> reference = SerialReference(*server, 5);
  // 1 vs 4 concurrent submitters: different interleavings form different
  // batches, but every query's answer must be the same bits.
  for (const int submitters : {1, 4}) {
    std::vector<std::optional<std::future<common::StatusOr<QueryResult>>>>
        futures(queries_.size());
    common::ParallelFor(
        0, queries_.size(),
        [&](size_t i) {
          auto submitted = server->SubmitTopK(queries_[i], 5);
          ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
          futures[i] = std::move(submitted.value());
        },
        submitters);
    for (size_t i = 0; i < futures.size(); ++i) {
      ASSERT_TRUE(futures[i].has_value());
      common::StatusOr<QueryResult> r = futures[i]->get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectBitwiseEqual(r.value(), reference[i],
                         std::to_string(submitters) + " submitters, query " +
                             std::to_string(i));
    }
  }
}

TEST_F(ServeBatchIdentityTest, DrainOnDestructionResolvesEveryFuture) {
  // Cutoffs that never fire while the server lives: the destructor's
  // drain is the only thing that can flush these.
  ServerConfig config = BatchConfig(100);
  config.batching.max_linger_seconds = 1000.0;
  config.batching.flush_slack_seconds = 0.0;
  auto server = MakeServer(config);
  const std::vector<QueryResult> reference = SerialReference(*server, 3);
  std::vector<std::future<common::StatusOr<QueryResult>>> futures;
  for (const auto& q : queries_) {
    auto submitted = server->SubmitTopK(q, 3);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  server.reset();  // Drain: every accepted query still gets its answer.
  for (size_t i = 0; i < futures.size(); ++i) {
    common::StatusOr<QueryResult> r = futures[i].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectBitwiseEqual(r.value(), reference[i],
                       "drained query " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------
// Deadlines and breaker accounting through the batch pipeline.

TEST(ServeBatchDeadlineTest, SweepHitsEveryStageAndNeverWedgesTheBreaker) {
  // The serial sweep from serve_test.cc replayed through SubmitTopK with
  // batch size 1 (a size flush reads no clock, so the stepping clock
  // ticks exactly once per deadline check, same as the serial path). One
  // tier-1 failure would open this breaker — so the sweep passing with
  // the breaker closed proves every expiry recorded Abandoned, not
  // Failure.
  const auto db = TestDatabase(8, 11);
  ServerConfig config = BatchConfig(1);
  config.breaker.failure_threshold = 1;
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kHausdorff),
      TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->embedding_tier_available());
  std::vector<std::string> failure_messages;
  bool succeeded = false;
  for (double budget = 0.5; budget < 200.0; budget += 1.0) {
    g_step_now = 0.0;
    const auto deadline =
        common::Deadline::AfterSeconds(budget, &SteppingClock);
    auto submitted = server.value()->SubmitTopK(db[2], 3, deadline);
    ASSERT_TRUE(submitted.ok());
    const common::StatusOr<QueryResult> r = submitted.value().get();
    if (r.ok()) {
      succeeded = true;
      EXPECT_EQ(r.value().tier, ServeTier::kEmbeddingAnn);
    } else {
      ASSERT_EQ(r.status().code(), common::StatusCode::kDeadlineExceeded)
          << r.status().ToString();
      EXPECT_FALSE(succeeded)
          << "budget " << budget << " failed after a smaller one succeeded";
      failure_messages.push_back(r.status().message());
    }
    EXPECT_EQ(server.value()->breaker_state(),
              CircuitBreaker::State::kClosed);
  }
  EXPECT_TRUE(succeeded) << "no budget in the sweep was enough";
  ASSERT_FALSE(failure_messages.empty());
  auto saw_stage = [&](const char* stage) {
    for (const auto& m : failure_messages) {
      if (m.find(stage) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(saw_stage("'admission'"));
  EXPECT_TRUE(saw_stage("'encode'"));
  EXPECT_TRUE(saw_stage("'index-search'"));
  EXPECT_TRUE(saw_stage("'tier1-distances'"));
}

TEST(ServeBatchDeadlineTest, ExpiredMemberFailsAtAdmissionWithoutBreakerHit) {
  g_fake_now = 0.0;
  const auto db = TestDatabase(8, 12);
  ServerConfig config = BatchConfig(1);
  config.breaker.failure_threshold = 1;
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kHausdorff),
      TestModel());
  ASSERT_TRUE(server.ok());
  const auto deadline = common::Deadline::AfterSeconds(1.0, &FakeClock);
  g_fake_now = 5.0;  // Budget already blown before the query starts.
  auto submitted = server.value()->SubmitTopK(db[0], 3, deadline);
  ASSERT_TRUE(submitted.ok());
  const common::StatusOr<QueryResult> r = submitted.value().get();
  EXPECT_EQ(r.status().code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("'admission'"), std::string::npos);
  // The member never reached the breaker gate, so tier 1 must still be
  // live: a healthy follow-up serves from the embedding index.
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kClosed);
  auto healthy = server.value()->SubmitTopK(db[0], 3);
  ASSERT_TRUE(healthy.ok());
  const common::StatusOr<QueryResult> h = healthy.value().get();
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h.value().tier, ServeTier::kEmbeddingAnn);
}

TEST(ServeBatchDeadlineTest, BatcherQueueFullShedsAtSubmit) {
  g_fake_now = 0.0;
  const auto db = TestDatabase(8, 13);
  ServerConfig config = BatchConfig(100);
  config.queue_capacity = 2;  // The two parked queries hold every slot.
  config.batching.max_linger_seconds = 1000.0;
  config.batching.flush_slack_seconds = 0.0;
  config.batching.clock = &FakeClock;  // Frozen: no flush while testing.
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kHausdorff),
      TestModel());
  ASSERT_TRUE(server.ok());
  std::vector<std::future<common::StatusOr<QueryResult>>> futures;
  for (int i = 0; i < 2; ++i) {
    auto submitted = server.value()->SubmitTopK(db[0], 3);
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted.value()));
  }
  auto shed = server.value()->SubmitTopK(db[0], 3);
  EXPECT_EQ(shed.status().code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kClosed);
  server.value().reset();  // Drain resolves the two queued members.
  for (auto& f : futures) {
    const common::StatusOr<QueryResult> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kEmbeddingAnn);
  }
}

}  // namespace
}  // namespace tmn::serve
