// Tests for the online serving layer (src/serve): admission and load
// shedding, deadline plumbing, the circuit-breaker state machine (driven
// by a fake clock), tier selection and the exactness of the degraded
// tiers. Fault-injection scenarios that need armed failpoints live in
// serve_faults_test.cc; everything here runs in every build flavor.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/status.h"
#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "distance/metric.h"
#include "geo/preprocess.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/similarity_server.h"

namespace tmn::serve {
namespace {

// ---------------------------------------------------------------------
// Fake clocks. Deadline::ClockFn is a plain function pointer, so the
// fakes keep their state in globals reset by each test. Atomics: the
// server owns background threads (batcher dispatcher, pool) that may
// poll a clock while the test thread advances it.

std::atomic<double> g_fake_now{0.0};
double FakeClock() { return g_fake_now.load(); }

// Advances one tick per read: the Nth deadline check in a pipeline sees
// time N, so a budget of B seconds expires at exactly the (B+1)th check.
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

ServerConfig FastConfig() {
  ServerConfig config;
  config.rerank_candidates = 8;
  return config;
}

// The ground truth every exact tier must reproduce: all (distance, index)
// pairs sorted ascending with the index breaking ties.
std::vector<std::pair<double, size_t>> ExactReference(
    const dist::DistanceMetric& metric,
    const std::vector<geo::Trajectory>& database,
    const geo::Trajectory& query, size_t k) {
  std::vector<std::pair<double, size_t>> scored;
  for (size_t i = 0; i < database.size(); ++i) {
    scored.emplace_back(metric.Compute(query, database[i]), i);
  }
  std::sort(scored.begin(), scored.end());
  scored.resize(std::min(k, scored.size()));
  return scored;
}

// ---------------------------------------------------------------------
// Deadline.

TEST(DeadlineTest, DefaultIsInfiniteAndNeverExpires) {
  common::Deadline deadline;
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_TRUE(common::CheckDeadline(deadline, "anywhere").ok());
}

TEST(DeadlineTest, ExpiresWhenTheClockPassesTheBudget) {
  g_fake_now = 100.0;
  const auto deadline = common::Deadline::AfterSeconds(5.0, &FakeClock);
  EXPECT_FALSE(deadline.Expired());
  g_fake_now = 105.0;
  EXPECT_FALSE(deadline.Expired());  // Boundary: not yet past.
  g_fake_now = 105.1;
  EXPECT_TRUE(deadline.Expired());
}

TEST(DeadlineTest, CheckDeadlineNamesTheStage) {
  g_fake_now = 0.0;
  const auto deadline = common::Deadline::AfterSeconds(1.0, &FakeClock);
  g_fake_now = 2.0;
  const common::Status status = common::CheckDeadline(deadline, "rerank");
  EXPECT_EQ(status.code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("'rerank'"), std::string::npos);
}

TEST(DeadlineTest, RemainingSecondsCountsDown) {
  g_fake_now = 10.0;
  const auto deadline = common::Deadline::AfterSeconds(4.0, &FakeClock);
  g_fake_now = 11.0;
  EXPECT_DOUBLE_EQ(deadline.RemainingSeconds(), 3.0);
}

// ---------------------------------------------------------------------
// Admission.

TEST(AdmissionTest, AdmitsUpToCapacityThenSheds) {
  Admission admission(2);
  EXPECT_TRUE(admission.TryEnter());
  EXPECT_TRUE(admission.TryEnter());
  EXPECT_FALSE(admission.TryEnter());  // Reject-newest above high water.
  admission.Exit();
  EXPECT_TRUE(admission.TryEnter());  // A released slot is reusable.
  EXPECT_EQ(admission.active(), 2u);
}

// ---------------------------------------------------------------------
// Circuit breaker state machine, on a fake clock.

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresOnly) {
  g_fake_now = 0.0;
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.clock = &FakeClock;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();  // Resets the consecutive count.
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
}

TEST(CircuitBreakerTest, OpenShortCircuitsUntilCooldownElapses) {
  g_fake_now = 0.0;
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_seconds = 10.0;
  config.clock = &FakeClock;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest());
  g_fake_now = 9.9;
  EXPECT_FALSE(breaker.AllowRequest());
  g_fake_now = 10.0;
  EXPECT_TRUE(breaker.AllowRequest());  // Admitted as the half-open probe.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsOneProbeAtATime) {
  g_fake_now = 0.0;
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_seconds = 1.0;
  config.clock = &FakeClock;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  g_fake_now = 2.0;
  ASSERT_TRUE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());  // Probe already in flight.
  breaker.RecordSuccess();
  EXPECT_TRUE(breaker.AllowRequest());  // Next probe may go.
}

TEST(CircuitBreakerTest, ClosesAfterEnoughProbeSuccesses) {
  g_fake_now = 0.0;
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_seconds = 1.0;
  config.close_successes = 2;
  config.clock = &FakeClock;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  g_fake_now = 2.0;
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  g_fake_now = 0.0;
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_seconds = 10.0;
  config.clock = &FakeClock;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  g_fake_now = 10.0;
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  g_fake_now = 19.0;  // Cooldown restarted at t=10, not t=0.
  EXPECT_FALSE(breaker.AllowRequest());
  g_fake_now = 20.0;
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, AbandonedProbeReleasesTheSlotWithoutClosing) {
  g_fake_now = 0.0;
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_seconds = 1.0;
  config.close_successes = 1;
  config.clock = &FakeClock;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  g_fake_now = 2.0;
  ASSERT_TRUE(breaker.AllowRequest());
  breaker.RecordAbandoned();  // e.g. the probe's deadline expired.
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.AllowRequest());  // Slot is free again.
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

// ---------------------------------------------------------------------
// Server construction.

TEST(SimilarityServerTest, CreateRejectsMalformedDatabases) {
  const auto hausdorff = [] {
    return dist::CreateMetric(dist::MetricType::kHausdorff);
  };
  // Null metric.
  auto s = SimilarityServer::Create(FastConfig(), TestDatabase(4, 1),
                                    nullptr, nullptr);
  EXPECT_EQ(s.status().code(), common::StatusCode::kInvalidArgument);
  // Empty database.
  s = SimilarityServer::Create(FastConfig(), {}, hausdorff(), nullptr);
  EXPECT_EQ(s.status().code(), common::StatusCode::kInvalidArgument);
  // One empty trajectory.
  auto database = TestDatabase(4, 1);
  database[2] = geo::Trajectory();
  s = SimilarityServer::Create(FastConfig(), database, hausdorff(), nullptr);
  EXPECT_EQ(s.status().code(), common::StatusCode::kInvalidArgument);
  // One non-finite coordinate.
  database = TestDatabase(4, 1);
  database[1][3].lat = std::nan("");
  s = SimilarityServer::Create(FastConfig(), database, hausdorff(), nullptr);
  EXPECT_EQ(s.status().code(), common::StatusCode::kInvalidArgument);
  // Zero capacity is a config bug, not a runtime state.
  ServerConfig zero = FastConfig();
  zero.queue_capacity = 0;
  s = SimilarityServer::Create(zero, TestDatabase(4, 1), hausdorff(),
                               nullptr);
  EXPECT_EQ(s.status().code(), common::StatusCode::kInvalidArgument);
  // So is a zero micro-batch size: the dispatcher would close an empty
  // batch on the first SubmitTopK, which the submit below would reach.
  zero = FastConfig();
  zero.batching.max_batch_size = 0;
  s = SimilarityServer::Create(zero, TestDatabase(4, 1), hausdorff(),
                               nullptr);
  EXPECT_EQ(s.status().code(), common::StatusCode::kInvalidArgument);
  if (s.ok()) {
    EXPECT_TRUE(s.value()->SubmitTopK(TestDatabase(4, 1)[0], 1).ok());
  }
}

TEST(SimilarityServerTest, ComesUpDegradedWithoutAModel) {
  auto server = SimilarityServer::Create(
      FastConfig(), TestDatabase(8, 2),
      dist::CreateMetric(dist::MetricType::kHausdorff), nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_FALSE(server.value()->embedding_tier_available());
  EXPECT_EQ(server.value()->model_status().code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.value()->rerank_tier_available());
}

TEST(SimilarityServerTest, PairwiseModelCannotServeTierOne) {
  core::TmnModelConfig config;
  config.hidden_dim = 8;
  config.use_matching = true;  // Pairwise: no per-trajectory embedding.
  auto server = SimilarityServer::Create(
      FastConfig(), TestDatabase(8, 2),
      dist::CreateMetric(dist::MetricType::kHausdorff),
      std::make_unique<core::TmnModel>(config));
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->embedding_tier_available());
  EXPECT_EQ(server.value()->model_status().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(SimilarityServerTest, MissingModelFileDegradesInsteadOfFailing) {
  auto server = SimilarityServer::CreateFromFile(
      FastConfig(), TestDatabase(8, 2),
      dist::CreateMetric(dist::MetricType::kHausdorff),
      ::testing::TempDir() + "/no_such_model.tmn");
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_FALSE(server.value()->embedding_tier_available());
  EXPECT_EQ(server.value()->model_status().code(),
            common::StatusCode::kNotFound);
  // Degraded, not down: queries still get exact answers.
  const auto db = TestDatabase(8, 2);
  auto r = server.value()->TopK(db[0], 3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServeTier::kExactRerank);
}

// ---------------------------------------------------------------------
// Query validation and tier behavior.

TEST(SimilarityServerTest, RejectsMalformedQueries) {
  auto server = SimilarityServer::Create(
      FastConfig(), TestDatabase(8, 3),
      dist::CreateMetric(dist::MetricType::kHausdorff), nullptr);
  ASSERT_TRUE(server.ok());
  const auto db = TestDatabase(8, 3);
  EXPECT_EQ(server.value()->TopK(db[0], 0).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(server.value()->TopK(geo::Trajectory(), 3).status().code(),
            common::StatusCode::kInvalidArgument);
  geo::Trajectory bad = db[0];
  bad[0].lon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(server.value()->TopK(bad, 3).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST(SimilarityServerTest, HealthyServerAnswersFromTierOne) {
  auto server = SimilarityServer::Create(
      FastConfig(), TestDatabase(12, 4),
      dist::CreateMetric(dist::MetricType::kHausdorff), TestModel());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value()->embedding_tier_available())
      << server.value()->model_status().ToString();
  const auto db = TestDatabase(12, 4);
  auto r = server.value()->TopK(db[5], 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServeTier::kEmbeddingAnn);
  EXPECT_EQ(r.value().indices.size(), 4u);
  EXPECT_EQ(r.value().distances.size(), 4u);
  EXPECT_EQ(server.value()->breaker_state(),
            CircuitBreaker::State::kClosed);
}

TEST(SimilarityServerTest, KIsClampedToDatabaseSize) {
  auto server = SimilarityServer::Create(
      FastConfig(), TestDatabase(5, 5),
      dist::CreateMetric(dist::MetricType::kHausdorff), nullptr);
  ASSERT_TRUE(server.ok());
  const auto db = TestDatabase(5, 5);
  auto r = server.value()->TopK(db[0], 100);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().indices.size(), 5u);
}

TEST(SimilarityServerTest, RerankTierIsExactWhenThePoolCoversTheDatabase) {
  // With rerank_candidates >= n the candidate pool is the whole database,
  // so tier 2 must reproduce the exact reference ranking bit for bit.
  ServerConfig config;
  config.rerank_candidates = 64;
  auto db = TestDatabase(16, 6);
  // Copies of the queries: each query then has two zero-distance hits,
  // which must rank by ascending id.
  for (size_t q = 0; q < 3; ++q) db.push_back(db[q]);
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kDtw), nullptr);
  ASSERT_TRUE(server.ok());
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  for (size_t q = 0; q < 3; ++q) {
    auto r = server.value()->TopK(db[q], 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kExactRerank);
    const auto reference = ExactReference(*metric, db, db[q], 5);
    ASSERT_EQ(r.value().indices.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(r.value().indices[i], reference[i].second);
      EXPECT_EQ(r.value().distances[i], reference[i].first);
    }
    EXPECT_EQ(r.value().indices[0], q);
    EXPECT_EQ(r.value().indices[1], 16 + q);
    EXPECT_EQ(r.value().distances[0], 0.0);
    EXPECT_EQ(r.value().distances[1], 0.0);
  }
}

TEST(SimilarityServerTest, BruteForceTierMatchesTheExactReference) {
  ServerConfig config;
  config.enable_rerank_tier = false;
  auto db = TestDatabase(16, 7);
  db.push_back(db[3]);  // A second zero-distance hit, at id 16.
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kDtw), nullptr);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->embedding_tier_available());
  EXPECT_FALSE(server.value()->rerank_tier_available());
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  auto r = server.value()->TopK(db[3], 6);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServeTier::kExactBruteForce);
  // The database is within max_brute_force, so the scan saw all of it.
  EXPECT_FALSE(r.value().partial);
  const auto reference = ExactReference(*metric, db, db[3], 6);
  ASSERT_EQ(r.value().indices.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(r.value().indices[i], reference[i].second);
    EXPECT_EQ(r.value().distances[i], reference[i].first);
  }
  // Equal distances rank by ascending id.
  EXPECT_EQ(r.value().indices[0], 3u);
  EXPECT_EQ(r.value().indices[1], 16u);
  EXPECT_EQ(r.value().distances[0], 0.0);
  EXPECT_EQ(r.value().distances[1], 0.0);
}

TEST(SimilarityServerTest, BruteForceScanIsBounded) {
  ServerConfig config;
  config.enable_rerank_tier = false;
  config.max_brute_force = 4;  // Only the first 4 entries are eligible.
  const auto db = TestDatabase(12, 8);
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kHausdorff), nullptr);
  ASSERT_TRUE(server.ok());
  const obs::Counter& partial_served = obs::Registry::Global().GetCounter(
      "tmn.serve.partial_served", obs::Stability::kUnstable);
  const uint64_t partial_before = partial_served.value();
  auto r = server.value()->TopK(db[0], 12);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().indices.size(), 4u);
  for (size_t i : r.value().indices) EXPECT_LT(i, 4u);
  // The other 8 entries were never scored, so the response says so.
  EXPECT_TRUE(r.value().partial);
  EXPECT_EQ(partial_served.value(), partial_before + 1);
}

// ---------------------------------------------------------------------
// Load shedding.

TEST(SimilarityServerTest, AdmissionBoundsBothEntryPointsTogether) {
  // A batcher that cannot flush before destruction: every submitted query
  // stays parked, holding its admission slot.
  ServerConfig config = FastConfig();
  config.queue_capacity = 4;
  config.batching.max_batch_size = 100;
  config.batching.max_linger_seconds = 1000.0;
  config.batching.flush_slack_seconds = 0.0;
  const auto db = TestDatabase(8, 9);
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kHausdorff), nullptr);
  ASSERT_TRUE(server.ok());
  // Reject-newest: exactly the first queue_capacity queries are admitted.
  std::vector<std::future<common::StatusOr<QueryResult>>> admitted;
  for (size_t i = 0; i < 7; ++i) {
    auto submitted = server.value()->SubmitTopK(db[i], 3);
    if (i < 4) {
      ASSERT_TRUE(submitted.ok()) << "query " << i;
      admitted.push_back(std::move(submitted.value()));
    } else {
      EXPECT_EQ(submitted.status().code(),
                common::StatusCode::kResourceExhausted)
          << "query " << i;
    }
  }
  // The serial entry point counts against the same bound.
  EXPECT_EQ(server.value()->TopK(db[0], 3).status().code(),
            common::StatusCode::kResourceExhausted);
  server.value().reset();  // Drain: every admitted query gets its answer.
  for (size_t i = 0; i < admitted.size(); ++i) {
    const common::StatusOr<QueryResult> r = admitted[i].get();
    ASSERT_TRUE(r.ok()) << "query " << i << ": " << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kExactRerank);
  }
}

// ---------------------------------------------------------------------
// Deadlines through the pipeline.

TEST(SimilarityServerTest, ExpiredDeadlineFailsAtAdmission) {
  g_fake_now = 0.0;
  const auto db = TestDatabase(8, 10);
  auto server = SimilarityServer::Create(
      FastConfig(), db, dist::CreateMetric(dist::MetricType::kHausdorff),
      nullptr);
  ASSERT_TRUE(server.ok());
  const auto deadline = common::Deadline::AfterSeconds(1.0, &FakeClock);
  g_fake_now = 5.0;  // Budget already blown before the query starts.
  const auto r = server.value()->TopK(db[0], 3, deadline);
  EXPECT_EQ(r.status().code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().message().find("'admission'"), std::string::npos);
}

TEST(SimilarityServerTest, DeadlineSweepHitsEveryStageThenSucceeds) {
  // A stepping clock advances one tick per read, so a budget of B ticks
  // survives exactly B deadline checks: sweeping B walks the expiry
  // through the pipeline stage by stage. The transition must be monotone
  // — once a budget succeeds, every larger budget succeeds — and the
  // failures must name pipeline stages from more than one tier.
  const auto db = TestDatabase(8, 11);
  auto server = SimilarityServer::Create(
      FastConfig(), db, dist::CreateMetric(dist::MetricType::kHausdorff),
      TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->embedding_tier_available());
  std::vector<std::string> failure_messages;
  bool succeeded = false;
  for (double budget = 0.5; budget < 200.0; budget += 1.0) {
    g_step_now = 0.0;
    const auto deadline =
        common::Deadline::AfterSeconds(budget, &SteppingClock);
    const auto r = server.value()->TopK(db[2], 3, deadline);
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
    // The breaker must never count deadline expiries as model failures.
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

TEST(SimilarityServerTest, DefaultDeadlineAppliesWhenCallerPassesNone) {
  // default_deadline_seconds with a stepping clock: a 1-tick budget dies
  // at the first post-admission check even though the caller passed no
  // deadline at all.
  ServerConfig config = FastConfig();
  config.default_deadline_seconds = 0.5;
  config.clock = &SteppingClock;
  const auto db = TestDatabase(8, 12);
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kHausdorff), nullptr);
  ASSERT_TRUE(server.ok());
  g_step_now = 0.0;
  const auto r = server.value()->TopK(db[0], 3);
  EXPECT_EQ(r.status().code(), common::StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace tmn::serve
