// Fault matrix for the serving layer (docs/SERVING.md): armed failpoints
// knock out the model, the feature index, and the brute-force fallback —
// individually and stacked — and every query must still come back either
// with a correct top-k tagged with the tier that produced it or with a
// typed non-OK Status. Never a crash, never a silently wrong answer.
//
// The failpoint *sites* compile away unless the library was built with
// -DTMN_FAILPOINTS=ON (the failpoints lane), so injected scenarios
// skip in plain builds; the baseline case runs anywhere.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "core/model_io.h"
#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "distance/metric.h"
#include "geo/preprocess.h"
#include "serve/similarity_server.h"

namespace tmn::serve {
namespace {

// Atomic: the batched path reads the breaker clock from pipeline
// threads while the test thread advances it.
std::atomic<double> g_fake_now{0.0};
double FakeClock() { return g_fake_now.load(); }

class ServeFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { common::DeactivateAllFailpoints(); }
  void TearDown() override { common::DeactivateAllFailpoints(); }
};

// GTEST_SKIP only leaves the enclosing function, so the gate must expand
// directly inside each test body (not in a helper).
#define REQUIRE_FAILPOINTS()                                   \
  if (!::tmn::common::FailpointsEnabled()) {                   \
    GTEST_SKIP() << "library built without failpoint sites";   \
  }                                                            \
  static_assert(true, "require a trailing semicolon")

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
  config.use_matching = false;
  return std::make_unique<core::TmnModel>(config);
}

// Full-coverage config: the rerank pool spans the whole test database, so
// tiers 2 and 3 are both exact and comparable against the reference.
ServerConfig FullPoolConfig() {
  ServerConfig config;
  config.rerank_candidates = 64;
  return config;
}

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

void ExpectMatchesReference(const QueryResult& result,
                            const std::vector<std::pair<double, size_t>>&
                                reference) {
  ASSERT_EQ(result.indices.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result.indices[i], reference[i].second) << "rank " << i;
    EXPECT_EQ(result.distances[i], reference[i].first) << "rank " << i;
  }
}

// Serializes a list of responses to one string, bit-exact for doubles,
// so two runs can be compared with a single EXPECT_EQ.
std::string SerializeResponses(
    const std::vector<common::StatusOr<QueryResult>>& responses) {
  std::ostringstream out;
  for (const auto& r : responses) {
    if (!r.ok()) {
      out << "status=" << common::StatusCodeName(r.status().code()) << "\n";
      continue;
    }
    out << "tier=" << ServeTierName(r.value().tier);
    for (size_t i = 0; i < r.value().indices.size(); ++i) {
      out << " " << r.value().indices[i] << ":"
          << std::hexfloat << r.value().distances[i] << std::defaultfloat;
    }
    out << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------
// Baseline: every tier healthy.

TEST_F(ServeFaultsTest, BaselineServesFromTierOne) {
  const auto db = TestDatabase(12, 21);
  auto server = SimilarityServer::Create(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      TestModel());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE(server.value()->embedding_tier_available())
      << server.value()->model_status().ToString();
  for (size_t q = 0; q < 4; ++q) {
    auto r = server.value()->TopK(db[q], 4);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kEmbeddingAnn);
    EXPECT_EQ(r.value().indices.size(), 4u);
  }
}

// ---------------------------------------------------------------------
// Single faults.

TEST_F(ServeFaultsTest, ModelLoadFailureDegradesToExactRerank) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(12, 22);
  // Write a perfectly good model bundle, then inject the load failure —
  // proving degradation is decided by the Status, not by file state.
  const std::string path = ::testing::TempDir() + "/serve_model.tmn";
  {
    core::TmnModelConfig config;
    config.hidden_dim = 8;
    config.use_matching = false;
    ASSERT_TRUE(core::SaveTmnModel(path, core::TmnModel(config)).ok());
  }
  common::ActivateFailpoint("core.model_io.load", 1);
  auto server = SimilarityServer::CreateFromFile(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_FALSE(server.value()->embedding_tier_available());
  EXPECT_EQ(server.value()->model_status().code(),
            common::StatusCode::kIoError);
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  for (size_t q = 0; q < 3; ++q) {
    auto r = server.value()->TopK(db[q], 4);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kExactRerank);
    ExpectMatchesReference(r.value(), ExactReference(*metric, db, db[q], 4));
  }
  std::remove(path.c_str());
}

TEST_F(ServeFaultsTest, PerQueryEncodeFailureFallsBackThenRecovers) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(12, 23);
  auto server = SimilarityServer::Create(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->embedding_tier_available());
  // One-shot failure on the next encode: that query degrades to tier 2
  // with a still-correct answer...
  common::ActivateFailpoint("eval.encode", 1);
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  auto degraded = server.value()->TopK(db[1], 4);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.value().tier, ServeTier::kExactRerank);
  ExpectMatchesReference(degraded.value(),
                         ExactReference(*metric, db, db[1], 4));
  // ...and the failpoint is one-shot, so the very next query is back on
  // tier 1 (one failure is below the default breaker threshold of 3).
  auto recovered = server.value()->TopK(db[2], 4);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().tier, ServeTier::kEmbeddingAnn);
  EXPECT_EQ(server.value()->breaker_state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(ServeFaultsTest, RepeatedEncodeFailuresOpenTheBreaker) {
  REQUIRE_FAILPOINTS();
  g_fake_now = 0.0;
  const auto db = TestDatabase(12, 24);
  ServerConfig config = FullPoolConfig();
  config.clock = &FakeClock;
  config.breaker.failure_threshold = 2;
  config.breaker.open_seconds = 100.0;
  config.breaker.close_successes = 1;
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kDtw), TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->embedding_tier_available());
  // Two consecutive encode failures: the breaker opens; both queries are
  // still answered (degraded, exact).
  for (int i = 0; i < 2; ++i) {
    common::ActivateFailpoint("eval.encode", 1);
    auto r = server.value()->TopK(db[i], 4);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kExactRerank);
  }
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kOpen);
  // While open the model is never consulted: no failpoint armed, and the
  // query short-circuits straight to tier 2.
  auto shorted = server.value()->TopK(db[3], 4);
  ASSERT_TRUE(shorted.ok());
  EXPECT_EQ(shorted.value().tier, ServeTier::kExactRerank);
  // After the cooldown a healthy probe closes it and tier 1 is back.
  g_fake_now = 200.0;
  auto probe = server.value()->TopK(db[4], 4);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.value().tier, ServeTier::kEmbeddingAnn);
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(server.value()->breaker().times_opened(), 1u);
}

TEST_F(ServeFaultsTest, FeatureIndexBuildFailureLeavesTiersOneAndThree) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(12, 25);
  common::ActivateFailpoint("serve.feature_index.build", 1);
  auto server = SimilarityServer::Create(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      TestModel());
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server.value()->embedding_tier_available());
  EXPECT_FALSE(server.value()->rerank_tier_available());
  EXPECT_EQ(server.value()->feature_index_status().code(),
            common::StatusCode::kUnavailable);
  // Tier 1 still serves; when its encode fails the ladder skips the dead
  // tier 2 and lands on brute force — still exact.
  common::ActivateFailpoint("eval.encode", 1);
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  auto r = server.value()->TopK(db[5], 4);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServeTier::kExactBruteForce);
  ExpectMatchesReference(r.value(), ExactReference(*metric, db, db[5], 4));
}

// ---------------------------------------------------------------------
// Stacked faults.

TEST_F(ServeFaultsTest, ModelAndFeatureIndexDownServesExactBruteForce) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(12, 26);
  common::ActivateFailpoint("serve.feature_index.build", 1);
  auto server = SimilarityServer::Create(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      /*model=*/nullptr);
  ASSERT_TRUE(server.ok());
  EXPECT_FALSE(server.value()->embedding_tier_available());
  EXPECT_FALSE(server.value()->rerank_tier_available());
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  for (size_t q = 0; q < 3; ++q) {
    auto r = server.value()->TopK(db[q], 5);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kExactBruteForce);
    ExpectMatchesReference(r.value(), ExactReference(*metric, db, db[q], 5));
  }
}

TEST_F(ServeFaultsTest, AllTiersDownReturnsTypedUnavailable) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(12, 27);
  common::ActivateFailpoint("serve.feature_index.build", 1);
  auto server = SimilarityServer::Create(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      /*model=*/nullptr);
  ASSERT_TRUE(server.ok());
  // The last tier dies per-query: this query gets a typed error...
  common::ActivateFailpoint("serve.brute_force", 1);
  auto dead = server.value()->TopK(db[0], 4);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), common::StatusCode::kUnavailable);
  // ...and the next one (failpoint disarmed) is served again.
  auto alive = server.value()->TopK(db[0], 4);
  ASSERT_TRUE(alive.ok()) << alive.status().ToString();
  EXPECT_EQ(alive.value().tier, ServeTier::kExactBruteForce);
}

// ---------------------------------------------------------------------
// The micro-batched pipeline (SubmitTopK) under the same fault matrix:
// degradation, breaker accounting and recovery must be exactly the serial
// story even when the failure fires inside a formed batch.

// Collects one SubmitTopK result, failing the test if the query was shed
// at admission (these tests stay under the capacity).
common::StatusOr<QueryResult> SubmitOne(SimilarityServer& server,
                                        const geo::Trajectory& query,
                                        size_t k) {
  auto submitted = server.SubmitTopK(query, k);
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  if (!submitted.ok()) return submitted.status();
  return submitted.value().get();
}

TEST_F(ServeFaultsTest, BatchedEncodeFailureFallsBackThenRecovers) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(12, 31);
  ServerConfig config = FullPoolConfig();
  config.batching.max_batch_size = 1;  // One query per batch: the armed
                                       // one-shot hits a known member.
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kDtw), TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->embedding_tier_available());
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  // The encode failure fires inside the batch encode stage; the member
  // must still resolve through tier 2 with a correct answer.
  common::ActivateFailpoint("eval.encode", 1);
  auto degraded = SubmitOne(*server.value(), db[1], 4);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.value().tier, ServeTier::kExactRerank);
  ExpectMatchesReference(degraded.value(),
                         ExactReference(*metric, db, db[1], 4));
  // One failure was recorded (not abandoned, not dropped): below the
  // default threshold of 3, so tier 1 is immediately back.
  auto recovered = SubmitOne(*server.value(), db[2], 4);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().tier, ServeTier::kEmbeddingAnn);
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kClosed);
}

TEST_F(ServeFaultsTest, BatchedEncodeFailuresOpenTheBreakerThenProbeCloses) {
  REQUIRE_FAILPOINTS();
  g_fake_now = 0.0;
  const auto db = TestDatabase(12, 32);
  ServerConfig config = FullPoolConfig();
  config.clock = &FakeClock;
  config.breaker.failure_threshold = 2;
  config.breaker.open_seconds = 100.0;
  config.breaker.close_successes = 1;
  config.batching.max_batch_size = 1;
  auto server = SimilarityServer::Create(
      config, db, dist::CreateMetric(dist::MetricType::kDtw), TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(server.value()->embedding_tier_available());
  for (int i = 0; i < 2; ++i) {
    common::ActivateFailpoint("eval.encode", 1);
    auto r = SubmitOne(*server.value(), db[i], 4);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().tier, ServeTier::kExactRerank);
  }
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kOpen);
  // Open breaker: the batch encode stage never consults the model (no
  // failpoint armed — a model call would succeed and wrongly probe).
  auto shorted = SubmitOne(*server.value(), db[3], 4);
  ASSERT_TRUE(shorted.ok());
  EXPECT_EQ(shorted.value().tier, ServeTier::kExactRerank);
  // After the cooldown the half-open probe flows through the batched
  // encode, closes the breaker, and tier 1 is back.
  g_fake_now = 200.0;
  auto probe = SubmitOne(*server.value(), db[4], 4);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_EQ(probe.value().tier, ServeTier::kEmbeddingAnn);
  EXPECT_EQ(server.value()->breaker_state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(server.value()->breaker().times_opened(), 1u);
}

TEST_F(ServeFaultsTest, BatchedPathOnDegradedServerMatchesSerialBitwise) {
  REQUIRE_FAILPOINTS();
  const auto db = TestDatabase(16, 33);
  std::vector<geo::Trajectory> queries(db.begin(), db.begin() + 6);
  // Tier 1 dead at construction: the database pre-embedding hits the
  // armed encode fault, so every query walks the ladder from tier 2.
  common::ActivateFailpoint("eval.encode", 1);
  auto server = SimilarityServer::Create(
      FullPoolConfig(), db, dist::CreateMetric(dist::MetricType::kDtw),
      TestModel());
  ASSERT_TRUE(server.ok());
  ASSERT_FALSE(server.value()->embedding_tier_available());
  std::vector<common::StatusOr<QueryResult>> serial;
  for (const auto& q : queries) serial.push_back(server.value()->TopK(q, 4));
  std::vector<common::StatusOr<QueryResult>> batched;
  for (const auto& q : queries) {
    batched.push_back(SubmitOne(*server.value(), q, 4));
  }
  EXPECT_EQ(SerializeResponses(serial), SerializeResponses(batched));
  EXPECT_NE(SerializeResponses(serial).find("tier=exact-rerank"),
            std::string::npos);
}

}  // namespace
}  // namespace tmn::serve
