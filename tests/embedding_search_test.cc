#include <algorithm>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/status.h"
#include "eval/embedding_search.h"
#include "nn/rng.h"

namespace tmn::eval {
namespace {

std::vector<std::vector<float>> RandomEmbeddings(size_t n, size_t dim,
                                                 uint64_t seed) {
  nn::Rng rng(seed);
  std::vector<std::vector<float>> out(n, std::vector<float>(dim));
  for (auto& e : out) {
    for (float& v : e) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return out;
}

TEST(EmbeddingSearchTest, BackendNames) {
  EXPECT_EQ(SearchBackendName(SearchBackend::kBruteForce), "brute-force");
  EXPECT_EQ(SearchBackendName(SearchBackend::kKdTree), "kd-tree");
  EXPECT_EQ(SearchBackendName(SearchBackend::kHnsw), "HNSW");
}

TEST(EmbeddingSearchTest, ExactBackendsAgree) {
  const auto embeddings = RandomEmbeddings(150, 8, 5);
  EmbeddingSearch brute(embeddings, SearchBackend::kBruteForce);
  EmbeddingSearch kd(embeddings, SearchBackend::kKdTree);
  nn::Rng rng(6);
  for (int t = 0; t < 10; ++t) {
    std::vector<float> q(8);
    for (float& v : q) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    EXPECT_EQ(brute.Nearest(q, 7), kd.Nearest(q, 7));
  }
}

TEST(EmbeddingSearchTest, HnswRecallAgainstExact) {
  const auto embeddings = RandomEmbeddings(400, 16, 7);
  EmbeddingSearch brute(embeddings, SearchBackend::kBruteForce);
  index::HnswConfig config;
  config.ef_search = 64;
  EmbeddingSearch hnsw(embeddings, SearchBackend::kHnsw, config);
  double recall = 0.0;
  for (size_t q = 0; q < 20; ++q) {
    const auto exact = brute.Nearest(embeddings[q], 10);
    const auto approx = hnsw.Nearest(embeddings[q], 10);
    size_t hits = 0;
    for (size_t idx : approx) {
      if (std::find(exact.begin(), exact.end(), idx) != exact.end()) ++hits;
    }
    recall += static_cast<double>(hits) / 10.0;
  }
  EXPECT_GE(recall / 20.0, 0.85);
}

TEST(EmbeddingSearchTest, NearestToStoredExcludesSelf) {
  const auto embeddings = RandomEmbeddings(50, 4, 8);
  for (SearchBackend backend :
       {SearchBackend::kBruteForce, SearchBackend::kKdTree,
        SearchBackend::kHnsw}) {
    EmbeddingSearch search(embeddings, backend);
    for (size_t i = 0; i < 10; ++i) {
      const auto result = search.NearestToStored(i, 5);
      EXPECT_EQ(result.size(), 5u) << SearchBackendName(backend);
      for (size_t idx : result) {
        EXPECT_NE(idx, i) << SearchBackendName(backend);
      }
    }
  }
}

TEST(EmbeddingSearchTest, SelfQueryFindsSelfFirst) {
  const auto embeddings = RandomEmbeddings(60, 6, 9);
  EmbeddingSearch search(embeddings, SearchBackend::kBruteForce);
  for (size_t i = 0; i < embeddings.size(); i += 7) {
    const auto result = search.Nearest(embeddings[i], 1);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0], i);
  }
}

TEST(EmbeddingSearchTest, NearestCheckedMatchesNearestOnEveryBackend) {
  // 700 rows: the brute-force scan crosses two block boundaries. Every
  // tenth embedding repeats an earlier one, so distances tie.
  auto embeddings = RandomEmbeddings(700, 16, 10);
  for (size_t i = 10; i < embeddings.size(); i += 10) {
    embeddings[i] = embeddings[i / 2];
  }
  nn::Rng rng(11);
  for (SearchBackend backend :
       {SearchBackend::kBruteForce, SearchBackend::kKdTree,
        SearchBackend::kHnsw}) {
    EmbeddingSearch search(embeddings, backend);
    for (int t = 0; t < 8; ++t) {
      const auto& q = embeddings[rng.UniformInt(embeddings.size())];
      const auto checked = search.NearestChecked(q, 12);
      ASSERT_TRUE(checked.ok()) << checked.status().ToString();
      EXPECT_EQ(checked.value(), search.Nearest(q, 12))
          << SearchBackendName(backend);
    }
  }
}

TEST(EmbeddingSearchTest, BruteForceScanStopsAtTheDeadlineBetweenBlocks) {
  // Each clock read advances one second: the deadline is made at 0 and
  // expires at 1, the entry check reads 1, and the check before the
  // second block of 256 reads 2.
  static double now;
  now = 0.0;
  const auto clock = +[] { return now++; };
  const auto embeddings = RandomEmbeddings(300, 4, 12);
  EmbeddingSearch search(embeddings, SearchBackend::kBruteForce);
  const auto deadline = common::Deadline::AfterSeconds(1.0, clock);
  const auto result = search.NearestChecked(embeddings[0], 3, deadline);
  EXPECT_EQ(result.status().code(), common::StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().ToString().find("brute-force scan"),
            std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace tmn::eval
