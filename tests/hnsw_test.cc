#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "index/hnsw.h"
#include "index/kd_tree.h"
#include "nn/rng.h"
#include "obs/metrics.h"

namespace tmn::index {
namespace {

std::vector<float> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  nn::Rng rng(seed);
  std::vector<float> points(n * dim);
  for (float& v : points) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return points;
}

TEST(HnswTest, EmptyIndex) {
  HnswIndex index(4);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.Nearest({0, 0, 0, 0}, 3).empty());
}

TEST(HnswTest, SinglePoint) {
  HnswIndex index(2);
  EXPECT_EQ(index.Add({1.0f, 2.0f}), 0u);
  const auto result = index.Nearest({0.0f, 0.0f}, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], 0u);
}

TEST(HnswTest, ExactOnTinySet) {
  // With few points, the beam covers everything: results must be exact.
  HnswIndex index(2);
  const std::vector<std::vector<float>> points{
      {0, 0}, {1, 0}, {2, 0}, {3, 0}, {10, 10}};
  for (const auto& p : points) index.Add(p);
  const auto result = index.Nearest({1.2f, 0.0f}, 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], 1u);
  EXPECT_EQ(result[1], 2u);
  EXPECT_EQ(result[2], 0u);
}

TEST(HnswTest, SelfQueryReturnsSelfFirst) {
  const size_t dim = 8;
  const auto flat = RandomPoints(100, dim, 3);
  HnswIndex index(dim);
  for (size_t i = 0; i < 100; ++i) {
    index.Add(std::vector<float>(flat.begin() + i * dim,
                                 flat.begin() + (i + 1) * dim));
  }
  for (size_t i = 0; i < 100; i += 10) {
    const std::vector<float> q(flat.begin() + i * dim,
                               flat.begin() + (i + 1) * dim);
    const auto result = index.Nearest(q, 1);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0], i);
  }
}

struct HnswRecallCase {
  size_t n;
  size_t dim;
  size_t k;
  size_t ef;
  double min_recall;
};

class HnswRecallTest : public ::testing::TestWithParam<HnswRecallCase> {};

TEST_P(HnswRecallTest, RecallAgainstBruteForce) {
  const HnswRecallCase& c = GetParam();
  const auto flat = RandomPoints(c.n, c.dim, 41 + c.n);
  HnswIndex index(c.dim);
  for (size_t i = 0; i < c.n; ++i) {
    index.Add(std::vector<float>(flat.begin() + i * c.dim,
                                 flat.begin() + (i + 1) * c.dim));
  }
  nn::Rng rng(77);
  double recall_sum = 0.0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    std::vector<float> q(c.dim);
    for (float& v : q) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const auto truth = BruteForceNearest(flat, c.dim, q, c.k);
    const auto approx = index.Nearest(q, c.k, c.ef);
    size_t hits = 0;
    for (size_t idx : approx) {
      if (std::find(truth.begin(), truth.end(), idx) != truth.end()) {
        ++hits;
      }
    }
    recall_sum += static_cast<double>(hits) / static_cast<double>(c.k);
  }
  EXPECT_GE(recall_sum / trials, c.min_recall)
      << "n=" << c.n << " dim=" << c.dim << " ef=" << c.ef;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HnswRecallTest,
    ::testing::Values(HnswRecallCase{200, 4, 5, 64, 0.95},
                      HnswRecallCase{500, 8, 10, 64, 0.9},
                      HnswRecallCase{1000, 16, 10, 128, 0.9},
                      HnswRecallCase{1000, 16, 10, 16, 0.5}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.dim) + "ef" +
             std::to_string(info.param.ef);
    });

TEST(HnswTest, LargerBeamNeverHurtsMuch) {
  const size_t dim = 8;
  const size_t n = 400;
  const auto flat = RandomPoints(n, dim, 9);
  HnswIndex index(dim);
  for (size_t i = 0; i < n; ++i) {
    index.Add(std::vector<float>(flat.begin() + i * dim,
                                 flat.begin() + (i + 1) * dim));
  }
  nn::Rng rng(10);
  double narrow = 0.0, wide = 0.0;
  for (int t = 0; t < 20; ++t) {
    std::vector<float> q(dim);
    for (float& v : q) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const auto truth = BruteForceNearest(flat, dim, q, 10);
    for (size_t ef : {10u, 200u}) {
      const auto approx = index.Nearest(q, 10, ef);
      size_t hits = 0;
      for (size_t idx : approx) {
        if (std::find(truth.begin(), truth.end(), idx) != truth.end()) {
          ++hits;
        }
      }
      (ef == 10u ? narrow : wide) += static_cast<double>(hits) / 10.0;
    }
  }
  EXPECT_GE(wide, narrow - 1e-9);
}

TEST(HnswTest, DuplicateVectorsHandled) {
  HnswIndex index(2);
  for (int i = 0; i < 10; ++i) index.Add({1.0f, 1.0f});
  index.Add({5.0f, 5.0f});
  const auto result = index.Nearest({1.0f, 1.0f}, 5);
  EXPECT_EQ(result.size(), 5u);
  for (size_t idx : result) EXPECT_LT(idx, 10u);
}

// NearestChecked: the validated entry point the serving path uses, where
// inputs that would be programmer errors (aborts) on Nearest come back as
// typed Statuses instead.
TEST(HnswTest, NearestCheckedRejectsMalformedInput) {
  HnswIndex empty(3);
  EXPECT_EQ(empty.NearestChecked({1, 2, 3}, 2).status().code(),
            common::StatusCode::kFailedPrecondition);

  HnswIndex index(3);
  index.Add({0, 0, 0});
  index.Add({1, 1, 1});
  EXPECT_EQ(index.NearestChecked({1, 2, 3}, 0).status().code(),
            common::StatusCode::kInvalidArgument);  // k == 0.
  EXPECT_EQ(index.NearestChecked({1, 2}, 2).status().code(),
            common::StatusCode::kInvalidArgument);  // Dimension mismatch.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(index.NearestChecked({1, nan, 3}, 2).status().code(),
            common::StatusCode::kInvalidArgument);  // Non-finite.
}

TEST(HnswTest, NearestCheckedClampsKAndMatchesNearest) {
  const size_t dim = 4;
  const auto flat = RandomPoints(50, dim, 17);
  HnswIndex index(dim);
  for (size_t i = 0; i < 50; ++i) {
    index.Add({flat.begin() + i * dim, flat.begin() + (i + 1) * dim});
  }
  const std::vector<float> q(dim, 0.25f);
  const auto checked = index.NearestChecked(q, 5);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  EXPECT_EQ(checked.value(), index.Nearest(q, 5));
  // k far beyond the index size returns everything, not garbage.
  const auto all = index.NearestChecked(q, 500);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 50u);
}

TEST(HnswTest, NearestCheckedHonorsAnExpiredDeadline) {
  HnswIndex index(2);
  for (int i = 0; i < 8; ++i) index.Add({float(i), float(i)});
  // A deadline that expired in the past: the search must not run at all.
  static double now;
  now = 10.0;
  const auto clock = +[] { return now; };
  const auto deadline = common::Deadline::AfterSeconds(1.0, clock);
  now = 20.0;
  const auto r = index.NearestChecked({0, 0}, 3, 0, deadline);
  EXPECT_EQ(r.status().code(), common::StatusCode::kDeadlineExceeded);
}


// ---------------------------------------------------------------------------
// Pinned graph: seeded indexes with their answers and walk effort written
// out as literals. Any change to a distance bit, the visit order or the
// visited bookkeeping moves an id or the nodes_visited count.

struct PinnedRun {
  std::vector<size_t> ids;     // kPinnedK ids per query, query-major.
  uint64_t nodes_visited = 0;  // Build plus queries.
};

constexpr size_t kPinnedQueries = 64;
constexpr size_t kPinnedK = 4;

PinnedRun RunPinned(size_t n, size_t dim, uint64_t seed) {
  obs::Counter& visited =
      obs::Registry::Global().GetCounter("tmn.index.hnsw.nodes_visited");
  const uint64_t before = visited.value();
  const auto flat = RandomPoints(n, dim, seed);
  HnswIndex index(dim);
  for (size_t i = 0; i < n; ++i) {
    index.Add({flat.begin() + i * dim, flat.begin() + (i + 1) * dim});
  }
  const auto queries = RandomPoints(kPinnedQueries, dim, seed + 1);
  PinnedRun run;
  for (size_t q = 0; q < kPinnedQueries; ++q) {
    const std::vector<float> query(queries.begin() + q * dim,
                                   queries.begin() + (q + 1) * dim);
    const auto found = index.Nearest(query, kPinnedK);
    EXPECT_EQ(found.size(), kPinnedK);
    run.ids.insert(run.ids.end(), found.begin(), found.end());
  }
  run.nodes_visited = visited.value() - before;
  return run;
}

TEST(HnswPinnedTest, Dim16AnswersAndWorkAreUnchanged) {
  const PinnedRun run = RunPinned(1500, 16, 101);
  const std::vector<size_t> expected = {
      1279, 933, 919, 1177, 186, 61, 851, 904,
      81, 1372, 52, 1383, 589, 1289, 732, 1388,
      173, 935, 264, 845, 1394, 267, 1331, 349,
      1306, 169, 1183, 485, 432, 529, 169, 117,
      735, 261, 1405, 1102, 675, 665, 956, 531,
      1407, 894, 1231, 407, 937, 1276, 732, 698,
      974, 593, 865, 1003, 425, 644, 880, 479,
      1104, 823, 103, 208, 210, 1406, 1423, 1028,
      174, 348, 1260, 680, 970, 1161, 421, 636,
      874, 475, 1443, 608, 592, 1317, 908, 1475,
      1224, 1460, 1373, 795, 519, 76, 762, 780,
      400, 950, 1230, 172, 195, 1476, 903, 1368,
      459, 1322, 1057, 855, 1399, 1315, 490, 1462,
      1251, 1403, 788, 439, 747, 1135, 227, 1329,
      1334, 1109, 144, 572, 245, 1169, 1224, 754,
      1250, 336, 674, 823, 643, 554, 1078, 128,
      71, 1370, 117, 231, 537, 1435, 713, 732,
      1349, 843, 514, 1185, 48, 878, 14, 534,
      407, 727, 1122, 250, 147, 567, 1258, 1003,
      820, 1464, 789, 31, 882, 1158, 1088, 100,
      948, 1209, 463, 1080, 741, 797, 156, 223,
      126, 845, 1396, 72, 414, 429, 1050, 992,
      761, 1133, 1004, 695, 235, 1059, 6, 688,
      1103, 493, 513, 112, 1061, 1100, 1480, 1344,
      1153, 1413, 886, 844, 251, 126, 686, 362,
      331, 742, 713, 500, 1442, 1262, 293, 1149,
      925, 1249, 1124, 632, 1363, 552, 517, 53,
      1345, 671, 866, 631, 524, 992, 184, 79,
      1309, 868, 14, 1045, 592, 853, 975, 554,
      880, 414, 1112, 206, 671, 1345, 27, 965,
      365, 1075, 874, 558, 235, 477, 573, 823,
      191, 24, 544, 568, 59, 744, 236, 229,
  };
  EXPECT_EQ(run.ids, expected);
  EXPECT_EQ(run.nodes_visited, 720991u);
}

TEST(HnswPinnedTest, Dim128AnswersAndWorkAreUnchanged) {
  const PinnedRun run = RunPinned(1000, 128, 202);
  const std::vector<size_t> expected = {
      125, 146, 803, 897, 943, 931, 565, 966,
      507, 796, 985, 445, 183, 3, 679, 607,
      801, 638, 318, 897, 449, 803, 440, 354,
      54, 679, 571, 208, 73, 43, 89, 261,
      205, 372, 634, 896, 948, 408, 608, 787,
      798, 749, 171, 312, 764, 414, 798, 113,
      261, 735, 556, 138, 504, 655, 541, 508,
      44, 432, 861, 508, 271, 860, 445, 215,
      826, 466, 633, 312, 905, 727, 282, 551,
      425, 502, 466, 848, 520, 437, 385, 304,
      446, 719, 616, 139, 881, 3, 138, 592,
      279, 727, 348, 943, 391, 521, 919, 261,
      826, 3, 354, 499, 889, 943, 172, 939,
      931, 441, 32, 937, 751, 826, 163, 273,
      548, 735, 156, 936, 948, 677, 387, 113,
      970, 334, 730, 352, 435, 810, 652, 23,
      357, 136, 843, 124, 737, 754, 482, 572,
      808, 321, 679, 235, 490, 391, 959, 720,
      321, 305, 351, 677, 682, 391, 398, 453,
      414, 860, 941, 318, 20, 503, 295, 526,
      322, 926, 633, 312, 537, 121, 441, 305,
      944, 989, 32, 502, 305, 710, 391, 443,
      781, 549, 445, 515, 761, 209, 27, 648,
      663, 339, 138, 372, 592, 54, 573, 904,
      504, 297, 963, 853, 508, 446, 63, 529,
      43, 803, 438, 511, 279, 714, 715, 861,
      418, 104, 504, 375, 102, 679, 678, 631,
      182, 446, 331, 385, 976, 618, 674, 282,
      740, 631, 327, 508, 965, 269, 121, 889,
      808, 742, 212, 862, 477, 427, 727, 694,
      941, 40, 318, 20, 47, 234, 615, 382,
      243, 787, 949, 779, 292, 727, 239, 216,
  };
  EXPECT_EQ(run.ids, expected);
  EXPECT_EQ(run.nodes_visited, 450944u);
}

// The visited marks are per-thread scratch, not index state: concurrent
// checked searches on one const index (SubmitTopK's pool tasks) must each
// get the serial answer.
TEST(HnswTest, NearestCheckedFromFourThreadsMatchesSerial) {
  const size_t dim = 16;
  const size_t n = 800;
  const size_t queries = 96;
  const auto flat = RandomPoints(n, dim, 303);
  HnswIndex index(dim);
  for (size_t i = 0; i < n; ++i) {
    index.Add({flat.begin() + i * dim, flat.begin() + (i + 1) * dim});
  }
  const auto points = RandomPoints(queries, dim, 304);
  const auto query = [&](size_t q) {
    return std::vector<float>(points.begin() + q * dim,
                              points.begin() + (q + 1) * dim);
  };
  std::vector<std::vector<size_t>> serial(queries);
  for (size_t q = 0; q < queries; ++q) {
    auto found = index.NearestChecked(query(q), 10);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    serial[q] = std::move(found).value();
  }
  std::vector<std::vector<size_t>> parallel(queries);
  std::vector<common::StatusCode> codes(queries, common::StatusCode::kOk);
  common::ParallelFor(
      0, queries,
      [&](size_t q) {
        auto found = index.NearestChecked(query(q), 10);
        if (!found.ok()) {
          codes[q] = found.status().code();
          return;
        }
        parallel[q] = std::move(found).value();
      },
      /*max_parallelism=*/4);
  for (size_t q = 0; q < queries; ++q) {
    EXPECT_EQ(codes[q], common::StatusCode::kOk) << "query " << q;
    EXPECT_EQ(parallel[q], serial[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace tmn::index
