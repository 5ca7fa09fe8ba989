// Tests for the dispatched kernel layer (src/nn/kernels/):
//
//  * bitwise scalar-vs-AVX2 parity for every KernelTable entry, swept
//    over shapes from 1x1 up to 65x67 so partial SIMD lanes (n % 8 != 0)
//    and the zero-skip matmul path are exercised, and for the DTW and
//    Fréchet DPs over every length pair up to 40x40, ties, repeated
//    points and squared distances that overflow to inf, and for squared
//    L2 over every row count up to 40 at every width up to 40 (and 128),
//    through shuffled, repeated and unaligned row pointers;
//  * the inference arena's ownership contract — buffer reuse across
//    forwards never aliases live tensor data, and Clear() resets it;
//  * the fused no-tape forwards (Lstm, TmnModel) match the op-graph
//    tape path bit for bit.
#include "nn/kernels/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "eval/evaluation.h"
#include "geo/preprocess.h"
#include "nn/kernels/arena.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "nn/tensor.h"

namespace {

using tmn::nn::Rng;
using tmn::nn::Tensor;
using tmn::nn::kernels::Arena;
using tmn::nn::kernels::ArenaScope;
using tmn::nn::kernels::Avx2;
using tmn::nn::kernels::KernelTable;
using tmn::nn::kernels::Scalar;

// Bitwise comparison: float operator== would call -0.0f equal to 0.0f
// and NaN unequal to itself, but the determinism contract is about bit
// patterns, not numeric equality.
::testing::AssertionResult BitwiseEq(const std::vector<float>& a,
                                     const std::vector<float>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (a.empty() ||
      std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "first bit difference at [" << i << "]: " << a[i] << " vs "
             << b[i];
    }
  }
  return ::testing::AssertionFailure() << "unreachable";
}

// Deterministic data with exact zeros (matmul skip path) and negative
// zeros (sign-bit handling) sprinkled in.
std::vector<float> RandomVec(size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.Uniform(-2, 2));
    if (i % 7 == 3) v[i] = 0.0f;
    if (i % 11 == 5) v[i] = -0.0f;
  }
  return v;
}

// Dimension sweep crossing the 8-lane AVX2 width on both sides, plus the
// 65x67 tail shapes called out in the test plan.
const int kDims[] = {1, 2, 3, 7, 8, 9, 16, 17, 31, 33, 65, 67};
const int kInnerDims[] = {1, 3, 8, 17, 33, 67};

TEST(KernelParity, MatMulSweep) {
  const KernelTable* avx2 = Avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  const KernelTable& scalar = Scalar();
  Rng rng(11);
  for (int m : kDims) {
    for (int k : kInnerDims) {
      for (int n : kDims) {
        const auto a = RandomVec(static_cast<size_t>(m) * k, rng);
        const auto b = RandomVec(static_cast<size_t>(k) * n, rng);
        std::vector<float> cs(static_cast<size_t>(m) * n, 0.0f);
        std::vector<float> cv(static_cast<size_t>(m) * n, 0.0f);
        scalar.matmul(a.data(), b.data(), cs.data(), m, k, n);
        avx2->matmul(a.data(), b.data(), cv.data(), m, k, n);
        ASSERT_TRUE(BitwiseEq(cs, cv)) << m << "x" << k << "x" << n;
      }
    }
  }
}

TEST(KernelParity, ElementwiseSweep) {
  const KernelTable* avx2 = Avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  const KernelTable& scalar = Scalar();
  Rng rng(12);
  for (int dim : kDims) {
    const size_t n = static_cast<size_t>(dim) * 67;  // Up to 65*67 floats.
    const auto a = RandomVec(n, rng);
    const auto b = RandomVec(n, rng);
    std::vector<float> os(n), ov(n);
    scalar.add(a.data(), b.data(), os.data(), n);
    avx2->add(a.data(), b.data(), ov.data(), n);
    ASSERT_TRUE(BitwiseEq(os, ov)) << "add n=" << n;
    scalar.sub(a.data(), b.data(), os.data(), n);
    avx2->sub(a.data(), b.data(), ov.data(), n);
    ASSERT_TRUE(BitwiseEq(os, ov)) << "sub n=" << n;
    scalar.mul(a.data(), b.data(), os.data(), n);
    avx2->mul(a.data(), b.data(), ov.data(), n);
    ASSERT_TRUE(BitwiseEq(os, ov)) << "mul n=" << n;
    scalar.scale(a.data(), 0.3f, os.data(), n);
    avx2->scale(a.data(), 0.3f, ov.data(), n);
    ASSERT_TRUE(BitwiseEq(os, ov)) << "scale n=" << n;
    scalar.leaky_relu(a.data(), 0.01f, os.data(), n);
    avx2->leaky_relu(a.data(), 0.01f, ov.data(), n);
    ASSERT_TRUE(BitwiseEq(os, ov)) << "leaky_relu n=" << n;
    for (float alpha : {1.0f, -1.0f, 0.5f}) {
      os = b;
      ov = b;
      scalar.axpy(alpha, a.data(), os.data(), n);
      avx2->axpy(alpha, a.data(), ov.data(), n);
      ASSERT_TRUE(BitwiseEq(os, ov)) << "axpy alpha=" << alpha;
    }
    os = b;
    ov = b;
    scalar.mul_acc(a.data(), a.data(), os.data(), n);
    avx2->mul_acc(a.data(), a.data(), ov.data(), n);
    ASSERT_TRUE(BitwiseEq(os, ov)) << "mul_acc n=" << n;
  }
}

TEST(KernelParity, AddRowVectorSweep) {
  const KernelTable* avx2 = Avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  const KernelTable& scalar = Scalar();
  Rng rng(13);
  for (int m : kDims) {
    for (int d : kDims) {
      const auto a = RandomVec(static_cast<size_t>(m) * d, rng);
      const auto row = RandomVec(static_cast<size_t>(d), rng);
      std::vector<float> os(a.size()), ov(a.size());
      scalar.add_row_vector(a.data(), row.data(), os.data(), m, d);
      avx2->add_row_vector(a.data(), row.data(), ov.data(), m, d);
      ASSERT_TRUE(BitwiseEq(os, ov)) << m << "x" << d;
    }
  }
}

TEST(KernelParity, SoftmaxRowsSweepIncludingMasked) {
  const KernelTable* avx2 = Avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  const KernelTable& scalar = Scalar();
  Rng rng(14);
  for (int m : kDims) {
    for (int n : kDims) {
      const auto a = RandomVec(static_cast<size_t>(m) * n, rng);
      for (int valid : {1, (n + 1) / 2, n}) {
        std::vector<float> os(a.size(), 0.0f);
        std::vector<float> ov(a.size(), 0.0f);
        scalar.softmax_rows(a.data(), os.data(), m, n, valid);
        avx2->softmax_rows(a.data(), ov.data(), m, n, valid);
        ASSERT_TRUE(BitwiseEq(os, ov))
            << m << "x" << n << " valid=" << valid;
      }
    }
  }
}

TEST(KernelParity, LstmGatesSweep) {
  const KernelTable* avx2 = Avx2();
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  const KernelTable& scalar = Scalar();
  Rng rng(15);
  for (int batch : {1, 2, 5}) {
    for (int hidden : {1, 3, 8, 17, 32, 67}) {
      const size_t bh = static_cast<size_t>(batch) * hidden;
      const auto z0 = RandomVec(bh * 4, rng);
      const auto c_prev = RandomVec(bh, rng);
      std::vector<float> zs = z0, zv = z0;
      std::vector<float> cs(bh), cv(bh), hs(bh), hv(bh);
      scalar.lstm_gates(zs.data(), c_prev.data(), cs.data(), hs.data(),
                        batch, hidden);
      avx2->lstm_gates(zv.data(), c_prev.data(), cv.data(), hv.data(),
                       batch, hidden);
      ASSERT_TRUE(BitwiseEq(zs, zv)) << batch << "x" << hidden;
      ASSERT_TRUE(BitwiseEq(cs, cv)) << batch << "x" << hidden;
      ASSERT_TRUE(BitwiseEq(hs, hv)) << batch << "x" << hidden;
    }
  }
}

// ---------------------------------------------------------------------------
// Exact-metric DPs: the AVX2 anti-diagonal walk vs the scalar row loops.

using DpEntry = double (*KernelTable::*)(const double*, size_t,
                                          const double*, size_t);

// Both DP entries of both backends on (a, b) and on (b, a), compared bit
// for bit. Points are interleaved (x, y) pairs.
::testing::AssertionResult DpParity(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  const KernelTable& scalar = Scalar();
  const KernelTable& avx2 = *Avx2();
  for (DpEntry entry : {&KernelTable::dtw, &KernelTable::frechet}) {
    const char* name = entry == &KernelTable::dtw ? "dtw" : "frechet";
    for (const auto& [x, y] : {std::pair(&a, &b), std::pair(&b, &a)}) {
      const size_t m = x->size() / 2;
      const size_t n = y->size() / 2;
      const double s = (scalar.*entry)(x->data(), m, y->data(), n);
      const double v = (avx2.*entry)(x->data(), m, y->data(), n);
      if (std::memcmp(&s, &v, sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << name << " " << m << "x" << n << ": scalar " << s
               << " vs avx2 " << v;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// n points of a random walk with steps up to `step` in each coordinate.
std::vector<double> WalkPoints(size_t n, double step, Rng& rng) {
  std::vector<double> points(2 * n);
  double x = rng.Uniform(0, 1);
  double y = rng.Uniform(0, 1);
  for (size_t i = 0; i < n; ++i) {
    x += rng.Uniform(-step, step);
    y += rng.Uniform(-step, step);
    points[2 * i] = x;
    points[2 * i + 1] = y;
  }
  return points;
}

TEST(KernelParity, DpEveryLengthPairUpTo40) {
  if (Avx2() == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  // Every anti-diagonal length from 1 to 40 crosses the 4-lane width.
  Rng rng(16);
  for (size_t m = 1; m <= 40; ++m) {
    for (size_t n = 1; n <= 40; ++n) {
      ASSERT_TRUE(DpParity(WalkPoints(m, 0.01, rng),
                           WalkPoints(n, 0.01, rng)));
    }
  }
}

TEST(KernelParity, DpGeolifeLengths) {
  if (Avx2() == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  Rng rng(17);
  for (int pair = 0; pair < 24; ++pair) {
    const size_t m = 60 + rng.UniformInt(101);
    const size_t n = 60 + rng.UniformInt(101);
    ASSERT_TRUE(DpParity(WalkPoints(m, 0.002, rng),
                         WalkPoints(n, 0.002, rng)));
  }
}

TEST(KernelParity, DpTiesSelfAndRepeatedPoints) {
  if (Avx2() == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  Rng rng(18);
  for (size_t len : {1, 2, 3, 4, 5, 7, 8, 9, 17, 33, 64, 101}) {
    const auto walk = WalkPoints(len, 0.01, rng);
    // Against itself: zero-cost cells on the main diagonal, equal
    // predecessors all around it.
    ASSERT_TRUE(DpParity(walk, walk)) << "self, length " << len;
    // Each point repeated 1-3 times: runs of equal costs and equal cells.
    std::vector<double> repeated;
    for (size_t i = 0; i < len; ++i) {
      for (size_t r = 0; r <= i % 3; ++r) {
        repeated.insert(repeated.end(), {walk[2 * i], walk[2 * i + 1]});
      }
    }
    ASSERT_TRUE(DpParity(walk, repeated)) << "repeated, length " << len;
    ASSERT_TRUE(DpParity(repeated, repeated)) << "repeated self " << len;
    // Points on a coarse grid: many cells share a cost exactly.
    auto grid = WalkPoints(len, 0.3, rng);
    for (double& c : grid) c = std::round(c * 4.0) / 4.0;
    ASSERT_TRUE(DpParity(grid, repeated)) << "grid, length " << len;
  }
}

TEST(KernelParity, DpSquaredDistanceOverflowsToInf) {
  if (Avx2() == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  // Coordinates up to 1e154 in magnitude: dx*dx + dy*dy passes DBL_MAX for
  // far-apart points, so some cells cost inf and the rest stay finite.
  Rng rng(19);
  int infinite = 0;
  int finite = 0;
  for (int pair = 0; pair < 64; ++pair) {
    auto a = WalkPoints(1 + rng.UniformInt(40), 0.1, rng);
    auto b = WalkPoints(1 + rng.UniformInt(40), 0.1, rng);
    for (double& c : a) c *= 1e154;
    for (double& c : b) c *= 1e154;
    ASSERT_TRUE(DpParity(a, b)) << "pair " << pair;
    const double frechet =
        Scalar().frechet(a.data(), a.size() / 2, b.data(), b.size() / 2);
    (std::isinf(frechet) ? infinite : finite) += 1;
  }
  // Both outcomes occur, so the sweep covers the overflow.
  EXPECT_GT(infinite, 0);
  EXPECT_GT(finite, 0);
}

// ---------------------------------------------------------------------------
// Squared L2 over a pointer array of rows.

// The contract as a plain loop: a float sum from 0.0f in dimension order,
// one sub, mul and add per dimension.
float ReferenceL2sq(const float* row, const float* q, size_t dim) {
  float total = 0.0f;
  for (size_t d = 0; d < dim; ++d) {
    const float diff = row[d] - q[d];
    total += diff * diff;
  }
  return total;
}

// n row pointers into one pool: rows start at pool + 1 + r * (dim + 3),
// so most starts are not 32-byte aligned; the order is shuffled, and
// every fifth pointer repeats an earlier one.
struct L2Rows {
  std::vector<float> pool;
  std::vector<const float*> rows;
};

L2Rows MakeL2Rows(size_t n, size_t dim, float scale, Rng& rng) {
  L2Rows out;
  const size_t stride = dim + 3;
  out.pool = RandomVec(n * stride + 1, rng);
  for (float& v : out.pool) v *= scale;
  for (size_t r = 0; r < n; ++r) {
    out.rows.push_back(out.pool.data() + 1 + r * stride);
  }
  rng.Shuffle(out.rows);
  for (size_t r = 4; r < n; r += 5) {
    out.rows[r] = out.rows[rng.UniformInt(r)];
  }
  return out;
}

// Both backends and the reference loop on (rows, q), bit for bit.
::testing::AssertionResult L2sqParity(const L2Rows& rows,
                                      const std::vector<float>& q) {
  const size_t n = rows.rows.size();
  const size_t dim = q.size();
  std::vector<float> reference(n);
  for (size_t r = 0; r < n; ++r) {
    reference[r] = ReferenceL2sq(rows.rows[r], q.data(), dim);
  }
  // Sentinel-filled outputs, one longer than n: a kernel must write every
  // out[r] and nothing past out[n - 1].
  std::vector<float> os(n + 1, -1.0f), ov(n + 1, -1.0f);
  Scalar().l2sq_rows(rows.rows.data(), n, q.data(), dim, os.data());
  Avx2()->l2sq_rows(rows.rows.data(), n, q.data(), dim, ov.data());
  reference.push_back(-1.0f);
  ::testing::AssertionResult scalar_ok = BitwiseEq(os, reference);
  if (!scalar_ok) return scalar_ok << " (scalar vs reference loop)";
  ::testing::AssertionResult avx2_ok = BitwiseEq(os, ov);
  if (!avx2_ok) return avx2_ok << " (scalar vs avx2)";
  return ::testing::AssertionSuccess();
}

TEST(KernelParity, L2sqRowsEveryShapeUpTo40) {
  if (Avx2() == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  // n crosses the 8-row step and dim the 8-wide block, both sides; dim
  // 128 is the serving embedding width.
  Rng rng(20);
  std::vector<size_t> dims;
  for (size_t dim = 1; dim <= 40; ++dim) dims.push_back(dim);
  dims.push_back(128);
  for (size_t dim : dims) {
    for (size_t n = 0; n <= 40; ++n) {
      const L2Rows rows = MakeL2Rows(n, dim, 1.0f, rng);
      const std::vector<float> q = RandomVec(dim, rng);
      ASSERT_TRUE(L2sqParity(rows, q)) << "n=" << n << " dim=" << dim;
    }
  }
}

TEST(KernelParity, L2sqRowsSquaresOverflowToInf) {
  if (Avx2() == nullptr) GTEST_SKIP() << "AVX2 backend unavailable";
  // Coordinates up to 2e19 in magnitude: a difference past about 1.8e19
  // squares to inf, so some rows sum to inf and the rest stay finite.
  Rng rng(21);
  int infinite = 0;
  int finite = 0;
  for (size_t dim : {1, 7, 8, 9, 16, 17, 128}) {
    for (size_t n : {1, 7, 8, 9, 16, 33}) {
      const L2Rows rows = MakeL2Rows(n, dim, 1e19f, rng);
      std::vector<float> q = RandomVec(dim, rng);
      for (float& v : q) v *= 1e19f;
      ASSERT_TRUE(L2sqParity(rows, q)) << "n=" << n << " dim=" << dim;
      for (const float* row : rows.rows) {
        (std::isinf(ReferenceL2sq(row, q.data(), dim)) ? infinite : finite) +=
            1;
      }
    }
  }
  // Both outcomes occur, so the sweep covers the overflow.
  EXPECT_GT(infinite, 0);
  EXPECT_GT(finite, 0);
}

TEST(KernelScalar, L2sqRowsIsTheReferenceLoop) {
  // The scalar entry is the reference on its own too, so the contract
  // holds on machines without AVX2.
  Rng rng(22);
  for (size_t dim : {1, 3, 16, 31, 128}) {
    const L2Rows rows = MakeL2Rows(19, dim, 1.0f, rng);
    const std::vector<float> q = RandomVec(dim, rng);
    std::vector<float> out(rows.rows.size());
    Scalar().l2sq_rows(rows.rows.data(), rows.rows.size(), q.data(), dim,
                       out.data());
    for (size_t r = 0; r < rows.rows.size(); ++r) {
      const float expected = ReferenceL2sq(rows.rows[r], q.data(), dim);
      EXPECT_EQ(std::memcmp(&out[r], &expected, sizeof(float)), 0)
          << "dim=" << dim << " row " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused no-tape forwards vs the op-graph tape path.

Tensor RandomTensor(int rows, int cols, Rng& rng) {
  return Tensor::FromData(rows, cols, RandomVec(
      static_cast<size_t>(rows) * cols, rng));
}

std::vector<tmn::geo::Trajectory> TestTrajectories(int count, uint64_t seed) {
  tmn::data::SyntheticConfig config;
  config.num_trajectories = count;
  config.min_length = 9;
  config.max_length = 14;
  config.seed = seed;
  auto raw = tmn::data::GenerateSynthetic(config);
  return tmn::geo::NormalizeTrajectories(raw,
                                         tmn::geo::ComputeNormalization(raw));
}

TEST(InferenceFastPath, LstmForwardMatchesTapeBitwise) {
  Rng rng(21);
  const tmn::nn::Lstm lstm(6, 8, rng);
  const Tensor x = RandomTensor(10, 6, rng);
  const Tensor tape = lstm.Forward(x);  // Grad mode on: op-graph path.
  tmn::nn::NoGradGuard no_grad;
  const Tensor fused = lstm.Forward(x);
  EXPECT_TRUE(BitwiseEq(tape.data(), fused.data()));
}

TEST(InferenceFastPath, BatchedLstmForwardMatchesTapeBitwise) {
  Rng rng(22);
  const tmn::nn::Lstm lstm(5, 7, rng);
  // Mixed lengths so the kernel's live prefix shrinks mid-batch.
  const std::vector<Tensor> inputs = {RandomTensor(9, 5, rng),
                                      RandomTensor(4, 5, rng),
                                      RandomTensor(12, 5, rng)};
  // Grad mode on: each sequence runs the op-graph tape loop alone.
  const std::vector<Tensor> tape = lstm.ForwardBatch(inputs);
  tmn::nn::NoGradGuard no_grad;
  const std::vector<Tensor> fused = lstm.ForwardBatch(inputs);
  ASSERT_EQ(tape.size(), fused.size());
  for (size_t i = 0; i < tape.size(); ++i) {
    EXPECT_TRUE(BitwiseEq(tape[i].data(), fused[i].data())) << "seq " << i;
  }
}

TEST(InferenceFastPath, TmnPairForwardMatchesTapeBitwise) {
  const auto trajs = TestTrajectories(2, 31);
  tmn::core::TmnModelConfig config;
  config.hidden_dim = 16;
  const tmn::core::TmnModel model(config);
  const tmn::core::PairOutput tape = model.ForwardPair(trajs[0], trajs[1]);
  tmn::nn::NoGradGuard no_grad;
  const tmn::core::PairOutput fused = model.ForwardPair(trajs[0], trajs[1]);
  EXPECT_TRUE(BitwiseEq(tape.oa.data(), fused.oa.data()));
  EXPECT_TRUE(BitwiseEq(tape.ob.data(), fused.ob.data()));
}

TEST(InferenceFastPath, TmnPairForwardPaddedMatchesTapeBitwise) {
  const auto trajs = TestTrajectories(2, 32);
  tmn::core::TmnModelConfig config;
  config.hidden_dim = 16;
  const tmn::core::TmnModel model(config);
  const tmn::core::PairOutput tape =
      model.ForwardPairPadded(trajs[0], trajs[1]);
  tmn::nn::NoGradGuard no_grad;
  const tmn::core::PairOutput fused =
      model.ForwardPairPadded(trajs[0], trajs[1]);
  EXPECT_TRUE(BitwiseEq(tape.oa.data(), fused.oa.data()));
  EXPECT_TRUE(BitwiseEq(tape.ob.data(), fused.ob.data()));
}

TEST(InferenceFastPath, TmnSingleForwardMatchesTapeBitwise) {
  const auto trajs = TestTrajectories(1, 33);
  tmn::core::TmnModelConfig config;
  config.hidden_dim = 16;
  config.use_matching = false;
  const tmn::core::TmnModel model(config);
  const Tensor tape = model.ForwardSingle(trajs[0]);
  tmn::nn::NoGradGuard no_grad;
  const Tensor fused = model.ForwardSingle(trajs[0]);
  EXPECT_TRUE(BitwiseEq(tape.data(), fused.data()));
}

// Parallel batch encode (thread pool + per-worker arenas) must equal the
// sequential single-thread loop bit for bit, whatever the pool size.
TEST(InferenceFastPath, ParallelEncodeMatchesSequentialBitwise) {
  const auto trajs = TestTrajectories(6, 34);
  tmn::core::TmnModelConfig config;
  config.hidden_dim = 16;
  config.use_matching = false;
  const tmn::core::TmnModel model(config);
  const auto parallel = tmn::eval::EncodeAll(model, trajs);
  tmn::nn::NoGradGuard no_grad;
  for (size_t i = 0; i < trajs.size(); ++i) {
    const Tensor o = model.ForwardSingle(trajs[i]);
    EXPECT_TRUE(
        BitwiseEq(parallel[i], tmn::nn::Row(o, o.rows() - 1).data()))
        << "trajectory " << i;
  }
}

// ---------------------------------------------------------------------------
// Arena ownership.

TEST(ArenaTest, InactiveOutsideScopeAndWhileGradEnabled) {
  EXPECT_FALSE(Arena::ThreadLocal().active());
  {
    ArenaScope scope;  // Grad mode on: must stay disengaged.
    EXPECT_FALSE(Arena::ThreadLocal().active());
  }
  tmn::nn::NoGradGuard no_grad;
  {
    ArenaScope scope;
    EXPECT_TRUE(Arena::ThreadLocal().active());
  }
  EXPECT_FALSE(Arena::ThreadLocal().active());
}

TEST(ArenaTest, ReuseAcrossForwardsNeverAliasesLiveTensors) {
  const auto trajs = TestTrajectories(3, 41);
  tmn::core::TmnModelConfig config;
  config.hidden_dim = 16;
  const tmn::core::TmnModel model(config);
  tmn::nn::NoGradGuard no_grad;
  ArenaScope scope;
  // Hold the first forward's outputs across a second forward that
  // recycles every intermediate buffer through the pool.
  const tmn::core::PairOutput first = model.ForwardPair(trajs[0], trajs[1]);
  const std::vector<float> oa_snapshot = first.oa.data();
  const std::vector<float> ob_snapshot = first.ob.data();
  const uint64_t acquires_before = Arena::ThreadLocal().stats().acquires;
  const tmn::core::PairOutput second = model.ForwardPair(trajs[1], trajs[2]);
  const Arena::Stats& stats = Arena::ThreadLocal().stats();
  EXPECT_GT(stats.acquires, acquires_before);
  EXPECT_GT(stats.pool_hits, 0u) << "second forward never hit the pool";
  // A live tensor's buffer must never have been handed to the pool.
  EXPECT_TRUE(BitwiseEq(first.oa.data(), oa_snapshot));
  EXPECT_TRUE(BitwiseEq(first.ob.data(), ob_snapshot));
}

TEST(ArenaTest, AcquireZeroedIsZeroEvenAfterPoolReuse) {
  tmn::nn::NoGradGuard no_grad;
  ArenaScope scope;
  std::vector<float> dirty = tmn::nn::kernels::AcquireBuffer(64);
  for (float& v : dirty) v = 123.0f;
  tmn::nn::kernels::RecycleBuffer(std::move(dirty));
  const std::vector<float> zeroed = tmn::nn::kernels::AcquireZeroed(64);
  EXPECT_TRUE(BitwiseEq(zeroed, std::vector<float>(64, 0.0f)));
}

TEST(ArenaTest, ClearResetsPoolAndAccounting) {
  Arena& arena = Arena::ThreadLocal();
  {
    tmn::nn::NoGradGuard no_grad;
    ArenaScope scope;
    tmn::nn::kernels::RecycleBuffer(tmn::nn::kernels::AcquireBuffer(128));
  }
  arena.Clear();
  EXPECT_EQ(arena.stats().acquires, 0u);
  EXPECT_EQ(arena.stats().pool_hits, 0u);
  EXPECT_EQ(arena.stats().live_bytes, 0u);
  EXPECT_EQ(arena.stats().high_water_bytes, 0u);
  // After Clear the next acquire is a clean heap allocation.
  tmn::nn::NoGradGuard no_grad;
  ArenaScope scope;
  const std::vector<float> buf = tmn::nn::kernels::AcquireBuffer(8);
  EXPECT_EQ(arena.stats().acquires, 1u);
  EXPECT_EQ(arena.stats().pool_hits, 0u);
}

TEST(ArenaTest, HighWaterTracksRequestedBytes) {
  Arena& arena = Arena::ThreadLocal();
  arena.Clear();
  tmn::nn::NoGradGuard no_grad;
  ArenaScope scope;
  std::vector<float> a = tmn::nn::kernels::AcquireBuffer(100);
  std::vector<float> b = tmn::nn::kernels::AcquireBuffer(28);
  EXPECT_EQ(arena.stats().live_bytes, 128 * sizeof(float));
  EXPECT_EQ(arena.stats().high_water_bytes, 128 * sizeof(float));
  tmn::nn::kernels::RecycleBuffer(std::move(a));
  EXPECT_EQ(arena.stats().live_bytes, 28 * sizeof(float));
  EXPECT_EQ(arena.stats().high_water_bytes, 128 * sizeof(float));
  EXPECT_GE(Arena::GlobalHighWaterBytes(), 128 * sizeof(float));
}

TEST(KernelDispatch, BackendNamesAndActiveTableAreConsistent) {
  using tmn::nn::kernels::Backend;
  EXPECT_STREQ(tmn::nn::kernels::BackendName(Backend::kScalar), "scalar");
  EXPECT_STREQ(tmn::nn::kernels::BackendName(Backend::kAvx2), "avx2");
  const Backend active = tmn::nn::kernels::ActiveBackend();
  if (active == Backend::kAvx2) {
    ASSERT_NE(Avx2(), nullptr);
    EXPECT_EQ(&tmn::nn::kernels::Active(), Avx2());
  } else {
    EXPECT_EQ(&tmn::nn::kernels::Active(), &Scalar());
  }
}

}  // namespace
