#include "core/tmn_model.h"

#include <algorithm>

#include "common/check.h"
#include "core/features.h"
#include "nn/kernels/arena.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"

namespace tmn::core {

namespace {

int EmbedDim(const TmnModelConfig& config) {
  TMN_CHECK(config.hidden_dim >= 2 && config.hidden_dim % 2 == 0);
  return config.hidden_dim / 2;
}

std::vector<int> MlpDims(const TmnModelConfig& config) {
  TMN_CHECK(config.mlp_layers >= 1);
  return std::vector<int>(config.mlp_layers + 1, config.hidden_dim);
}

// No-tape inference version of the matching block: computes
// X ++ (X − softmax(X·otherᵀ)·other) in one kernel pass with no
// intermediate tensor nodes. Each stage reproduces the op-graph
// arithmetic exactly (transpose-then-matmul, masked row softmax with the
// sequential denominator, i-k-j summary matmul, elementwise subtract), so
// the result is bitwise identical to the tape path below.
nn::Tensor FusedMatchingInput(const nn::Tensor& x, const nn::Tensor& other) {
  const nn::kernels::KernelTable& K = nn::kernels::Active();
  const int m = x.rows();
  const int d = x.cols();
  const int n = other.rows();
  TMN_CHECK(other.cols() == d);
  const auto& xv = x.data();
  const auto& ov = other.data();
  // otherᵀ (d x n), exactly as the Transpose op materializes it.
  std::vector<float> bt =
      nn::kernels::AcquireBuffer(static_cast<size_t>(d) * n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      bt[static_cast<size_t>(j) * n + i] = ov[static_cast<size_t>(i) * d + j];
    }
  }
  std::vector<float> scores =
      nn::kernels::AcquireZeroed(static_cast<size_t>(m) * n);
  K.matmul(xv.data(), bt.data(), scores.data(), m, d, n);
  std::vector<float> pattern =
      nn::kernels::AcquireZeroed(static_cast<size_t>(m) * n);
  K.softmax_rows(scores.data(), pattern.data(), m, n, n);
  std::vector<float> summary =
      nn::kernels::AcquireZeroed(static_cast<size_t>(m) * d);
  K.matmul(pattern.data(), ov.data(), summary.data(), m, n, d);
  std::vector<float> out =
      nn::kernels::AcquireBuffer(static_cast<size_t>(m) * 2 * d);
  for (int i = 0; i < m; ++i) {
    const float* xrow = &xv[static_cast<size_t>(i) * d];
    float* orow = &out[static_cast<size_t>(i) * 2 * d];
    std::copy_n(xrow, d, orow);
    K.sub(xrow, &summary[static_cast<size_t>(i) * d], orow + d,
          static_cast<size_t>(d));
  }
  nn::kernels::RecycleBuffer(std::move(bt));
  nn::kernels::RecycleBuffer(std::move(scores));
  nn::kernels::RecycleBuffer(std::move(pattern));
  nn::kernels::RecycleBuffer(std::move(summary));
  return nn::Tensor::FromData(m, 2 * d, std::move(out));
}

}  // namespace

TmnModel::TmnModel(const TmnModelConfig& config)
    : config_(config),
      init_rng_(config.seed),
      embed_(2, EmbedDim(config), init_rng_),
      rnn_(config.rnn,
           config.use_matching ? 2 * EmbedDim(config) : EmbedDim(config),
           config.hidden_dim, init_rng_),
      mlp_(MlpDims(config), init_rng_) {
  RegisterChild(embed_);
  RegisterChild(rnn_);
  RegisterChild(mlp_);
}

nn::Tensor TmnModel::EmbedPoints(const geo::Trajectory& t) const {
  // Eq. 4: x = sigma(W0 p + b0) with sigma = LeakyReLU (Eq. 5).
  return nn::LeakyRelu(embed_.Forward(CoordinateTensor(t)));
}

nn::Tensor TmnModel::MatchPattern(const geo::Trajectory& a,
                                  const geo::Trajectory& b) const {
  const nn::Tensor xa = EmbedPoints(a);
  const nn::Tensor xb = EmbedPoints(b);
  return nn::SoftmaxRows(nn::MatMul(xa, nn::Transpose(xb)));
}

nn::Tensor TmnModel::EncodeSide(const nn::Tensor& x,
                                const nn::Tensor& other) const {
  nn::Tensor rnn_input = x;
  if (config_.use_matching) {
    if (!nn::GradModeEnabled()) {
      rnn_input = FusedMatchingInput(x, other);
    } else {
      // Eqs. 6-11: match pattern, weighted partner summary, discrepancy.
      const nn::Tensor pattern =
          nn::SoftmaxRows(nn::MatMul(x, nn::Transpose(other)));
      const nn::Tensor summary = nn::MatMul(pattern, other);  // S_{a<-b}
      const nn::Tensor discrepancy = nn::Sub(x, summary);     // M_{a<-b}
      rnn_input = nn::ConcatCols(x, discrepancy);             // X ++ M
    }
  }
  const nn::Tensor z = rnn_.Forward(rnn_input);  // Eq. 12.
  return mlp_.Forward(z);                          // Eq. 13.
}

PairOutput TmnModel::ForwardPair(const geo::Trajectory& a,
                                 const geo::Trajectory& b) const {
  // Engages the thread-local inference arena under NoGradGuard (no-op
  // while training): op outputs recycle through a buffer pool instead of
  // per-op heap churn. See src/nn/kernels/arena.h.
  nn::kernels::ArenaScope arena;
  const nn::Tensor xa = EmbedPoints(a);
  const nn::Tensor xb = EmbedPoints(b);
  return PairOutput{EncodeSide(xa, xb), EncodeSide(xb, xa)};
}

namespace {

// Coordinates padded with trailing zero points to `padded_len` rows.
nn::Tensor PaddedCoordinateTensor(const geo::Trajectory& t,
                                  int padded_len) {
  std::vector<float> coords(static_cast<size_t>(padded_len) * 2, 0.0f);
  for (size_t i = 0; i < t.size(); ++i) {
    coords[2 * i] = static_cast<float>(t[i].lon);
    coords[2 * i + 1] = static_cast<float>(t[i].lat);
  }
  return nn::Tensor::FromData(padded_len, 2, std::move(coords));
}

}  // namespace

PairOutput TmnModel::ForwardPairPadded(const geo::Trajectory& a,
                                       const geo::Trajectory& b) const {
  TMN_CHECK(config_.use_matching);
  nn::kernels::ArenaScope arena;
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  const int padded_len = std::max(m, n);
  // Embed the padded coordinate matrices; padded rows produce sigma(b0),
  // which the row masks then cover with zeros (Section IV.B).
  const nn::Tensor xa = nn::ZeroRowsBeyond(
      nn::LeakyRelu(embed_.Forward(PaddedCoordinateTensor(a, padded_len))),
      m);
  const nn::Tensor xb = nn::ZeroRowsBeyond(
      nn::LeakyRelu(embed_.Forward(PaddedCoordinateTensor(b, padded_len))),
      n);
  const auto encode = [&](const nn::Tensor& x, const nn::Tensor& other,
                          int steps, int valid_other) {
    const nn::Tensor pattern = nn::SoftmaxRowsMasked(
        nn::MatMul(x, nn::Transpose(other)), valid_other);
    const nn::Tensor summary = nn::MatMul(pattern, other);
    const nn::Tensor input = nn::ConcatCols(x, nn::Sub(x, summary));
    return mlp_.Forward(rnn_.Forward(input, steps));
  };
  return PairOutput{encode(xa, xb, m, n), encode(xb, xa, n, m)};
}

nn::Tensor TmnModel::ForwardSingle(const geo::Trajectory& t) const {
  TMN_CHECK_MSG(!config_.use_matching,
                "TMN is pairwise; ForwardSingle is only valid for TMN-NM");
  nn::kernels::ArenaScope arena;
  return EncodeSide(EmbedPoints(t), nn::Tensor());
}

std::vector<nn::Tensor> TmnModel::ForwardSingleBatch(
    const std::vector<const geo::Trajectory*>& batch) const {
  TMN_CHECK_MSG(!config_.use_matching,
                "TMN is pairwise; ForwardSingleBatch is only valid for TMN-NM");
  nn::kernels::ArenaScope arena;
  std::vector<nn::Tensor> xs;
  xs.reserve(batch.size());
  for (const geo::Trajectory* t : batch) {
    TMN_CHECK_MSG(t != nullptr, "ForwardSingleBatch: null trajectory");
    xs.push_back(EmbedPoints(*t));
  }
  // Eq. 12 across the batch; item i is bitwise rnn_.Forward(xs[i]).
  const std::vector<nn::Tensor> zs = rnn_.ForwardBatch(xs);
  std::vector<nn::Tensor> outputs;
  outputs.reserve(zs.size());
  for (const nn::Tensor& z : zs) outputs.push_back(mlp_.Forward(z));  // Eq. 13.
  return outputs;
}

}  // namespace tmn::core
