#include <cmath>

#include <gtest/gtest.h>

#include "core/model.h"
#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "geo/preprocess.h"
#include "nn/grad_check.h"
#include "nn/ops.h"

namespace tmn::core {
namespace {

std::vector<geo::Trajectory> NormalizedTrajectories(int n, uint64_t seed) {
  auto raw = data::GeneratePortoLike(n, seed);
  return geo::NormalizeTrajectories(raw, geo::ComputeNormalization(raw));
}

// ForwardSingleBatch against per-item ForwardSingle over `trajs` (at
// least 4), in the caller's grad mode.
void ExpectBatchMatchesSingle(const TmnModel& tmn_nm,
                              const std::vector<geo::Trajectory>& trajs) {
  std::vector<const geo::Trajectory*> batch;
  for (const auto& t : trajs) batch.push_back(&t);
  const std::vector<nn::Tensor> outs = tmn_nm.ForwardSingleBatch(batch);
  ASSERT_EQ(outs.size(), trajs.size());
  for (size_t i = 0; i < trajs.size(); ++i) {
    EXPECT_EQ(outs[i].data(), tmn_nm.ForwardSingle(trajs[i]).data())
        << "batch member " << i;
  }
  // A different batch of the same items must not change any member's bits.
  const std::vector<nn::Tensor> pair =
      tmn_nm.ForwardSingleBatch({batch[2], batch[0]});
  EXPECT_EQ(pair[1].data(), outs[0].data());
  EXPECT_EQ(pair[0].data(), outs[2].data());
  // A batch of one runs the same path and must agree too.
  const std::vector<nn::Tensor> solo = tmn_nm.ForwardSingleBatch({batch[3]});
  EXPECT_EQ(solo[0].data(), outs[3].data());
  EXPECT_TRUE(tmn_nm.ForwardSingleBatch({}).empty());
}

class TmnModelTest : public ::testing::Test {
 protected:
  TmnModelTest() : trajs_(NormalizedTrajectories(4, 77)) {}

  TmnModelConfig Config(bool matching = true) const {
    TmnModelConfig config;
    config.hidden_dim = 8;
    config.use_matching = matching;
    config.seed = 5;
    return config;
  }

  std::vector<geo::Trajectory> trajs_;
};

TEST_F(TmnModelTest, OutputShapes) {
  TmnModel model(Config());
  const PairOutput out = model.ForwardPair(trajs_[0], trajs_[1]);
  EXPECT_EQ(out.oa.rows(), static_cast<int>(trajs_[0].size()));
  EXPECT_EQ(out.ob.rows(), static_cast<int>(trajs_[1].size()));
  EXPECT_EQ(out.oa.cols(), 8);
  EXPECT_EQ(out.ob.cols(), 8);
}

TEST_F(TmnModelTest, NameAndPairwiseFlags) {
  TmnModel tmn(Config(true));
  TmnModel tmn_nm(Config(false));
  EXPECT_EQ(tmn.Name(), "TMN");
  EXPECT_EQ(tmn_nm.Name(), "TMN-NM");
  EXPECT_TRUE(tmn.IsPairwise());
  EXPECT_FALSE(tmn_nm.IsPairwise());
}

TEST_F(TmnModelTest, EmbeddingIsHalfHidden) {
  TmnModel model(Config());
  const nn::Tensor x = model.EmbedPoints(trajs_[0]);
  EXPECT_EQ(x.rows(), static_cast<int>(trajs_[0].size()));
  EXPECT_EQ(x.cols(), 4);  // d/2.
}

TEST_F(TmnModelTest, MatchPatternRowsAreDistributions) {
  TmnModel model(Config());
  const nn::Tensor p = model.MatchPattern(trajs_[0], trajs_[1]);
  EXPECT_EQ(p.rows(), static_cast<int>(trajs_[0].size()));
  EXPECT_EQ(p.cols(), static_cast<int>(trajs_[1].size()));
  for (int r = 0; r < p.rows(); ++r) {
    float sum = 0.0f;
    for (int c = 0; c < p.cols(); ++c) {
      EXPECT_GE(p.at(r, c), 0.0f);
      sum += p.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST_F(TmnModelTest, ForwardPairIsSymmetric) {
  // o_a from ForwardPair(a, b) must equal o_b from ForwardPair(b, a).
  TmnModel model(Config());
  const PairOutput ab = model.ForwardPair(trajs_[0], trajs_[1]);
  const PairOutput ba = model.ForwardPair(trajs_[1], trajs_[0]);
  ASSERT_EQ(ab.oa.numel(), ba.ob.numel());
  for (size_t i = 0; i < ab.oa.data().size(); ++i) {
    EXPECT_FLOAT_EQ(ab.oa.data()[i], ba.ob.data()[i]);
  }
}

TEST_F(TmnModelTest, DeterministicForward) {
  TmnModel model(Config());
  const PairOutput a = model.ForwardPair(trajs_[0], trajs_[1]);
  const PairOutput b = model.ForwardPair(trajs_[0], trajs_[1]);
  EXPECT_EQ(a.oa.data(), b.oa.data());
}

TEST_F(TmnModelTest, MatchingChangesRepresentations) {
  // With matching, o_a depends on the partner; without, it cannot.
  TmnModel tmn(Config(true));
  const PairOutput with_b = tmn.ForwardPair(trajs_[0], trajs_[1]);
  const PairOutput with_c = tmn.ForwardPair(trajs_[0], trajs_[2]);
  bool any_diff = false;
  for (size_t i = 0; i < with_b.oa.data().size(); ++i) {
    if (with_b.oa.data()[i] != with_c.oa.data()[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);

  TmnModel tmn_nm(Config(false));
  const PairOutput nm_b = tmn_nm.ForwardPair(trajs_[0], trajs_[1]);
  const PairOutput nm_c = tmn_nm.ForwardPair(trajs_[0], trajs_[2]);
  EXPECT_EQ(nm_b.oa.data(), nm_c.oa.data());
}

TEST_F(TmnModelTest, TmnNmForwardSingleMatchesPair) {
  TmnModel tmn_nm(Config(false));
  const nn::Tensor single = tmn_nm.ForwardSingle(trajs_[0]);
  const PairOutput pair = tmn_nm.ForwardPair(trajs_[0], trajs_[1]);
  EXPECT_EQ(single.data(), pair.oa.data());
}

TEST_F(TmnModelTest, ForwardSingleBatchBitwiseMatchesSingle) {
  // The contract the serving micro-batcher leans on (core/model.h): the
  // batched forward returns the exact bits of per-item ForwardSingle, for
  // every batch composition over ragged lengths, for either backbone, in
  // and out of grad mode.
  for (const nn::RnnKind rnn : {nn::RnnKind::kLstm, nn::RnnKind::kGru}) {
    TmnModelConfig config = Config(false);
    config.rnn = rnn;
    const TmnModel tmn_nm(config);
    {
      SCOPED_TRACE(nn::RnnName(rnn) + " without grad");
      nn::NoGradGuard no_grad;  // Inference mode: the fused LSTM kernel.
      ExpectBatchMatchesSingle(tmn_nm, trajs_);
    }
    SCOPED_TRACE(nn::RnnName(rnn) + " under grad");
    ExpectBatchMatchesSingle(tmn_nm, trajs_);
  }
}

TEST_F(TmnModelTest, PredictedSimilarityInUnitInterval) {
  TmnModel model(Config());
  for (size_t i = 0; i < trajs_.size(); ++i) {
    for (size_t j = 0; j < trajs_.size(); ++j) {
      const PairOutput out = model.ForwardPair(trajs_[i], trajs_[j]);
      const float s =
          PredictedSimilarity(FinalRow(out.oa), FinalRow(out.ob)).item();
      EXPECT_GT(s, 0.0f);
      EXPECT_LE(s, 1.0f);
    }
  }
}

TEST_F(TmnModelTest, SelfSimilarityIsNearOne) {
  // Identical trajectories embed identically (matching is symmetric), so
  // the predicted distance is ~0 and similarity ~1.
  TmnModel model(Config());
  const PairOutput out = model.ForwardPair(trajs_[0], trajs_[0]);
  const float s =
      PredictedSimilarity(FinalRow(out.oa), FinalRow(out.ob)).item();
  EXPECT_NEAR(s, 1.0f, 1e-4f);
}

TEST_F(TmnModelTest, PaddedMaskedAttentionEquivalence) {
  // The paper pads the shorter trajectory and masks the attention. Verify
  // that the padded+masked pipeline reproduces our unpadded computation:
  // pad Xb with junk rows, mask the softmax columns, check P Xb matches.
  TmnModel model(Config());
  const nn::Tensor xa = model.EmbedPoints(trajs_[0]);
  const nn::Tensor xb = model.EmbedPoints(trajs_[1]);
  const int n = xb.rows();
  const int d = xb.cols();
  const int padded_len = n + 4;
  std::vector<float> padded(static_cast<size_t>(padded_len) * d, 123.0f);
  std::copy(xb.data().begin(), xb.data().end(), padded.begin());
  const nn::Tensor xb_padded =
      nn::Tensor::FromData(padded_len, d, std::move(padded));

  const nn::Tensor p_unpadded =
      nn::SoftmaxRows(nn::MatMul(xa, nn::Transpose(xb)));
  const nn::Tensor s_unpadded = nn::MatMul(p_unpadded, xb);

  const nn::Tensor p_padded = nn::SoftmaxRowsMasked(
      nn::MatMul(xa, nn::Transpose(xb_padded)), n);
  const nn::Tensor s_padded = nn::MatMul(p_padded, xb_padded);

  ASSERT_EQ(s_unpadded.numel(), s_padded.numel());
  for (size_t i = 0; i < s_unpadded.data().size(); ++i) {
    EXPECT_NEAR(s_unpadded.data()[i], s_padded.data()[i], 1e-5f);
  }
}

TEST_F(TmnModelTest, PaddedForwardMatchesUnpaddedExactly) {
  // The paper's full padded+masked pipeline must be bit-identical to the
  // unpadded computation, both ways around (a shorter / b shorter).
  TmnModel model(Config());
  for (const auto& [i, j] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {1, 0}, {2, 3}, {0, 0}}) {
    const PairOutput plain = model.ForwardPair(trajs_[i], trajs_[j]);
    const PairOutput padded = model.ForwardPairPadded(trajs_[i], trajs_[j]);
    ASSERT_EQ(plain.oa.rows(), padded.oa.rows());
    ASSERT_EQ(plain.ob.rows(), padded.ob.rows());
    for (size_t k = 0; k < plain.oa.data().size(); ++k) {
      EXPECT_FLOAT_EQ(plain.oa.data()[k], padded.oa.data()[k]);
    }
    for (size_t k = 0; k < plain.ob.data().size(); ++k) {
      EXPECT_FLOAT_EQ(plain.ob.data()[k], padded.ob.data()[k]);
    }
  }
}

TEST_F(TmnModelTest, PaddedForwardGradientsMatchUnpadded) {
  TmnModel model(Config());
  const auto loss_of = [&](bool padded) {
    for (nn::Tensor& p : model.mutable_parameters()) p.ZeroGrad();
    const PairOutput out = padded
                               ? model.ForwardPairPadded(trajs_[0], trajs_[1])
                               : model.ForwardPair(trajs_[0], trajs_[1]);
    nn::Tensor loss =
        PredictedSimilarity(FinalRow(out.oa), FinalRow(out.ob));
    loss.Backward();
    std::vector<float> grads;
    for (const nn::Tensor& p : model.Parameters()) {
      grads.insert(grads.end(), p.grad().begin(), p.grad().end());
    }
    return grads;
  };
  const std::vector<float> plain = loss_of(false);
  const std::vector<float> padded = loss_of(true);
  ASSERT_EQ(plain.size(), padded.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_NEAR(plain[i], padded[i], 1e-5f) << "grad index " << i;
  }
}

TEST_F(TmnModelTest, GruBackboneRunsAndDiffersFromLstm) {
  TmnModelConfig lstm_config = Config();
  TmnModelConfig gru_config = Config();
  gru_config.rnn = nn::RnnKind::kGru;
  TmnModel lstm_model(lstm_config);
  TmnModel gru_model(gru_config);
  const PairOutput lstm_out = lstm_model.ForwardPair(trajs_[0], trajs_[1]);
  const PairOutput gru_out = gru_model.ForwardPair(trajs_[0], trajs_[1]);
  ASSERT_EQ(lstm_out.oa.rows(), gru_out.oa.rows());
  EXPECT_NE(lstm_out.oa.data(), gru_out.oa.data());
}

TEST_F(TmnModelTest, GradientsFlowToAllParameters) {
  TmnModel model(Config());
  const PairOutput out = model.ForwardPair(trajs_[0], trajs_[1]);
  nn::Tensor loss = nn::Sum(nn::Add(nn::Sum(out.oa), nn::Sum(out.ob)));
  loss.Backward();
  size_t nonzero_params = 0;
  for (const nn::Tensor& p : model.Parameters()) {
    bool any = false;
    for (float g : p.grad()) {
      if (g != 0.0f) any = true;
    }
    if (any) ++nonzero_params;
  }
  // Every parameter tensor should receive gradient (embed, LSTM, MLP).
  EXPECT_EQ(nonzero_params, model.Parameters().size());
}

TEST_F(TmnModelTest, EndToEndLossGradientMatchesNumeric) {
  // Full-model finite-difference check through matching + LSTM + MLP +
  // similarity head, on the embedding weight matrix.
  TmnModelConfig config;
  config.hidden_dim = 4;
  config.seed = 9;
  TmnModel model(config);
  geo::Trajectory a({{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.4}});
  geo::Trajectory b({{0.2, 0.2}, {0.4, 0.5}});
  const auto loss_fn = [&] {
    const PairOutput out = model.ForwardPair(a, b);
    const nn::Tensor pred =
        PredictedSimilarity(FinalRow(out.oa), FinalRow(out.ob));
    return nn::Square(nn::AddConst(pred, -0.5));
  };
  std::vector<nn::Tensor> params = model.Parameters();
  // Check the first parameter (embedding weight) and one LSTM matrix.
  EXPECT_LT(nn::MaxGradError(loss_fn, params[0], 1e-3), 5e-2);
  EXPECT_LT(nn::MaxGradError(loss_fn, params[2], 1e-3), 5e-2);
}

}  // namespace
}  // namespace tmn::core
