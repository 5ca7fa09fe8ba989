#ifndef TMN_CORE_TMN_MODEL_H_
#define TMN_CORE_TMN_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/module.h"
#include "nn/rnn.h"

namespace tmn::core {

// Architecture hyperparameters (Section V.A: d = 128 in the paper; the
// scaled-down benches default to 32).
struct TmnModelConfig {
  int hidden_dim = 32;        // d: RNN hidden width and output width.
  int mlp_layers = 2;         // Layers in the output MLP (d -> d).
  bool use_matching = true;   // false = the TMN-NM ablation.
  // The paper uses LSTM; GRU is provided for the backbone ablation.
  nn::RnnKind rnn = nn::RnnKind::kLstm;
  uint64_t seed = 1;          // Parameter initialization seed.
};

// The paper's model (Figure 2):
//   X    = LeakyReLU(Linear(points))                    point embeddings,
//   P    = softmax(X_a X_b^T) row-wise                  match pattern (Eq. 8),
//   M    = X_a - P X_b                                  discrepancies (Eq. 11),
//   Z    = LSTM(X_a ++ M)                               (Eq. 12),
//   O    = MLP(Z)                                       (Eq. 13),
// with the representation of a trajectory being O's last row.
//
// The implementation processes each pair unpadded: for one pair on a CPU
// the padded-and-masked computation of the paper (a GPU batching device)
// is exactly equivalent to computing the m x n attention directly, which
// the test suite verifies against an explicitly padded+masked reference.
class TmnModel : public nn::Module, public SimilarityModel {
 public:
  explicit TmnModel(const TmnModelConfig& config);

  std::string Name() const override {
    return config_.use_matching ? "TMN" : "TMN-NM";
  }
  bool IsPairwise() const override { return config_.use_matching; }

  PairOutput ForwardPair(const geo::Trajectory& a,
                         const geo::Trajectory& b) const override;
  nn::Tensor ForwardSingle(const geo::Trajectory& t) const override;

  // TMN-NM batched encode: embeds each trajectory, runs the RNN once
  // over the whole batch (nn::Rnn::ForwardBatch), then the MLP per item.
  // Bitwise identical to per-item ForwardSingle at every batch size, in
  // and out of grad mode, for either backbone.
  std::vector<nn::Tensor> ForwardSingleBatch(
      const std::vector<const geo::Trajectory*>& batch) const override;

  // The paper's literal pipeline: pads the shorter trajectory with zero
  // points to the common length, embeds the padded matrices, masks the
  // attention columns of padded partner points and zeroes padded rows
  // (Section IV.B). Produces bit-identical outputs to ForwardPair — the
  // unpadded path is the same computation without the batching scaffolding
  // — which the test suite verifies. Kept for fidelity and as the
  // building block for batched execution.
  PairOutput ForwardPairPadded(const geo::Trajectory& a,
                               const geo::Trajectory& b) const;

  std::vector<nn::Tensor> Parameters() const override { return parameters(); }

  const TmnModelConfig& config() const { return config_; }

  // Point-embedding matrix X = LeakyReLU(Linear(coords)) for a trajectory
  // (|t| x d/2). Exposed for the matching-mechanism tests.
  nn::Tensor EmbedPoints(const geo::Trajectory& t) const;

  // The match pattern P_{a<-b} (Eq. 8) for inspection/visualization:
  // row i holds the attention of a's point i over b's points.
  nn::Tensor MatchPattern(const geo::Trajectory& a,
                          const geo::Trajectory& b) const;

 private:
  // One direction of the model: representations of `x` given partner
  // embedding `other` (or no matching when !use_matching).
  nn::Tensor EncodeSide(const nn::Tensor& x, const nn::Tensor& other) const;

  TmnModelConfig config_;
  nn::Rng init_rng_;
  nn::Linear embed_;  // 2 -> d/2 (Eq. 4).
  nn::Rnn rnn_;       // (d or d/2) -> d; LSTM by default.
  nn::Mlp mlp_;       // d -> d.
};

}  // namespace tmn::core

#endif  // TMN_CORE_TMN_MODEL_H_
