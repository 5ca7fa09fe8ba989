#ifndef TMN_CORE_MODEL_H_
#define TMN_CORE_MODEL_H_

#include <string>
#include <utility>
#include <vector>

#include "geo/trajectory.h"
#include "nn/tensor.h"

namespace tmn::core {

// Per-pair forward result: the O matrices of Section IV.B. Row t of `oa`
// is the learned representation of the length-(t+1) prefix of trajectory
// a; the last row represents the whole trajectory. The predicted
// similarity of the pair is exp(-||oa.last - ob.last||).
struct PairOutput {
  nn::Tensor oa;  // (|a| x d)
  nn::Tensor ob;  // (|b| x d)
};

// Common interface for TMN and every baseline. Implementations are also
// nn::Module subclasses; Parameters() exposes the trainable tensors.
class SimilarityModel {
 public:
  virtual ~SimilarityModel() = default;

  virtual std::string Name() const = 0;

  // True when the representation of one trajectory depends on its partner
  // (TMN's matching mechanism). Pairwise models cannot pre-embed a
  // database; evaluation must call ForwardPair per candidate — this is
  // exactly the extra inference cost Table III reports for TMN.
  virtual bool IsPairwise() const = 0;

  // Builds the autograd graph for a pair and returns both O matrices.
  virtual PairOutput ForwardPair(const geo::Trajectory& a,
                                 const geo::Trajectory& b) const = 0;

  // Per-prefix outputs for a single trajectory. Only meaningful for
  // non-pairwise models; pairwise models abort.
  virtual nn::Tensor ForwardSingle(const geo::Trajectory& t) const = 0;

  // ForwardSingle over several trajectories at once; result i corresponds
  // to batch[i] (all pointers non-null). The contract is bitwise identity
  // with per-item ForwardSingle at every batch size — callers (the
  // serving micro-batcher) rely on batching being an invisible
  // performance detail. The default runs ForwardSingle per item; models
  // with a fused batch path (TmnModel's batched LSTM) override it to
  // amortize the per-step matmuls across the batch.
  virtual std::vector<nn::Tensor> ForwardSingleBatch(
      const std::vector<const geo::Trajectory*>& batch) const;

  // The sequence whose prefixes correspond to rows of ForwardPair's
  // output. Defaults to the input itself; models that pre-simplify their
  // input (Traj2SimVec) override it so the sub-trajectory loss computes
  // ground truth on matching prefixes.
  virtual geo::Trajectory LossTrajectory(const geo::Trajectory& t) const {
    return t;
  }

  virtual std::vector<nn::Tensor> Parameters() const = 0;

  // Hook invoked by the trainer after each optimizer step; stateful models
  // (NeuTraj's SAM memory) use it to refresh their side state.
  virtual void OnTrainStep() {}

  // False for models whose grad-mode forward pass mutates shared side
  // state (NeuTraj's pending SAM writes): the trainer then runs its
  // per-anchor batch sequentially instead of across the thread pool. The
  // chunked gradient accumulation is identical either way, so results do
  // not depend on this flag's interaction with the thread count.
  virtual bool SupportsParallelTraining() const { return true; }
};

// The final (whole-trajectory) representation from a PairOutput side.
nn::Tensor FinalRow(const nn::Tensor& o);

// Predicted similarity of a pair given both final representations:
// exp(-||ra - rb||), a scalar tensor in (0, 1].
nn::Tensor PredictedSimilarity(const nn::Tensor& ra, const nn::Tensor& rb);

}  // namespace tmn::core

#endif  // TMN_CORE_MODEL_H_
