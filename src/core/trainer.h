#ifndef TMN_CORE_TRAINER_H_
#define TMN_CORE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/loss.h"
#include "core/model.h"
#include "core/sampler.h"
#include "distance/metric.h"
#include "geo/trajectory.h"
#include "nn/optimizer.h"
#include "nn/rng.h"

namespace tmn::core {

// Training hyperparameters (Sections IV.C-IV.D and V.A).
struct TrainConfig {
  int epochs = 5;
  double lr = 5e-3;                  // Adam learning rate.
  size_t sampling_num = 20;          // sn = 2k samples per anchor.
  bool use_rank_weights = true;      // w_as of Eq. 14.
  bool use_sub_loss = true;          // L_sub of Eq. 15.
  int sub_stride = 10;               // "every 10th point as a new end point".
  LossKind loss = LossKind::kMse;
  double alpha = 8.0;                // S = exp(-alpha * D).
  double grad_clip = 5.0;            // Global-norm gradient clipping.
  uint64_t seed = 99;                // Sampling shuffle seed.
  // Worker threads for the per-anchor forward/backward fan-out and the
  // sub-distance precompute (0 = all hardware threads, 1 = sequential).
  // Results are bitwise identical for every value: see docs/PARALLELISM.md.
  int num_threads = 0;
};

// A sensible alpha for a distance matrix: 1 / mean off-diagonal distance,
// placing the mean similarity near exp(-1). The paper hand-picks alpha per
// metric on raw coordinates; the scaled benches derive it from the data.
double SuggestAlpha(const DoubleMatrix& distances);

// Metric-learning trainer shared by TMN and every baseline: per anchor it
// draws near/far partners from the sampler, accumulates the weighted
// entire-trajectory loss (Eq. 14) plus optionally the sub-trajectory loss
// (Eq. 15), and takes one Adam step per anchor mini-batch (Eq. 16).
class PairTrainer {
 public:
  // `model`, `train_set`, `distances`, `metric` and `sampler` must outlive
  // the trainer. `distances` is the pairwise ground-truth matrix over
  // `train_set`; `metric` is needed only when config.use_sub_loss (prefix
  // ground truths are computed per anchor batch).
  PairTrainer(SimilarityModel* model,
              const std::vector<geo::Trajectory>* train_set,
              const DoubleMatrix* distances,
              const dist::DistanceMetric* metric, const Sampler* sampler,
              const TrainConfig& config);

  // One pass over all anchors (shuffled); returns the mean per-pair loss.
  double TrainEpoch();

  // Runs config.epochs epochs; returns the per-epoch mean losses.
  std::vector<double> Train();

  // Train() with fault tolerance: if `manager` holds a valid checkpoint it
  // is restored first, then training continues to config.epochs with a
  // checkpoint published every `checkpoint_every` epochs. The returned
  // losses always cover all config.epochs epochs (restored ones included),
  // and — by the determinism contract — are bitwise identical to an
  // uninterrupted Train() at any thread count, as are the final
  // parameters. A checkpoint that fails to save is reported to stderr and
  // training continues (losing at most the progress since the last one).
  std::vector<double> TrainWithCheckpoints(CheckpointManager& manager,
                                           int checkpoint_every = 1);

  // Snapshot of the trainer at the current epoch boundary. `losses` are
  // the per-epoch losses produced so far (the trainer does not retain
  // them); its size must equal epochs_completed().
  TrainerCheckpoint CaptureCheckpoint(const std::vector<double>& losses) const;

  // Restores parameters, optimizer moments, Rng stream and epoch cursor
  // from `checkpoint`, filling `losses` with the restored history.
  // kInvalidArgument / kCorruption when the checkpoint does not fit this
  // trainer's model; the trainer is left unusable in that case and must
  // not train on.
  common::Status RestoreCheckpoint(const TrainerCheckpoint& checkpoint,
                                   std::vector<double>* losses);

  int epochs_completed() const { return epochs_completed_; }

 private:
  // Loss term for one (anchor, sample) pair; adds into `terms`/`weights`.
  // `sub_dists` holds the pair's precomputed prefix ground truths (unread
  // when config.use_sub_loss is off). Called concurrently by workers; must
  // not touch trainer state beyond const reads.
  void AccumulatePairLoss(size_t anchor, const TrainingSample& sample,
                          const std::vector<double>& sub_dists,
                          std::vector<nn::Tensor>* terms,
                          std::vector<double>* weights) const;

  // The prefix ground-truth distances of every (anchor, sample) pair,
  // computed across the pool, one vector per sample, aligned with
  // `samples`. All empty when config.use_sub_loss is off.
  std::vector<std::vector<double>> PrepareSubDistances(
      size_t anchor, const std::vector<TrainingSample>& samples) const;

  SimilarityModel* model_;
  const std::vector<geo::Trajectory>* train_set_;
  const DoubleMatrix* distances_;
  const dist::DistanceMetric* metric_;
  const Sampler* sampler_;
  TrainConfig config_;
  std::vector<nn::Tensor> params_;
  std::unique_ptr<nn::Adam> optimizer_;
  nn::Rng rng_;
  int epochs_completed_ = 0;
};

}  // namespace tmn::core

#endif  // TMN_CORE_TRAINER_H_
