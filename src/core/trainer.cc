#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "nn/serialize.h"
#include "distance/distance_matrix.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace tmn::core {

namespace {

// Samples per gradient chunk. Each chunk accumulates its parameter
// gradients into its own GradSink and the sinks are reduced in chunk
// order, so the arithmetic depends only on this constant — never on the
// thread count. Small enough to spread an anchor batch across many
// workers, large enough to amortize the per-sink hash-map overhead.
constexpr size_t kGradChunkSamples = 2;

// Trainer metrics. Counters are kStable: for a fixed seed and corpus the
// pair/chunk arithmetic is bitwise identical at any thread count
// (the determinism contract), so tools/bench_compare hard-gates them.
struct TrainerMetrics {
  obs::Counter& epochs;
  obs::Counter& anchors;
  obs::Counter& pairs;
  obs::Counter& grad_chunks;
  obs::Counter& nonfinite_batches;
  obs::Histogram& epoch_seconds;
  obs::Histogram& sub_distance_seconds;

  static TrainerMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static TrainerMetrics m{
        reg.GetCounter("tmn.core.trainer.epochs"),
        reg.GetCounter("tmn.core.trainer.anchors"),
        reg.GetCounter("tmn.core.trainer.pairs"),
        reg.GetCounter("tmn.core.trainer.grad_chunks"),
        reg.GetCounter("tmn.core.trainer.nonfinite_batches"),
        reg.GetTimer("tmn.core.trainer.epoch_seconds"),
        reg.GetTimer("tmn.core.trainer.sub_distance_seconds"),
    };
    return m;
  }
};

}  // namespace

double SuggestAlpha(const DoubleMatrix& distances) {
  const double mean = dist::MeanOffDiagonal(distances);
  return mean > 0.0 ? 1.0 / mean : 1.0;
}

PairTrainer::PairTrainer(SimilarityModel* model,
                         const std::vector<geo::Trajectory>* train_set,
                         const DoubleMatrix* distances,
                         const dist::DistanceMetric* metric,
                         const Sampler* sampler, const TrainConfig& config)
    : model_(model),
      train_set_(train_set),
      distances_(distances),
      metric_(metric),
      sampler_(sampler),
      config_(config),
      rng_(config.seed) {
  TMN_CHECK(model_ != nullptr && train_set_ != nullptr &&
            distances_ != nullptr && sampler_ != nullptr);
  TMN_CHECK(distances_->rows() == train_set_->size());
  TMN_CHECK(distances_->cols() == train_set_->size());
  TMN_CHECK(!config_.use_sub_loss || metric_ != nullptr);
  TMN_CHECK(config_.alpha > 0.0);
  params_ = model_->Parameters();
  optimizer_ = std::make_unique<nn::Adam>(params_, config_.lr);
}

std::vector<std::vector<double>> PairTrainer::PrepareSubDistances(
    size_t anchor, const std::vector<TrainingSample>& samples) const {
  std::vector<std::vector<double>> out(samples.size());
  if (!config_.use_sub_loss) return out;
  obs::ScopedTimer timer(TrainerMetrics::Get().sub_distance_seconds);
  const geo::Trajectory loss_a = model_->LossTrajectory((*train_set_)[anchor]);
  common::ParallelFor(
      0, samples.size(),
      [&](size_t i) {
        const geo::Trajectory loss_b =
            model_->LossTrajectory((*train_set_)[samples[i].index]);
        const size_t limit = std::min(loss_a.size(), loss_b.size());
        for (size_t len = config_.sub_stride; len <= limit;
             len += config_.sub_stride) {
          out[i].push_back(
              metric_->Compute(loss_a.Prefix(len), loss_b.Prefix(len)));
        }
      },
      config_.num_threads);
  return out;
}

void PairTrainer::AccumulatePairLoss(size_t anchor,
                                     const TrainingSample& sample,
                                     const std::vector<double>& sub_dists,
                                     std::vector<nn::Tensor>* terms,
                                     std::vector<double>* weights) const {
  const geo::Trajectory& traj_a = (*train_set_)[anchor];
  const geo::Trajectory& traj_s = (*train_set_)[sample.index];
  const double weight = config_.use_rank_weights ? sample.weight : 1.0;

  const PairOutput out = model_->ForwardPair(traj_a, traj_s);

  // L_entire (Eq. 14): weighted regression on the whole-pair similarity.
  const double truth_sim =
      std::exp(-config_.alpha * distances_->at(anchor, sample.index));
  const nn::Tensor pred_sim =
      PredictedSimilarity(FinalRow(out.oa), FinalRow(out.ob));
  terms->push_back(PairLoss(pred_sim, truth_sim, config_.loss));
  weights->push_back(weight);

  if (!config_.use_sub_loss) return;

  // L_sub (Eq. 15): prefix pairs at stride sub_stride, averaged over r.
  // Prefix ground truths were precomputed on the model's loss
  // trajectories so a model that pre-simplifies its input (Traj2SimVec)
  // stays consistent.
  if (sub_dists.empty()) return;
  const double r = static_cast<double>(sub_dists.size());
  for (size_t k = 0; k < sub_dists.size(); ++k) {
    const size_t len = (k + 1) * static_cast<size_t>(config_.sub_stride);
    TMN_CHECK(static_cast<int>(len) <= out.oa.rows());
    TMN_CHECK(static_cast<int>(len) <= out.ob.rows());
    const nn::Tensor pred_sub = PredictedSimilarity(
        nn::Row(out.oa, static_cast<int>(len) - 1),
        nn::Row(out.ob, static_cast<int>(len) - 1));
    const double truth_sub = std::exp(-config_.alpha * sub_dists[k]);
    terms->push_back(PairLoss(pred_sub, truth_sub, config_.loss));
    weights->push_back(weight / r);
  }
}

double PairTrainer::TrainEpoch() {
  TrainerMetrics& metrics = TrainerMetrics::Get();
  obs::ScopedTimer epoch_timer(metrics.epoch_seconds);
  const size_t n = train_set_->size();
  std::vector<size_t> anchors(n);
  for (size_t i = 0; i < n; ++i) anchors[i] = i;
  rng_.Shuffle(anchors);

  const int fan_out =
      model_->SupportsParallelTraining() ? config_.num_threads : 1;

  double loss_sum = 0.0;
  size_t pair_count = 0;
  for (size_t anchor : anchors) {
    const std::vector<TrainingSample> samples =
        sampler_->SampleFor(anchor, rng_);
    if (samples.empty()) continue;
    const std::vector<std::vector<double>> subs =
        PrepareSubDistances(anchor, samples);

    // Data-parallel forward + backward over fixed-size sample chunks.
    // Workers never touch param.grad(): each chunk's gradients land in its
    // own GradSink (leaf writes are redirected by the thread-local
    // GradSinkScope), and the sinks are reduced below in chunk order —
    // so the update is bitwise identical for any thread count.
    const size_t num_chunks =
        (samples.size() + kGradChunkSamples - 1) / kGradChunkSamples;
    metrics.anchors.Increment();
    metrics.grad_chunks.Increment(num_chunks);
    std::vector<nn::GradSink> sinks(num_chunks);
    std::vector<double> chunk_values(num_chunks, 0.0);
    common::ParallelFor(
        0, num_chunks,
        [&](size_t ci) {
          nn::GradSinkScope scope(&sinks[ci]);
          const size_t first = ci * kGradChunkSamples;
          const size_t last =
              std::min(first + kGradChunkSamples, samples.size());
          for (size_t s = first; s < last; ++s) {
            std::vector<nn::Tensor> terms;
            std::vector<double> weights;
            AccumulatePairLoss(anchor, samples[s], subs[s], &terms,
                               &weights);
            if (terms.empty()) continue;
            nn::Tensor total = nn::WeightedSumScalars(terms, weights);
            chunk_values[ci] += static_cast<double>(total.item());
            // Backward into this chunk's sink. If the batch turns out
            // non-finite the sinks are simply dropped, so running it
            // before the NaN check below is safe.
            total.Backward();
          }
        },
        fan_out);

    double value = 0.0;
    for (double v : chunk_values) value += v;
    if (!std::isfinite(value)) {  // NaN guard: skip this batch.
      metrics.nonfinite_batches.Increment();
      continue;
    }

    optimizer_->ZeroGrad();
    for (const nn::GradSink& sink : sinks) {
      for (nn::Tensor& p : params_) {
        const std::vector<float>* buf = sink.Find(p.impl().get());
        if (buf == nullptr) continue;
        std::vector<float>& g = p.grad();
        for (size_t i = 0; i < g.size(); ++i) g[i] += (*buf)[i];
      }
    }
    nn::ClipGradNorm(params_, config_.grad_clip);
    optimizer_->Step();
    model_->OnTrainStep();
    loss_sum += value;
    pair_count += samples.size();
  }
  metrics.pairs.Increment(pair_count);
  metrics.epochs.Increment();
  ++epochs_completed_;
  return pair_count > 0 ? loss_sum / static_cast<double>(pair_count) : 0.0;
}

std::vector<double> PairTrainer::Train() {
  std::vector<double> losses;
  losses.reserve(config_.epochs);
  for (int e = 0; e < config_.epochs; ++e) {
    losses.push_back(TrainEpoch());
  }
  return losses;
}

TrainerCheckpoint PairTrainer::CaptureCheckpoint(
    const std::vector<double>& losses) const {
  TMN_CHECK_MSG(losses.size() == static_cast<size_t>(epochs_completed_),
                "CaptureCheckpoint needs one loss per completed epoch");
  TrainerCheckpoint checkpoint;
  checkpoint.epoch = static_cast<uint64_t>(epochs_completed_);
  checkpoint.losses = losses;
  checkpoint.params_payload = nn::EncodeParameters(params_);
  checkpoint.rng = rng_.SaveState();
  checkpoint.adam = optimizer_->ExportState();
  return checkpoint;
}

common::Status PairTrainer::RestoreCheckpoint(
    const TrainerCheckpoint& checkpoint, std::vector<double>* losses) {
  if (checkpoint.pair_cursor != 0) {
    return common::InvalidArgumentError(
        "checkpoint has a mid-epoch pair cursor; this build only resumes "
        "at epoch boundaries");
  }
  TMN_RETURN_IF_ERROR(
      nn::DecodeParameters(checkpoint.params_payload, params_));
  if (!optimizer_->RestoreState(checkpoint.adam)) {
    return common::InvalidArgumentError(
        "checkpoint optimizer state does not match the model's parameter "
        "shapes");
  }
  rng_.RestoreState(checkpoint.rng);
  epochs_completed_ = static_cast<int>(checkpoint.epoch);
  *losses = checkpoint.losses;
  return common::Status::Ok();
}

std::vector<double> PairTrainer::TrainWithCheckpoints(
    CheckpointManager& manager, int checkpoint_every) {
  TMN_CHECK(checkpoint_every > 0);
  std::vector<double> losses;
  TrainerCheckpoint checkpoint;
  common::Status found = manager.LoadLatestValid(&checkpoint);
  if (found.ok()) {
    common::Status restored = RestoreCheckpoint(checkpoint, &losses);
    TMN_CHECK_MSG(restored.ok(), restored.ToString().c_str());
    std::fprintf(stderr, "PairTrainer: resuming from epoch %d\n",
                 epochs_completed_);
  } else if (found.code() != common::StatusCode::kNotFound) {
    std::fprintf(stderr,
                 "PairTrainer: starting fresh; checkpoint store unusable: "
                 "%s\n",
                 found.ToString().c_str());
  }
  for (int e = epochs_completed_; e < config_.epochs; ++e) {
    losses.push_back(TrainEpoch());
    if ((e + 1) % checkpoint_every != 0 && e + 1 != config_.epochs) continue;
    const common::Status saved = manager.Save(CaptureCheckpoint(losses));
    if (!saved.ok()) {
      std::fprintf(stderr, "PairTrainer: checkpoint failed (continuing): %s\n",
                   saved.ToString().c_str());
      continue;
    }
    // Crash site for the recovery harness: dying here models a power cut
    // right after a checkpoint was published.
    (void)TMN_FAILPOINT("trainer.after_checkpoint");
  }
  return losses;
}

}  // namespace tmn::core
