// train: PairTrainer on the paper's TMN (with matching), then top-k
// queries answered by the trained pairwise model. See ../README.md.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/sampler.h"
#include "core/tmn_model.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "distance/distance_matrix.h"
#include "distance/metric.h"
#include "eval/evaluation.h"
#include "eval/metrics.h"
#include "geo/preprocess.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/rng.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace tmn::perfbench {
namespace {

using obs::MonotonicSeconds;

constexpr int kTrainSize = 256;
constexpr size_t kQueryPool = 128;
constexpr int kHidden = 32;
constexpr uint64_t kModelSeed = 1;
constexpr size_t kSamplingNum = 10;
constexpr size_t kTopK = 10;
constexpr int kTrainSetupRepeats = 31;  // Set-up is short; take more.
// Fixed work: epochs = ceil(kEpochsPerSecond * --seconds), so the loss
// depends only on the seed and the run length.
constexpr double kEpochsPerSecond = 0.2;
// Of --seconds: the open-loop and the closed-loop query time. The closed
// share gives each round whole rate windows at the usual run length.
constexpr double kOpenShare = 0.25;
constexpr double kClosedShare = 0.25;
constexpr double kQueryRateQps = 1000.0;  // Frozen open-loop rate.
// Open/closed slices the query time is cut into, spread over the run so
// a slow stretch of the machine moves few of the closed-loop windows.
constexpr int kRounds = 10;
// One client: concurrent predictions on one shared model contend on its
// parameter handles, and the peak swung 4x between runs with three.
constexpr int kClosedClients = 1;
constexpr size_t kReplayAnchors = 8;
// Windows of the anchor-counter rate: about 64 anchors each, so that one
// anchor more or less moves a window by under 2%.
constexpr double kAnchorWindowSeconds = 0.5;

struct Inputs {
  std::vector<geo::Trajectory> train;
  std::vector<geo::Trajectory> queries;
};

Inputs MakeInputs(uint64_t seed) {
  const std::vector<geo::Trajectory> raw = data::GeneratePortoLike(
      kTrainSize + static_cast<int>(kQueryPool), seed);
  const std::vector<geo::Trajectory> train_raw(raw.begin(),
                                               raw.begin() + kTrainSize);
  const std::vector<geo::Trajectory> query_raw(raw.begin() + kTrainSize,
                                               raw.end());
  const geo::NormalizationParams norm = geo::ComputeNormalization(train_raw);
  return Inputs{geo::NormalizeTrajectories(train_raw, norm),
                geo::NormalizeTrajectories(query_raw, norm)};
}

core::TmnModelConfig ModelConfig() {
  core::TmnModelConfig config;
  config.hidden_dim = kHidden;
  config.use_matching = true;
  config.seed = kModelSeed;
  return config;
}

core::TrainConfig TrainerConfig(const DoubleMatrix& d) {
  core::TrainConfig config;
  config.sampling_num = kSamplingNum;
  config.use_sub_loss = true;
  config.alpha = core::SuggestAlpha(d);
  config.num_threads = static_cast<int>(
      std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
  return config;
}

// Top-k of `query` among `base` by the pairwise model's predicted
// distance: one joint forward per candidate, fanned out over the pool.
std::vector<size_t> PairwiseTopK(const core::SimilarityModel& model,
                                 const std::vector<geo::Trajectory>& base,
                                 const geo::Trajectory& query) {
  std::vector<double> scores(base.size());
  common::ParallelFor(0, base.size(), [&](size_t c) {
    scores[c] = eval::PredictDistance(model, query, base[c]);
  });
  return eval::TopKIndices(scores, kTopK, scores.size());
}

// Single-thread replay of a few anchors through the trainer's per-pair
// steps (ForwardPair + loss, Backward, Adam::Step) on a fresh model, for
// the core per-layer split. Returns {forward_s, backward_s, optimizer_s,
// pairs, steps}.
struct Replay {
  double forward_s = 0.0;
  double backward_s = 0.0;
  double optimizer_s = 0.0;
  double pairs = 0.0;
  double steps = 0.0;
};

Replay ReplayCore(const Inputs& inputs, const DoubleMatrix& d,
                  const dist::DistanceMetric& metric, uint64_t seed,
                  SpanRecorder* spans) {
  const core::TrainConfig config = TrainerConfig(d);
  core::TmnModel model(ModelConfig());
  std::vector<nn::Tensor> params = model.Parameters();
  nn::Adam adam(params, config.lr);
  core::RandomSortSampler sampler(&d, kSamplingNum);
  nn::Rng rng(seed);
  Replay replay;
  for (size_t a = 0; a < kReplayAnchors; ++a) {
    const size_t anchor = Mix(seed, a) % inputs.train.size();
    const std::vector<core::TrainingSample> samples =
        sampler.SampleFor(anchor, rng);
    const int64_t root = spans->Open("core.anchor", MonotonicSeconds(), -1, a);
    adam.ZeroGrad();
    for (const core::TrainingSample& s : samples) {
      const geo::Trajectory& ta = inputs.train[anchor];
      const geo::Trajectory& tb = inputs.train[s.index];
      // Prefix ground truths, as the trainer caches them (not timed).
      std::vector<double> sub;
      const size_t limit = std::min(ta.size(), tb.size());
      for (size_t len = config.sub_stride; len <= limit; len += config.sub_stride) {
        sub.push_back(metric.Compute(ta.Prefix(len), tb.Prefix(len)));
      }
      double t0 = MonotonicSeconds();
      const core::PairOutput out = model.ForwardPair(ta, tb);
      std::vector<nn::Tensor> terms = {core::PairLoss(
          core::PredictedSimilarity(core::FinalRow(out.oa),
                                    core::FinalRow(out.ob)),
          std::exp(-config.alpha * d.at(anchor, s.index)), config.loss)};
      std::vector<double> weights = {s.weight};
      for (size_t k = 0; k < sub.size(); ++k) {
        const int row = static_cast<int>((k + 1) * config.sub_stride) - 1;
        terms.push_back(core::PairLoss(
            core::PredictedSimilarity(nn::Row(out.oa, row), nn::Row(out.ob, row)),
            std::exp(-config.alpha * sub[k]), config.loss));
        weights.push_back(s.weight / static_cast<double>(sub.size()));
      }
      nn::Tensor total = nn::WeightedSumScalars(terms, weights);
      double t1 = MonotonicSeconds();
      spans->Add("core.forward", t0, t1, root, a);
      replay.forward_s += t1 - t0;
      t0 = MonotonicSeconds();
      total.Backward();
      t1 = MonotonicSeconds();
      spans->Add("core.backward", t0, t1, root, a);
      replay.backward_s += t1 - t0;
      replay.pairs += 1.0;
    }
    const double t0 = MonotonicSeconds();
    adam.Step();
    const double t1 = MonotonicSeconds();
    spans->Add("core.optimizer", t0, t1, root, a);
    spans->Close(root, t1);
    replay.optimizer_s += t1 - t0;
    replay.steps += 1.0;
  }
  return replay;
}

}  // namespace

WorkloadResult RunTrain(const RunOptions& options) {
  WorkloadResult result;
  SpanRecorder spans(options.trace);
  SpanRecorder no_spans(false);
  const Inputs inputs = MakeInputs(options.seed);
  const std::unique_ptr<dist::DistanceMetric> metric =
      dist::CreateMetric(dist::MetricType::kDtw);
  const int epochs = static_cast<int>(std::ceil(kEpochsPerSecond * options.seconds));
  const double open_s = kOpenShare * options.seconds;
  const double closed_s = kClosedShare * options.seconds;

  result.Stamp("workload", "train");
  result.Stamp("seed", std::to_string(options.seed));
  result.Stamp("data", std::to_string(kTrainSize) +
                           " porto-like trajectories, DTW ground truth; " +
                           std::to_string(kQueryPool) + " held-out queries");
  result.Stamp("model", "TMN with matching, hidden_dim=" +
                            std::to_string(kHidden) +
                            " seed=" + std::to_string(kModelSeed));
  const RegistrySnapshot setup_before = RegistrySnapshot::Take();

  // Set-up: ground-truth matrix + PairTrainer construction, repeated.
  std::vector<double> setup_times;
  DoubleMatrix d;
  core::TmnModel model(ModelConfig());
  std::unique_ptr<core::RandomSortSampler> sampler;
  std::unique_ptr<core::PairTrainer> trainer;
  for (int r = 0; r < kTrainSetupRepeats; ++r) {
    trainer.reset();
    sampler.reset();
    const double t0 = MonotonicSeconds();
    d = dist::ComputeDistanceMatrix(inputs.train, *metric);
    sampler = std::make_unique<core::RandomSortSampler>(&d, kSamplingNum);
    trainer = std::make_unique<core::PairTrainer>(
        &model, &inputs.train, &d, metric.get(), sampler.get(),
        TrainerConfig(d));
    setup_times.push_back(MonotonicSeconds() - t0);
  }
  const RegistryDelta setup{setup_before, RegistrySnapshot::Take()};
  const core::TrainConfig train_config = TrainerConfig(d);
  result.Stamp("training", std::to_string(epochs) + " TrainEpoch calls, "
               "sampling_num=10, sub-trajectory loss on, num_threads=" +
               std::to_string(train_config.num_threads));
  result.Stamp("queries", "one pairwise prediction each; " +
                              std::to_string(kRounds) + " x (open loop " +
                              FormatNumber(kQueryRateQps) + " queries/s for " +
                              FormatNumber(open_s / kRounds) +
                              " s; closed loop " +
                              std::to_string(kClosedClients) + " clients for " +
                              FormatNumber(closed_s / kRounds) + " s)");
  result.Stamp("setup_repeats", static_cast<double>(kTrainSetupRepeats));

  // ---- Training. -------------------------------------------------------
  RegistryDelta train_phase;
  train_phase.before = RegistrySnapshot::Take();
  // The trainer counts an anchor as it starts on it; sampling that counter
  // at every window boundary gives the anchor rate of each window.
  const obs::Counter& anchors =
      obs::Registry::Global().GetCounter("tmn.core.trainer.anchors");
  double loss = 0.0;
  const std::vector<double> anchor_rates = SampledWindowRates(
      [&] { return static_cast<double>(anchors.value()); }, kAnchorWindowSeconds,
      [&] {
        for (int e = 0; e < epochs; ++e) {
          loss = trainer->TrainEpoch();
          ++result.attempted;
          if (!std::isfinite(loss)) {
            result.Fail("epoch " + std::to_string(e) + " loss is not finite");
          }
        }
      });
  train_phase.after = RegistrySnapshot::Take();
  if (train_phase.Counter("tmn.core.trainer.nonfinite_batches") > 0) {
    result.Fail("training skipped non-finite batches");
  }
  // Pairs per anchor are fixed by sampling_num; the upper quartile of the
  // window rates, as for every throughput figure.
  const double pairs_per_anchor =
      train_phase.Counter("tmn.core.trainer.pairs") /
      train_phase.Counter("tmn.core.trainer.anchors");
  const double pairs_per_s =
      pairs_per_anchor * Quantile(anchor_rates, kRateQuantile);

  // ---- Queries on the trained model. ---------------------------------
  // TMN's matching mechanism sees both trajectories, so the model cannot
  // pre-embed a database and its unit of inference is one pairwise
  // prediction: a query here scores one (held-out query, training
  // trajectory) pair on the caller's thread. A seeded sample is predicted
  // again and must match bitwise.
  std::atomic<uint64_t> bad_pairs{0};
  auto query_op = [&](uint64_t salt, size_t i, SpanRecorder* recorder) {
    const uint64_t h = Mix(options.seed ^ salt, i);
    const geo::Trajectory& q = inputs.queries[h % kQueryPool];
    const geo::Trajectory& c = inputs.train[(h >> 20) % inputs.train.size()];
    const double t0 = MonotonicSeconds();
    const double predicted = eval::PredictDistance(model, q, c);
    recorder->Add("eval.predict_pair", t0, MonotonicSeconds(), -1, i);
    bool ok = std::isfinite(predicted) && predicted >= 0.0;
    if (ok && (h >> 40) % 32 == 0) {
      const double again = eval::PredictDistance(model, q, c);
      ok = std::memcmp(&again, &predicted, sizeof(double)) == 0;
    }
    if (!ok) bad_pairs.fetch_add(1);
    return ok;
  };
  RunClosedLoop(1, 0.2, [&](size_t i) {  // Warm-up, not measured.
    return query_op(0x3a3aULL, i, &no_spans);
  });
  const Rounds rounds = RunRounds(
      kRounds, options.seed, kQueryRateQps, open_s, closed_s,
      [&](const std::vector<double>& schedule, int r) {
        return RunOpenLoop(schedule, [&](size_t i) {
          return query_op(static_cast<uint64_t>(r), i, &no_spans);
        });
      },
      [&](double seconds, int r) {
        return RunClosedLoop(kClosedClients, seconds, [&](size_t i) {
          return query_op(0xc105edULL + static_cast<uint64_t>(r), i,
                          &no_spans);
        });
      });
  const LoopStats& open = rounds.open;
  result.attempted += rounds.open.attempted + rounds.closed.attempted;
  for (uint64_t i = 0; i < bad_pairs.load(); ++i) {
    result.Fail("pairwise prediction not finite or not deterministic");
  }

  // recall@10 of the trained model against exact DTW.
  const DoubleMatrix truth =
      dist::ComputeCrossDistanceMatrix(inputs.queries, inputs.train, *metric);
  double recall = 0.0;
  for (size_t q = 0; q < kQueryPool; ++q) {
    ++result.attempted;
    std::vector<double> row(truth.cols());
    for (size_t c = 0; c < truth.cols(); ++c) row[c] = truth.at(q, c);
    std::vector<uint64_t> want;
    for (size_t id : eval::TopKIndices(row, kTopK, row.size())) want.push_back(id);
    const std::vector<size_t> top =
        PairwiseTopK(model, inputs.train, inputs.queries[q]);
    recall += RecallAtK(want, std::vector<uint64_t>(top.begin(), top.end()), kTopK);
  }
  recall /= static_cast<double>(kQueryPool);

  if (!TailSupported(open.latency_s.size(), 0.99)) {
    result.Fail("open loop has " + std::to_string(open.latency_s.size()) +
                " samples, too few for a p99");
  }
  result.metrics = {
      {"setup_s", Median(setup_times), "s"},
      {"query_p50_ms", rounds.p50_ms(), "ms"},
      {"peak_qps", rounds.peak_per_s(), "queries/s"},
      {"recall_at_k", recall, "fraction"},
      {"ops_per_s", pairs_per_s, "1/s"},
  };
  result.report = result.metrics;
  result.report.push_back({"query_p99_ms", rounds.p99_ms(), "ms"});
  result.report.push_back({"query_samples",
                           static_cast<double>(open.latency_s.size()), "count"});
  result.report.push_back({"train_pairs_per_s", pairs_per_s, "pairs/s"});
  result.report.push_back({"train_loss", loss, "loss"});
  result.report.push_back({"train_epochs", static_cast<double>(epochs), "count"});

  if (options.trace) {
    std::vector<Metric>& L = result.layers;
    L.push_back({"bench.query_p99_ms", rounds.p99_ms(), ""});
    L.push_back({"core.train_loss", loss, ""});
    const double hits = train_phase.Counter("tmn.core.trainer.sub_cache_hits");
    const double misses = train_phase.Counter("tmn.core.trainer.sub_cache_misses");
    L.push_back({"core.sub_cache_hit_frac",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0, ""});
    L.push_back({"core.sub_distance_s",
                 train_phase.Sum("tmn.core.trainer.sub_distance_seconds"), ""});
    L.push_back({"common.pool_wait_ms_mean",
                 1e3 * train_phase.Mean("tmn.common.pool.task_wait_seconds"), ""});
    const double matrix_s = setup.Sum("tmn.distance.matrix_seconds");
    L.push_back({"distance.matrix_pairs_per_s",
                 matrix_s > 0 ? setup.Counter("tmn.distance.matrix_pairs") / matrix_s
                              : 0.0,
                 ""});
    L.push_back({"bench.gen_late_ms_p99", 1e3 * Percentile(open.lateness_s, 0.99), ""});

    // The open loop again, traced: the tracing overhead.
    const LoopStats traced = RunOpenLoop(
        ArrivalSchedule(options.seed, kQueryRateQps, open_s),
        [&](size_t i) { return query_op(0, i, &spans); });
    result.attempted += traced.attempted;
    L.push_back({"bench.trace_overhead_frac",
                 Percentile(traced.latency_s, 0.5) /
                         Percentile(open.latency_s, 0.5) -
                     1.0,
                 ""});

    const Replay replay = ReplayCore(inputs, d, *metric, options.seed, &spans);
    L.push_back({"core.forward_us_per_pair", 1e6 * replay.forward_s / replay.pairs, ""});
    L.push_back({"core.backward_us_per_pair", 1e6 * replay.backward_s / replay.pairs, ""});
    L.push_back({"core.optimizer_us_per_step", 1e6 * replay.optimizer_s / replay.steps, ""});
    const double serial_pairs_per_s =
        replay.pairs / (replay.forward_s + replay.backward_s + replay.optimizer_s);
    L.push_back({"core.parallel_efficiency",
                 pairs_per_s / (train_config.num_threads * serial_pairs_per_s), ""});
    const std::string path = options.work_dir + "/spans.json";
    if (!spans.WriteJson(path)) result.Fail("cannot write " + path);
  }
  return result;
}

}  // namespace tmn::perfbench
