#include "eval/embedding_search.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "nn/kernels/arena.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace tmn::eval {

std::string SearchBackendName(SearchBackend backend) {
  switch (backend) {
    case SearchBackend::kBruteForce:
      return "brute-force";
    case SearchBackend::kKdTree:
      return "kd-tree";
    case SearchBackend::kHnsw:
      return "HNSW";
  }
  return "unknown";
}

EmbeddingSearch::EmbeddingSearch(
    const std::vector<std::vector<float>>& embeddings, SearchBackend backend,
    const index::HnswConfig& hnsw_config)
    : backend_(backend), count_(embeddings.size()) {
  TMN_CHECK_MSG(!embeddings.empty(), "need at least one embedding");
  static obs::Counter& indexed = obs::Registry::Global().GetCounter(
      "tmn.index.embeddings_indexed");
  static obs::Histogram& build_seconds =
      obs::Registry::Global().GetTimer("tmn.index.build_seconds");
  obs::ScopedTimer timer(build_seconds);
  indexed.Increment(embeddings.size());
  dim_ = embeddings[0].size();
  flat_.reserve(count_ * dim_);
  for (const auto& e : embeddings) {
    TMN_CHECK_MSG(e.size() == dim_, "inconsistent embedding widths");
    flat_.insert(flat_.end(), e.begin(), e.end());
  }
  switch (backend_) {
    case SearchBackend::kBruteForce:
      break;
    case SearchBackend::kKdTree:
      kd_tree_ = std::make_unique<index::KdTree>(flat_, dim_);
      break;
    case SearchBackend::kHnsw:
      hnsw_ = std::make_unique<index::HnswIndex>(dim_, hnsw_config);
      for (const auto& e : embeddings) hnsw_->Add(e);
      break;
  }
}

std::vector<size_t> EmbeddingSearch::Nearest(const std::vector<float>& query,
                                             size_t k) const {
  TMN_CHECK(query.size() == dim_);
  // One counter per backend so a bench that flips backends shows up as a
  // counter change, not just a timing change.
  static obs::Counter& brute_queries = obs::Registry::Global().GetCounter(
      "tmn.index.brute_force.queries");
  static obs::Counter& kd_queries =
      obs::Registry::Global().GetCounter("tmn.index.kd_tree.queries");
  static obs::Counter& hnsw_queries =
      obs::Registry::Global().GetCounter("tmn.index.hnsw.queries");
  static obs::Histogram& seconds =
      obs::Registry::Global().GetTimer("tmn.index.query_seconds");
  obs::ScopedTimer timer(seconds);
  switch (backend_) {
    case SearchBackend::kBruteForce:
      brute_queries.Increment();
      return index::BruteForceNearest(flat_, dim_, query, k);
    case SearchBackend::kKdTree:
      kd_queries.Increment();
      return kd_tree_->Nearest(query, k);
    case SearchBackend::kHnsw:
      hnsw_queries.Increment();
      return hnsw_->Nearest(query, k);
  }
  return {};
}

common::StatusOr<std::vector<size_t>> EmbeddingSearch::NearestChecked(
    const std::vector<float>& query, size_t k,
    const common::Deadline& deadline) const {
  switch (backend_) {
    case SearchBackend::kKdTree:
      return kd_tree_->NearestChecked(query, k, deadline);
    case SearchBackend::kHnsw:
      return hnsw_->NearestChecked(query, k, /*ef=*/0, deadline);
    case SearchBackend::kBruteForce:
      break;
  }
  if (k == 0) {
    return common::InvalidArgumentError("embedding search with k == 0");
  }
  if (query.size() != dim_) {
    return common::InvalidArgumentError(
        "embedding query dimension " + std::to_string(query.size()) +
        " does not match index dimension " + std::to_string(dim_));
  }
  for (float v : query) {
    if (!std::isfinite(v)) {
      return common::InvalidArgumentError(
          "embedding query contains a non-finite coordinate");
    }
  }
  TMN_RETURN_IF_ERROR(common::CheckDeadline(deadline, "index-search"));
  // The scan is linear, so it polls the deadline between blocks of rows,
  // the same way the HNSW walk polls between expansions.
  return index::BruteForceNearestChecked(flat_, dim_, query, k, deadline);
}

std::vector<size_t> EmbeddingSearch::NearestToStored(size_t i,
                                                     size_t k) const {
  TMN_CHECK(i < count_);
  const std::vector<float> query(flat_.begin() + i * dim_,
                                 flat_.begin() + (i + 1) * dim_);
  // Over-fetch by one, then drop the stored vector itself.
  std::vector<size_t> result = Nearest(query, k + 1);
  result.erase(std::remove(result.begin(), result.end(), i), result.end());
  if (result.size() > k) result.resize(k);
  return result;
}

namespace {

// One encode request's validation, in the order embedding_search.h
// documents. Each batch member runs it on its own (failpoint included),
// so a member fails with exactly the status a batch of one returns.
common::Status ValidateEncodeRequest(const core::SimilarityModel& model,
                                     const geo::Trajectory& trajectory,
                                     const common::Deadline& deadline) {
  if (model.IsPairwise()) {
    return common::FailedPreconditionError(
        "pairwise models cannot encode a single trajectory");
  }
  if (trajectory.empty()) {
    return common::InvalidArgumentError("cannot encode an empty trajectory");
  }
  for (const geo::Point& p : trajectory.points()) {
    if (!std::isfinite(p.lon) || !std::isfinite(p.lat)) {
      return common::InvalidArgumentError(
          "trajectory contains a non-finite coordinate");
    }
  }
  TMN_RETURN_IF_ERROR(common::CheckDeadline(deadline, "encode"));
  if (TMN_FAILPOINT("eval.encode")) {
    return common::UnavailableError("injected encode failure");
  }
  return common::Status::Ok();
}

// Last row of a forward output as the embedding, rejecting non-finite
// values (a healthy model never produces one — it signals bit rot).
common::StatusOr<std::vector<float>> FinalEmbedding(const nn::Tensor& o) {
  std::vector<float> embedding = nn::Row(o, o.rows() - 1).data();
  for (float v : embedding) {
    if (!std::isfinite(v)) {
      return common::CorruptionError(
          "model produced a non-finite embedding value");
    }
  }
  return embedding;
}

}  // namespace

std::vector<common::StatusOr<std::vector<float>>> EncodeTrajectoriesBatched(
    const core::SimilarityModel& model,
    const std::vector<BatchEncodeRequest>& batch) {
  static obs::Counter& encoded =
      obs::Registry::Global().GetCounter("tmn.eval.encoded_trajectories");
  static obs::Histogram& seconds =
      obs::Registry::Global().GetTimer("tmn.eval.encode_seconds");
  std::vector<common::StatusOr<std::vector<float>>> results(
      batch.size(),
      common::StatusOr<std::vector<float>>(
          common::UnavailableError("batch encode: member not attempted")));
  // Per-member validation first, so one malformed or expired member costs
  // the batch nothing and the rest still share a fused forward.
  std::vector<const geo::Trajectory*> live;
  std::vector<size_t> live_index;
  live.reserve(batch.size());
  live_index.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    TMN_CHECK_MSG(batch[i].trajectory != nullptr,
                  "batch encode: null trajectory");
    const common::Status valid =
        ValidateEncodeRequest(model, *batch[i].trajectory, batch[i].deadline);
    if (!valid.ok()) {
      results[i] = valid;
      continue;
    }
    live.push_back(batch[i].trajectory);
    live_index.push_back(i);
  }
  if (live.empty()) return results;
  obs::ScopedTimer timer(seconds);
  encoded.Increment(live.size());
  nn::NoGradGuard no_grad;
  // Inference arena: the forward's tensor buffers recycle through a
  // thread-local pool instead of the heap (src/nn/kernels/arena.h).
  nn::kernels::ArenaScope arena;
  const std::vector<nn::Tensor> outputs = model.ForwardSingleBatch(live);
  for (size_t j = 0; j < live.size(); ++j) {
    results[live_index[j]] = FinalEmbedding(outputs[j]);
  }
  return results;
}

common::StatusOr<std::vector<float>> EncodeTrajectory(
    const core::SimilarityModel& model, const geo::Trajectory& trajectory,
    const common::Deadline& deadline) {
  return std::move(
      EncodeTrajectoriesBatched(model, {{&trajectory, deadline}})[0]);
}

}  // namespace tmn::eval
