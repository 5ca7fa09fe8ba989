#ifndef TMN_EVAL_EMBEDDING_SEARCH_H_
#define TMN_EVAL_EMBEDDING_SEARCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/model.h"
#include "geo/trajectory.h"
#include "index/hnsw.h"
#include "index/kd_tree.h"

namespace tmn::eval {

// How an EmbeddingSearch answers kNN queries over trajectory embeddings.
// Brute force is exact; the k-d tree is exact but degrades in high
// dimensions; HNSW is approximate and fast — the paper's §I suggestion
// for scaling similarity search over embedded trajectories.
enum class SearchBackend {
  kBruteForce,
  kKdTree,
  kHnsw,
};

std::string SearchBackendName(SearchBackend backend);

// kNN search over a fixed set of embedding vectors (the output of
// eval::EncodeAll). Thread-compatible after construction.
class EmbeddingSearch {
 public:
  EmbeddingSearch(const std::vector<std::vector<float>>& embeddings,
                  SearchBackend backend,
                  const index::HnswConfig& hnsw_config = {});

  size_t size() const { return count_; }
  size_t dim() const { return dim_; }
  SearchBackend backend() const { return backend_; }

  // Indices of the k nearest embeddings to `query`, nearest first.
  std::vector<size_t> Nearest(const std::vector<float>& query,
                              size_t k) const;

  // Validated, deadline-aware variant for the online query path: bad
  // input returns kInvalidArgument instead of aborting, and the backend
  // search is interruptible (kDeadlineExceeded on overrun). See
  // docs/SERVING.md.
  common::StatusOr<std::vector<size_t>> NearestChecked(
      const std::vector<float>& query, size_t k,
      const common::Deadline& deadline = common::Deadline()) const;

  // kNN of the i-th stored embedding, excluding i itself.
  std::vector<size_t> NearestToStored(size_t i, size_t k) const;

 private:
  SearchBackend backend_;
  size_t count_;
  size_t dim_;
  std::vector<float> flat_;
  std::unique_ptr<index::KdTree> kd_tree_;
  std::unique_ptr<index::HnswIndex> hnsw_;
};

// Final embedding of one trajectory under a non-pairwise model, as a
// Status-returning, deadline-aware operation for the online query path:
// a pairwise model is kFailedPrecondition, an empty trajectory
// kInvalidArgument, an expired budget kDeadlineExceeded, a non-finite
// model output kCorruption (a healthy model never produces one — it
// signals bit rot or a broken load), and the `eval.encode` failpoint
// injects kUnavailable. It is EncodeTrajectoriesBatched on a batch of
// one. The batch path (EncodeAll) keeps its unchecked abort-on-misuse
// contract.
common::StatusOr<std::vector<float>> EncodeTrajectory(
    const core::SimilarityModel& model, const geo::Trajectory& trajectory,
    const common::Deadline& deadline = common::Deadline());

// One member of a batched encode: the trajectory plus its own deadline
// (micro-batched queries each carry the budget they were admitted with).
struct BatchEncodeRequest {
  const geo::Trajectory* trajectory = nullptr;
  common::Deadline deadline;
};

// EncodeTrajectory over a whole batch in one fused forward pass.
// result[i] is exactly what EncodeTrajectory returns for member i alone:
// each member is validated on its own (deadline stages and failpoint
// included), and the embeddings are bitwise those of a batch of one (the
// model's ForwardSingleBatch contract), so serving batch size is
// invisible to callers. Members that fail validation or expire are
// excluded from the forward pass; the survivors share one
// ForwardSingleBatch.
std::vector<common::StatusOr<std::vector<float>>> EncodeTrajectoriesBatched(
    const core::SimilarityModel& model,
    const std::vector<BatchEncodeRequest>& batch);

}  // namespace tmn::eval

#endif  // TMN_EVAL_EMBEDDING_SEARCH_H_
