#ifndef TMN_INDEX_KD_TREE_H_
#define TMN_INDEX_KD_TREE_H_

#include <cstddef>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"

namespace tmn::index {

// Static k-d tree over fixed-dimension float vectors, built once from a
// point set. Used by the Traj2SimVec-style sampler (and the TMN-kd
// ablation) to fetch the k nearest simplified-trajectory summaries of an
// anchor, and by examples for nearest-neighbor search over embeddings.
class KdTree {
 public:
  // `points` is row-major: points.size() must be a multiple of dim.
  KdTree(std::vector<float> points, size_t dim);

  size_t size() const { return count_; }
  size_t dim() const { return dim_; }

  // Indices of the k nearest points to `query` (squared Euclidean),
  // ordered nearest first. k is clamped to size().
  std::vector<size_t> Nearest(const std::vector<float>& query,
                              size_t k) const;

  // Like Nearest but excludes one index (e.g. the anchor itself).
  std::vector<size_t> NearestExcluding(const std::vector<float>& query,
                                       size_t k, size_t exclude) const;

  // Validated search for the online query path: a dimension mismatch,
  // k == 0 or a non-finite coordinate returns kInvalidArgument and an
  // empty index kFailedPrecondition, instead of the abort/UB the
  // unchecked API risks. The walk ticks a DeadlinePoller per visited node
  // (descent is logarithmic but backtracking is not, so degenerate trees
  // and large k do revisit many nodes): on expiry the query returns
  // kDeadlineExceeded instead of finishing late.
  common::StatusOr<std::vector<size_t>> NearestChecked(
      const std::vector<float>& query, size_t k,
      const common::Deadline& deadline = common::Deadline()) const;

 private:
  struct Node {
    size_t point = 0;      // Index into the original point set.
    int split_dim = -1;    // -1 for leaves.
    int left = -1;
    int right = -1;
  };

  int Build(std::vector<size_t>& idx, size_t lo, size_t hi, size_t depth);
  const float* PointAt(size_t i) const { return &points_[i * dim_]; }

  // Shared pruned walk behind Nearest / NearestExcluding / NearestChecked.
  // `poller` (nullable) is ticked per visited node; on expiry the walk
  // stops and returns the best found so far (poller->expired() reports
  // it — the checked API turns that into kDeadlineExceeded).
  std::vector<size_t> Search(const std::vector<float>& query, size_t k,
                             size_t exclude,
                             common::DeadlinePoller* poller) const;

  std::vector<float> points_;
  size_t dim_;
  size_t count_;
  std::vector<Node> nodes_;
  int root_ = -1;
};

// Brute-force exact kNN over the same layout; the reference implementation
// the k-d tree is property-tested against. Rows are scored in blocks of
// 256 through kernels::l2sq_rows; the result is the k smallest
// (distance, index) pairs, nearest first.
std::vector<size_t> BruteForceNearest(const std::vector<float>& points,
                                      size_t dim,
                                      const std::vector<float>& query,
                                      size_t k);

// BruteForceNearest for the online query path: `deadline` is checked
// between blocks, and an expiry returns kDeadlineExceeded. Input
// validation is the caller's (EmbeddingSearch::NearestChecked).
common::StatusOr<std::vector<size_t>> BruteForceNearestChecked(
    const std::vector<float>& points, size_t dim,
    const std::vector<float>& query, size_t k,
    const common::Deadline& deadline);

}  // namespace tmn::index

#endif  // TMN_INDEX_KD_TREE_H_
