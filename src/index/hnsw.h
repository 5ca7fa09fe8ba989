#ifndef TMN_INDEX_HNSW_H_
#define TMN_INDEX_HNSW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "nn/rng.h"

namespace tmn::index {

// Hierarchical Navigable Small World graph (Malkov et al.) for approximate
// nearest-neighbor search over embedding vectors — the indexing technique
// the paper's introduction proposes applying to embedded trajectories
// ("state-of-the-art indexing techniques (e.g., HNSW) can be immediately
// applied to the vectors of the embedded trajectories").
//
// Incremental insertion; squared-Euclidean distance through
// kernels::l2sq_rows. Building is single-threaded; once built, queries
// may run from many threads at once (the walk's visited marks and
// distance buffers are per-thread scratch, not index state).
struct HnswConfig {
  size_t m = 16;                // Max neighbors per node per layer (2m at layer 0).
  size_t ef_construction = 64;  // Beam width while inserting.
  size_t ef_search = 32;        // Default beam width while querying.
  uint64_t seed = 13;           // Level-assignment randomness.
};

class HnswIndex {
 public:
  HnswIndex(size_t dim, const HnswConfig& config = {});

  size_t size() const { return count_; }
  size_t dim() const { return dim_; }

  // Inserts one vector; returns its index (insertion order).
  size_t Add(const std::vector<float>& point);

  // Approximate k nearest neighbors, nearest first. `ef` overrides the
  // beam width (clamped up to k). Aborts on a dimension mismatch; the
  // serving path uses NearestChecked instead.
  std::vector<size_t> Nearest(const std::vector<float>& query, size_t k,
                              size_t ef = 0) const;

  // Validated, interruptible search for the online query path: malformed
  // input (dimension mismatch, k == 0, non-finite coordinates) returns
  // kInvalidArgument, an empty index kFailedPrecondition, and the graph
  // walk polls `deadline` every few node expansions so an overrunning
  // query returns kDeadlineExceeded instead of finishing late. The
  // `index.hnsw.search` failpoint injects kUnavailable.
  common::StatusOr<std::vector<size_t>> NearestChecked(
      const std::vector<float>& query, size_t k, size_t ef = 0,
      const common::Deadline& deadline = common::Deadline()) const;

 private:
  struct Node {
    int level = 0;
    // neighbors[l] = adjacency list at layer l (0..level).
    std::vector<std::vector<uint32_t>> neighbors;
  };

  // dists[i] = squared L2 from `query` to point ids[i], for i < n, in one
  // kernels::l2sq_rows call.
  void Score(const float* query, const uint32_t* ids, size_t n,
             float* dists) const;
  const float* PointAt(size_t i) const { return &points_[i * dim_]; }

  // Greedy descent to the closest node at layers above `target_level`.
  // `poller` (nullable) is ticked between improvement sweeps; on expiry
  // the best node so far is returned (poller->expired() reports it).
  size_t GreedyDescend(const std::vector<float>& query, size_t entry,
                       int from_level, int target_level,
                       common::DeadlinePoller* poller = nullptr) const;

  // Beam search at one layer; returns up to `ef` (distance, id) pairs,
  // best first. `poller` (nullable) is ticked per expansion — the poller's
  // stride amortizes the clock reads; on expiry the search stops early.
  std::vector<std::pair<float, uint32_t>> SearchLayer(
      const std::vector<float>& query, size_t entry, size_t ef, int level,
      common::DeadlinePoller* poller = nullptr) const;

  // Heuristic-free neighbor selection: keep the m closest.
  void Connect(uint32_t node, int level,
               const std::vector<std::pair<float, uint32_t>>& candidates);

  size_t dim_;
  HnswConfig config_;
  size_t count_ = 0;
  std::vector<float> points_;
  std::vector<Node> nodes_;
  size_t entry_point_ = 0;
  int max_level_ = -1;
  double level_lambda_;
  mutable nn::Rng rng_;
};

}  // namespace tmn::index

#endif  // TMN_INDEX_HNSW_H_
