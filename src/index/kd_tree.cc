#include "index/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "common/check.h"
#include "nn/kernels/kernels.h"
#include "obs/metrics.h"

namespace tmn::index {

namespace {

float SquaredDist(const float* row, const float* query, size_t dim) {
  float dist = 0.0f;
  nn::kernels::Active().l2sq_rows(&row, 1, query, dim, &dist);
  return dist;
}

// Max-heap of (distance, index) bounded at k elements.
using HeapEntry = std::pair<float, size_t>;
using BoundedHeap = std::priority_queue<HeapEntry>;

void PushBounded(BoundedHeap& heap, size_t k, float dist, size_t idx) {
  if (heap.size() < k) {
    heap.emplace(dist, idx);
  } else if (dist < heap.top().first) {
    heap.pop();
    heap.emplace(dist, idx);
  }
}

std::vector<size_t> DrainHeap(BoundedHeap& heap) {
  std::vector<size_t> out(heap.size());
  for (size_t i = heap.size(); i > 0; --i) {
    out[i - 1] = heap.top().second;
    heap.pop();
  }
  return out;
}

}  // namespace

KdTree::KdTree(std::vector<float> points, size_t dim)
    : points_(std::move(points)), dim_(dim) {
  TMN_CHECK(dim_ > 0);
  TMN_CHECK(points_.size() % dim_ == 0);
  count_ = points_.size() / dim_;
  if (count_ == 0) return;
  std::vector<size_t> idx(count_);
  for (size_t i = 0; i < count_; ++i) idx[i] = i;
  nodes_.reserve(count_);
  root_ = Build(idx, 0, count_, 0);
}

int KdTree::Build(std::vector<size_t>& idx, size_t lo, size_t hi,
                  size_t depth) {
  if (lo >= hi) return -1;
  const size_t axis = depth % dim_;
  const size_t mid = lo + (hi - lo) / 2;
  std::nth_element(idx.begin() + lo, idx.begin() + mid, idx.begin() + hi,
                   [&](size_t a, size_t b) {
                     return PointAt(a)[axis] < PointAt(b)[axis];
                   });
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{idx[mid], static_cast<int>(axis), -1, -1});
  const int left = Build(idx, lo, mid, depth + 1);
  const int right = Build(idx, mid + 1, hi, depth + 1);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

std::vector<size_t> KdTree::Nearest(const std::vector<float>& query,
                                    size_t k) const {
  return NearestExcluding(query, k, count_);  // count_ excludes nothing.
}

common::StatusOr<std::vector<size_t>> KdTree::NearestChecked(
    const std::vector<float>& query, size_t k,
    const common::Deadline& deadline) const {
  if (count_ == 0) {
    return common::FailedPreconditionError(
        "k-d tree search on an empty index");
  }
  if (k == 0) {
    return common::InvalidArgumentError("k-d tree search with k == 0");
  }
  if (query.size() != dim_) {
    return common::InvalidArgumentError(
        "k-d tree query dimension " + std::to_string(query.size()) +
        " does not match index dimension " + std::to_string(dim_));
  }
  for (float v : query) {
    if (!std::isfinite(v)) {
      return common::InvalidArgumentError(
          "k-d tree query contains a non-finite coordinate");
    }
  }
  TMN_RETURN_IF_ERROR(common::CheckDeadline(deadline, "index-search"));
  common::DeadlinePoller poller(&deadline);
  std::vector<size_t> result =
      Search(query, k, count_, deadline.infinite() ? nullptr : &poller);
  if (poller.expired()) {
    return common::DeadlineExceededError(
        "deadline expired at stage 'index-search' (tree walk)");
  }
  return result;
}

std::vector<size_t> KdTree::NearestExcluding(const std::vector<float>& query,
                                             size_t k,
                                             size_t exclude) const {
  return Search(query, k, exclude, nullptr);
}

std::vector<size_t> KdTree::Search(const std::vector<float>& query, size_t k,
                                   size_t exclude,
                                   common::DeadlinePoller* poller) const {
  TMN_CHECK(query.size() == dim_);
  const size_t usable = exclude < count_ ? count_ - 1 : count_;
  k = std::min(k, usable);
  if (k == 0) return {};
  BoundedHeap heap;
  // Pruning effectiveness metric: visited nodes are tallied locally and
  // added once per query, keeping atomics out of the recursion.
  size_t visited_nodes = 0;
  // Recursive search with pruning on the splitting hyperplane distance.
  const auto visit = [&](auto&& self, int node_id) -> void {
    if (node_id < 0) return;
    if (poller != nullptr && poller->Tick()) return;
    ++visited_nodes;
    const Node& node = nodes_[node_id];
    const float* p = PointAt(node.point);
    if (node.point != exclude) {
      PushBounded(heap, k, SquaredDist(p, query.data(), dim_), node.point);
    }
    const size_t axis = static_cast<size_t>(node.split_dim);
    const float delta = query[axis] - p[axis];
    const int near_child = delta < 0.0f ? node.left : node.right;
    const int far_child = delta < 0.0f ? node.right : node.left;
    self(self, near_child);
    if (heap.size() < k || delta * delta < heap.top().first) {
      self(self, far_child);
    }
  };
  visit(visit, root_);
  static obs::Counter& visited_total = obs::Registry::Global().GetCounter(
      "tmn.index.kd_tree.nodes_visited");
  visited_total.Increment(visited_nodes);
  return DrainHeap(heap);
}

common::StatusOr<std::vector<size_t>> BruteForceNearestChecked(
    const std::vector<float>& points, size_t dim,
    const std::vector<float>& query, size_t k,
    const common::Deadline& deadline) {
  TMN_CHECK(dim > 0 && points.size() % dim == 0);
  TMN_CHECK(query.size() == dim);
  const size_t n = points.size() / dim;
  k = std::min(k, n);
  if (k == 0) return std::vector<size_t>();
  BoundedHeap heap;
  // Rows are scored a block at a time, then pushed in index order.
  constexpr size_t kBlock = 256;
  const float* rows[kBlock] = {};
  float dists[kBlock] = {};
  for (size_t start = 0; start < n; start += kBlock) {
    if (start != 0 && deadline.Expired()) {
      return common::DeadlineExceededError(
          "deadline expired at stage 'index-search' (brute-force scan)");
    }
    const size_t count = std::min(kBlock, n - start);
    for (size_t i = 0; i < count; ++i) rows[i] = &points[(start + i) * dim];
    nn::kernels::Active().l2sq_rows(rows, count, query.data(), dim, dists);
    for (size_t i = 0; i < count; ++i) {
      PushBounded(heap, k, dists[i], start + i);
    }
  }
  return DrainHeap(heap);
}

std::vector<size_t> BruteForceNearest(const std::vector<float>& points,
                                      size_t dim,
                                      const std::vector<float>& query,
                                      size_t k) {
  return std::move(
      BruteForceNearestChecked(points, dim, query, k, common::Deadline())
          .value());
}

}  // namespace tmn::index
