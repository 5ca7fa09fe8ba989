#include "index/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/check.h"
#include "common/failpoint.h"
#include "nn/kernels/kernels.h"
#include "obs/metrics.h"

namespace tmn::index {

namespace {
// Min-heap on distance.
using Candidate = std::pair<float, uint32_t>;
struct Farther {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return a.first > b.first;
  }
};

// Per-thread scratch of the graph walk. A const index is searched from
// many pool threads at once (SubmitTopK), so none of this is index state.
// `marks` is the visited set of the current layer search: id i is visited
// when marks[i] == generation. Each search bumps the generation instead of
// clearing, and a wrap to 0 clears the marks once so a stale mark can
// never equal a live generation. The array grows to the largest index the
// thread has searched.
struct WalkScratch {
  std::vector<uint32_t> marks;
  uint32_t generation = 0;
  std::vector<uint32_t> fresh;  // One expansion's unvisited neighbours.
  std::vector<const float*> rows;  // Score's row pointers.
  std::vector<float> dists;

  void BeginVisit(size_t count) {
    if (marks.size() < count) marks.resize(count, 0);
    if (++generation == 0) {
      std::fill(marks.begin(), marks.end(), 0);
      generation = 1;
    }
  }
  // Marks `id` visited; false when it already was.
  bool Visit(uint32_t id) {
    if (marks[id] == generation) return false;
    marks[id] = generation;
    return true;
  }
};

WalkScratch& Scratch() {
  thread_local WalkScratch scratch;
  return scratch;
}

}  // namespace

HnswIndex::HnswIndex(size_t dim, const HnswConfig& config)
    : dim_(dim),
      config_(config),
      level_lambda_(1.0 / std::log(static_cast<double>(
                              std::max<size_t>(2, config.m)))),
      rng_(config.seed) {
  TMN_CHECK(dim_ > 0);
  TMN_CHECK(config_.m >= 2);
}

void HnswIndex::Score(const float* query, const uint32_t* ids, size_t n,
                      float* dists) const {
  std::vector<const float*>& rows = Scratch().rows;
  rows.resize(n);
  for (size_t i = 0; i < n; ++i) rows[i] = PointAt(ids[i]);
  nn::kernels::Active().l2sq_rows(rows.data(), n, query, dim_, dists);
}

size_t HnswIndex::GreedyDescend(const std::vector<float>& query,
                                size_t entry, int from_level,
                                int target_level,
                                common::DeadlinePoller* poller) const {
  std::vector<float>& dists = Scratch().dists;
  uint32_t current = static_cast<uint32_t>(entry);
  float current_dist = 0.0f;
  Score(query.data(), &current, 1, &current_dist);
  for (int level = from_level; level > target_level; --level) {
    bool improved = true;
    while (improved) {
      if (poller != nullptr && poller->Tick()) return current;
      improved = false;
      // The sweep takes the list of the node it started from, scored in
      // one call, even after `current` moves on.
      const std::vector<uint32_t>& neighbors =
          nodes_[current].neighbors[level];
      dists.resize(neighbors.size());
      Score(query.data(), neighbors.data(), neighbors.size(), dists.data());
      for (size_t i = 0; i < neighbors.size(); ++i) {
        if (dists[i] < current_dist) {
          current_dist = dists[i];
          current = neighbors[i];
          improved = true;
        }
      }
    }
  }
  return current;
}

std::vector<Candidate> HnswIndex::SearchLayer(const std::vector<float>& query,
                                              size_t entry, size_t ef,
                                              int level,
                                              common::DeadlinePoller* poller)
    const {
  WalkScratch& scratch = Scratch();
  scratch.BeginVisit(count_);
  std::vector<uint32_t>& fresh = scratch.fresh;
  std::vector<float>& dists = scratch.dists;
  std::priority_queue<Candidate, std::vector<Candidate>, Farther> frontier;
  std::priority_queue<Candidate> best;  // Max-heap: worst of the ef best.
  const uint32_t entry_id = static_cast<uint32_t>(entry);
  float entry_dist = 0.0f;
  Score(query.data(), &entry_id, 1, &entry_dist);
  frontier.emplace(entry_dist, entry_id);
  best.emplace(entry_dist, entry_id);
  scratch.Visit(entry_id);
  size_t visited = 1;
  while (!frontier.empty()) {
    if (poller != nullptr && poller->Tick()) break;
    const Candidate current = frontier.top();
    frontier.pop();
    if (current.first > best.top().first && best.size() >= ef) break;
    // The unvisited neighbours in list order, scored in one call; the
    // push/prune below then takes them in that order.
    fresh.clear();
    for (uint32_t neighbor : nodes_[current.second].neighbors[level]) {
      if (scratch.Visit(neighbor)) fresh.push_back(neighbor);
    }
    visited += fresh.size();
    dists.resize(fresh.size());
    Score(query.data(), fresh.data(), fresh.size(), dists.data());
    for (size_t i = 0; i < fresh.size(); ++i) {
      const float d = dists[i];
      if (best.size() < ef || d < best.top().first) {
        frontier.emplace(d, fresh[i]);
        best.emplace(d, fresh[i]);
        if (best.size() > ef) best.pop();
      }
    }
  }
  std::vector<Candidate> result(best.size());
  for (size_t i = best.size(); i > 0; --i) {
    result[i - 1] = best.top();
    best.pop();
  }
  // One aggregated add per layer search (covers both construction and
  // queries): the graph walk is seeded-deterministic, so this is a
  // stable "search effort" measure a perf regression cannot hide from.
  static obs::Counter& visited_nodes = obs::Registry::Global().GetCounter(
      "tmn.index.hnsw.nodes_visited");
  visited_nodes.Increment(visited);
  return result;
}

void HnswIndex::Connect(uint32_t node, int level,
                        const std::vector<Candidate>& candidates) {
  const size_t max_degree = level == 0 ? 2 * config_.m : config_.m;
  // Link node -> closest candidates.
  std::vector<uint32_t>& out = nodes_[node].neighbors[level];
  for (const Candidate& c : candidates) {
    if (c.second == node) continue;
    if (out.size() >= max_degree) break;
    out.push_back(c.second);
  }
  // Back-links, pruning the worst when a neighbor overflows.
  for (uint32_t neighbor : out) {
    std::vector<uint32_t>& back = nodes_[neighbor].neighbors[level];
    back.push_back(node);
    if (back.size() > max_degree) {
      // Drop the farthest neighbor of `neighbor`.
      std::vector<float>& dists = Scratch().dists;
      dists.resize(back.size());
      Score(PointAt(neighbor), back.data(), back.size(), dists.data());
      size_t worst = 0;
      float worst_dist = -1.0f;
      for (size_t i = 0; i < back.size(); ++i) {
        if (dists[i] > worst_dist) {
          worst_dist = dists[i];
          worst = i;
        }
      }
      back.erase(back.begin() + worst);
    }
  }
}

size_t HnswIndex::Add(const std::vector<float>& point) {
  TMN_CHECK(point.size() == dim_);
  static obs::Counter& added =
      obs::Registry::Global().GetCounter("tmn.index.hnsw.points_added");
  added.Increment();
  const size_t id = count_++;
  points_.insert(points_.end(), point.begin(), point.end());
  const int level = static_cast<int>(
      -std::log(std::max(1e-12, rng_.Uniform())) * level_lambda_);
  Node node;
  node.level = level;
  node.neighbors.resize(level + 1);
  nodes_.push_back(std::move(node));

  if (id == 0) {
    entry_point_ = 0;
    max_level_ = level;
    return id;
  }

  size_t entry = entry_point_;
  if (level < max_level_) {
    entry = GreedyDescend(point, entry, max_level_, level);
  }
  for (int l = std::min(level, max_level_); l >= 0; --l) {
    const std::vector<Candidate> candidates =
        SearchLayer(point, entry, config_.ef_construction, l);
    Connect(static_cast<uint32_t>(id), l, candidates);
    entry = candidates.front().second;
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
  return id;
}

std::vector<size_t> HnswIndex::Nearest(const std::vector<float>& query,
                                       size_t k, size_t ef) const {
  TMN_CHECK(query.size() == dim_);
  if (count_ == 0) return {};
  if (ef == 0) ef = config_.ef_search;
  ef = std::max(ef, k);
  const size_t entry = GreedyDescend(query, entry_point_, max_level_, 0);
  std::vector<Candidate> found = SearchLayer(query, entry, ef, 0);
  std::vector<size_t> result;
  result.reserve(std::min(k, found.size()));
  for (size_t i = 0; i < found.size() && i < k; ++i) {
    result.push_back(found[i].second);
  }
  return result;
}

common::StatusOr<std::vector<size_t>> HnswIndex::NearestChecked(
    const std::vector<float>& query, size_t k, size_t ef,
    const common::Deadline& deadline) const {
  if (TMN_FAILPOINT("index.hnsw.search")) {
    return common::UnavailableError("injected HNSW search failure");
  }
  if (count_ == 0) {
    return common::FailedPreconditionError("HNSW search on an empty index");
  }
  if (k == 0) {
    return common::InvalidArgumentError("HNSW search with k == 0");
  }
  if (query.size() != dim_) {
    return common::InvalidArgumentError(
        "HNSW query dimension " + std::to_string(query.size()) +
        " does not match index dimension " + std::to_string(dim_));
  }
  for (float v : query) {
    if (!std::isfinite(v)) {
      return common::InvalidArgumentError(
          "HNSW query contains a non-finite coordinate");
    }
  }
  TMN_RETURN_IF_ERROR(common::CheckDeadline(deadline, "index-search"));
  if (ef == 0) ef = config_.ef_search;
  ef = std::max(ef, k);
  common::DeadlinePoller poller(&deadline);
  common::DeadlinePoller* poll = deadline.infinite() ? nullptr : &poller;
  const size_t entry =
      GreedyDescend(query, entry_point_, max_level_, 0, poll);
  if (poller.expired()) {
    return common::DeadlineExceededError(
        "deadline expired at stage 'index-search' (greedy descent)");
  }
  std::vector<Candidate> found = SearchLayer(query, entry, ef, 0, poll);
  if (poller.expired()) {
    return common::DeadlineExceededError(
        "deadline expired at stage 'index-search' (beam search)");
  }
  std::vector<size_t> result;
  result.reserve(std::min(k, found.size()));
  for (size_t i = 0; i < found.size() && i < k; ++i) {
    result.push_back(found[i].second);
  }
  return result;
}

}  // namespace tmn::index
