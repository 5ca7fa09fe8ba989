#ifndef TMN_SERVE_SIMILARITY_SERVER_H_
#define TMN_SERVE_SIMILARITY_SERVER_H_

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/model.h"
#include "distance/metric.h"
#include "geo/trajectory.h"
#include "index/hnsw.h"
#include "index/segmented/segmented_index.h"
#include "serve/admission.h"
#include "serve/circuit_breaker.h"
#include "serve/micro_batcher.h"
#include "serve/serve_types.h"

namespace tmn::serve {

struct ServerConfig {
  // Admission: max queries in flight, TopK and SubmitTopK together (a
  // submitted query is in flight until its future resolves); arrivals
  // above this are shed with kResourceExhausted (reject-newest).
  size_t queue_capacity = 64;
  // Per-query time budget when the caller passes no deadline; <= 0 means
  // queries without an explicit deadline run unbounded.
  double default_deadline_seconds = 0.0;
  // Injectable clock shared by deadlines and the breaker (tests pin a
  // fake); nullptr = the monotonic clock.
  common::Deadline::ClockFn clock = nullptr;
  // Breaker around tier-1 model inference.
  CircuitBreakerConfig breaker;
  // Index parameters for the two ANN structures.
  index::HnswConfig embedding_hnsw;
  index::HnswConfig feature_hnsw;
  // Tier 2 fetches max(rerank_candidates, k) sketch-ANN candidates and
  // reranks them with the exact metric.
  size_t rerank_candidates = 32;
  // Points each trajectory is resampled to for the model-free sketch
  // (sketch vectors are 2 * sketch_points floats wide).
  size_t sketch_points = 8;
  // Tier 3 scans at most this many database entries, so the worst-case
  // fallback cost is bounded even for huge databases. A scan cut short by
  // this cap returns a `partial` response.
  size_t max_brute_force = 4096;
  // Takes tier 2 down, so tests and benches can reach the tiers below it.
  // (A null model takes tier 1 down.)
  bool enable_rerank_tier = true;
  // Optional crash-safe segmented tier (docs/INDEXING.md), tried between
  // tier 2 and the brute-force floor. The index must hold sketch vectors
  // (dim == 2 * sketch_points) whose ids are database positions; Create
  // rejects a dimension mismatch. Shared, not owned: the caller keeps it
  // alive and may keep appending, or run an index::Compactor, through its
  // own non-const handle while the server queries — SegmentedIndex is
  // internally synchronized (appends and the compaction swap take its
  // writer lock, queries its reader lock), so live ingest never races the
  // worker threads. Like tier 2 it is model-free, so it keeps answering
  // when the model is down; unlike tier 2 it may return `partial` results
  // instead of failing when segments are quarantined or over budget.
  std::shared_ptr<const index::SegmentedIndex> segmented_index;
  // Micro-batching cutoffs for SubmitTopK (docs/SERVING.md). The batcher
  // clock defaults to `clock` above when unset. The batcher has no bound
  // of its own: every queued query holds an admission slot.
  MicroBatcherConfig batching;
};

// Online top-k similarity serving with graceful degradation
// (docs/SERVING.md): every query is admitted against a bounded queue,
// carries a deadline that is checked between pipeline stages, and walks
// down the tier ladder — learned-embedding ANN, exact-metric rerank over
// a model-free candidate pool, the optional segmented index, bounded
// exact scan — until one tier answers. A circuit breaker around model
// inference turns a failing model into a fast, deterministic skip of
// tier 1 instead of a per-query failure. Thread-safe: TopK and SubmitTopK
// may be called concurrently, and both count against one admission bound.
class SimilarityServer {
 public:
  // Builds a server over `database`. `model` may be null (or pairwise):
  // the server then starts with tier 1 unavailable and serves from the
  // exact tiers; the reason is kept in model_status(). A malformed
  // database (empty, an empty trajectory, non-finite coordinates) is the
  // caller's bug and returns kInvalidArgument. `metric` must be non-null.
  static common::StatusOr<std::unique_ptr<SimilarityServer>> Create(
      const ServerConfig& config, std::vector<geo::Trajectory> database,
      std::unique_ptr<dist::DistanceMetric> metric,
      std::unique_ptr<core::SimilarityModel> model);

  // As above, loading the model from a checksummed bundle (core::
  // LoadTmnModel). A load/validation failure is NOT fatal: the server
  // comes up degraded with the load Status recorded in model_status().
  static common::StatusOr<std::unique_ptr<SimilarityServer>> CreateFromFile(
      const ServerConfig& config, std::vector<geo::Trajectory> database,
      std::unique_ptr<dist::DistanceMetric> metric,
      const std::string& model_path);

  // Waits for every in-flight micro-batch to resolve, then tears down.
  ~SimilarityServer();

  // Top-k neighbors of `query`, nearest first, at most min(k, size())
  // entries. Non-OK statuses a caller must expect:
  //   kResourceExhausted  — shed at admission (over queue_capacity).
  //   kDeadlineExceeded   — budget ran out; message names the stage.
  //   kInvalidArgument    — malformed query (empty, non-finite, k == 0).
  //   kUnavailable        — every tier is down.
  common::StatusOr<QueryResult> TopK(
      const geo::Trajectory& query, size_t k,
      const common::Deadline& deadline = common::Deadline()) const;

  // Micro-batched TopK: the query is admitted (same shedding and default-
  // deadline rules as TopK; it holds its slot until its future resolves),
  // copied into the batcher's queue, and answered by TopK's own stages,
  // run over the shared pool on a whole micro-batch; the result —
  // including every non-OK status TopK documents — arrives through the
  // returned future. A non-OK return means the query was shed at
  // admission and no work remains in flight. The result for any query is
  // bitwise identical to what a serial TopK with the same deadline would
  // produce, at every batch cutoff and thread count: batching is a
  // throughput detail, never a semantic one. Do not block on the future
  // from a ThreadPool worker — the pipeline needs pool workers to make
  // progress.
  common::StatusOr<std::future<common::StatusOr<QueryResult>>> SubmitTopK(
      const geo::Trajectory& query, size_t k,
      const common::Deadline& deadline = common::Deadline()) const;

  size_t size() const { return database_.size(); }

  // Tier health, for operators and tests.
  bool embedding_tier_available() const { return model_status_.ok(); }
  bool rerank_tier_available() const { return feature_status_.ok(); }
  bool segmented_tier_available() const {
    return config_.segmented_index != nullptr;
  }
  // Why tier 1 (model) or tier 2 (feature index) is down; Ok when up.
  const common::Status& model_status() const { return model_status_; }
  const common::Status& feature_index_status() const {
    return feature_status_;
  }
  CircuitBreaker::State breaker_state() const { return breaker_.state(); }
  const CircuitBreaker& breaker() const { return breaker_; }

  // The model-free sketch vector tier 2 indexes: the trajectory resampled
  // to sketch_points equally spaced positions, flattened to (lon, lat)
  // pairs. Exposed for tests.
  static std::vector<float> SketchTrajectory(const geo::Trajectory& t,
                                             size_t sketch_points);

 private:
  SimilarityServer(const ServerConfig& config,
                   std::vector<geo::Trajectory> database,
                   std::unique_ptr<dist::DistanceMetric> metric,
                   std::unique_ptr<core::SimilarityModel> model);

  // One query on its way through the stages, and one tier's candidate
  // ids for the exact-rank step.
  struct Member;
  struct Candidates;

  // The serving pipeline (docs/SERVING.md): three synchronous stages over
  // a batch of members. TopK runs them inline on a batch of one;
  // SubmitTopK chains them over the shared ThreadPool on each closed
  // micro-batch. Both paths run the same code, which is what
  // makes their answers bitwise identical.
  //
  // Stage 1: validation, the 'admission' deadline check, the breaker gate
  // and one fused encode of every member headed for tier 1.
  void EncodeStage(std::vector<Member>& members) const;
  // Stage 2: the embedding HNSW search that yields tier 1's candidates.
  void SearchStage(std::vector<Member>& members) const;
  // Stage 3, the degradation ladder: each available tier in turn yields a
  // candidate pool for RankExact, until one tier answers or a deadline
  // expiry ends the query.
  common::StatusOr<QueryResult> FinishLadder(Member& member) const;

  bool TierAvailable(ServeTier tier) const;
  // The ids `tier` proposes for `member`: tier 1's from stages 1-2, a
  // sketch HNSW search for tier 2, a scatter-gather of the segmented index
  // (ids the database no longer has are dropped and flag the pool
  // partial), or the first max_brute_force ids for tier 3.
  common::StatusOr<Candidates> CandidatePool(ServeTier tier,
                                             Member& member) const;
  // The one exact-rank step: scores `pool` with the exact metric, polling
  // the deadline before every candidate (`stage` names an expiry), then
  // sorts by (distance, id) and truncates to k. Tier 1 keeps its
  // embedding order (serve_types.h) but is tagged with exact distances
  // too, so tiers stay comparable.
  common::StatusOr<QueryResult> RankExact(const Member& member,
                                          const Candidates& pool,
                                          ServeTier tier,
                                          const char* stage) const;

  // ProcessBatch receives a closed batch from the dispatcher and chains
  // the three stages over the shared ThreadPool; each stage submits the
  // next, so stages of different batches interleave. The last stage
  // fulfills each member's promise and releases its admission slot as
  // soon as that member's ladder is done.
  struct BatchState;
  void ProcessBatch(std::vector<BatchRequest> batch,
                    BatchFlushReason reason) const;

  const ServerConfig config_;
  const std::vector<geo::Trajectory> database_;
  const std::unique_ptr<dist::DistanceMetric> metric_;
  std::unique_ptr<core::SimilarityModel> model_;

  mutable Admission admission_;
  mutable CircuitBreaker breaker_;

  // Tier 1 state: embeddings of the database under the model.
  std::unique_ptr<index::HnswIndex> embedding_index_;
  common::Status model_status_ = common::Status::Ok();

  // Tier 2 state: model-free sketch index.
  std::unique_ptr<index::HnswIndex> feature_index_;
  common::Status feature_status_ = common::Status::Ok();

  // In-flight batch accounting so destruction can wait for pipeline
  // stages that still hold `this`.
  mutable InflightTracker inflight_batches_;
  // Declared last: destroyed first, so the dispatcher drains (through
  // ProcessBatch, which needs every member above) before anything else
  // tears down. The explicit destructor then waits out inflight_batches_.
  std::unique_ptr<MicroBatcher> batcher_;
};

}  // namespace tmn::serve

#endif  // TMN_SERVE_SIMILARITY_SERVER_H_
