#include "serve/similarity_server.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "eval/embedding_search.h"
#include "obs/metrics.h"

namespace tmn::serve {

namespace {

// Serve counters are kUnstable: shed/timeout outcomes depend on arrival
// timing and wall-clock budgets in production. Deterministic tests assert
// on responses, not on these.
obs::Counter& ServeCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name, obs::Stability::kUnstable);
}

common::Status ValidateQuery(const geo::Trajectory& query, size_t k) {
  if (k == 0) {
    return common::InvalidArgumentError("top-k query with k == 0");
  }
  if (query.empty()) {
    return common::InvalidArgumentError("top-k query trajectory is empty");
  }
  for (const geo::Point& p : query.points()) {
    if (!std::isfinite(p.lon) || !std::isfinite(p.lat)) {
      return common::InvalidArgumentError(
          "top-k query contains a non-finite coordinate");
    }
  }
  return common::Status::Ok();
}

// Takes an admission slot, or sheds the query (reject-newest).
common::Status Admit(Admission& admission) {
  static obs::Counter& accepted = ServeCounter("tmn.serve.accepted");
  static obs::Counter& shed = ServeCounter("tmn.serve.shed");
  if (!admission.TryEnter()) {
    shed.Increment();
    return common::ResourceExhaustedError(
        "load shed: " + std::to_string(admission.capacity()) +
        " queries already in flight");
  }
  accepted.Increment();
  return common::Status::Ok();
}

// The caller's deadline, or the default budget when it brought none.
common::Deadline Budget(const common::Deadline& deadline,
                        const ServerConfig& config) {
  if (deadline.infinite() && config.default_deadline_seconds > 0) {
    return common::Deadline::AfterSeconds(config.default_deadline_seconds,
                                          config.clock);
  }
  return deadline;
}

// RAII release of an admission slot.
struct AdmissionGuard {
  explicit AdmissionGuard(Admission& admission) : admission(admission) {}
  ~AdmissionGuard() { admission.Exit(); }
  Admission& admission;
};

// Runs one micro-batch stage on the shared pool. Stage completion is
// tracked by the server's inflight_batches_, not the pool future.
void RunOnPool(std::function<void()> stage) {
  static_cast<void>(common::ThreadPool::Global().Submit(std::move(stage)));
}

}  // namespace

// One query on its way through the stages. EncodeStage decides `status`
// and, while tier 1 is up, leaves either an `embedding` or a tier-1
// error; SearchStage turns the embedding into `nearest` or a tier-1
// error; FinishLadder consumes the rest.
struct SimilarityServer::Member {
  Member(const geo::Trajectory* q, size_t top_k, const common::Deadline& d)
      : query(q), k(top_k), deadline(d) {}

  const geo::Trajectory* query;
  size_t k;
  common::Deadline deadline;
  // Non-OK once validation or the 'admission' check has decided the
  // answer; the ladder then never runs.
  common::Status status;
  // Why tier 1 fell through before its exact-rank step (breaker open,
  // encode or index-search failure).
  common::Status tier1;
  // Empty unless the member was encoded and still awaits its search.
  std::vector<float> embedding;
  // Tier 1's candidate pool: the embedding HNSW hits, in embedding order.
  std::vector<size_t> nearest;
};

struct SimilarityServer::Candidates {
  std::vector<size_t> ids;
  // The tier could not consult all of its live data (QueryResult::partial).
  bool partial = false;
};

// A closed micro-batch: members[i] answers requests[i], whose query it
// points at.
struct SimilarityServer::BatchState {
  std::vector<BatchRequest> requests;
  std::vector<Member> members;
};

const char* ServeTierName(ServeTier tier) {
  switch (tier) {
    case ServeTier::kEmbeddingAnn: return "embedding-ann";
    case ServeTier::kExactRerank: return "exact-rerank";
    case ServeTier::kSegmented: return "segmented";
    case ServeTier::kExactBruteForce: return "exact-brute-force";
  }
  return "unknown";
}

std::vector<float> SimilarityServer::SketchTrajectory(
    const geo::Trajectory& t, size_t sketch_points) {
  TMN_CHECK_MSG(sketch_points > 0, "sketch needs at least one point");
  TMN_CHECK_MSG(!t.empty(), "cannot sketch an empty trajectory");
  const size_t n = t.size();
  std::vector<float> sketch;
  sketch.reserve(2 * sketch_points);
  for (size_t j = 0; j < sketch_points; ++j) {
    // Equally spaced positions along the index axis, endpoints included.
    const double pos = sketch_points == 1
                           ? 0.0
                           : static_cast<double>(j) * (n - 1) /
                                 (sketch_points - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, n - 1);
    const double frac = pos - static_cast<double>(lo);
    sketch.push_back(
        static_cast<float>(t[lo].lon + frac * (t[hi].lon - t[lo].lon)));
    sketch.push_back(
        static_cast<float>(t[lo].lat + frac * (t[hi].lat - t[lo].lat)));
  }
  return sketch;
}

SimilarityServer::SimilarityServer(
    const ServerConfig& config, std::vector<geo::Trajectory> database,
    std::unique_ptr<dist::DistanceMetric> metric,
    std::unique_ptr<core::SimilarityModel> model)
    : config_(config),
      database_(std::move(database)),
      metric_(std::move(metric)),
      model_(std::move(model)),
      admission_(config.queue_capacity),
      breaker_([&] {
        CircuitBreakerConfig breaker = config.breaker;
        if (breaker.clock == nullptr) breaker.clock = config.clock;
        return breaker;
      }()) {
  MicroBatcherConfig batching = config.batching;
  if (batching.clock == nullptr) batching.clock = config.clock;
  batcher_ = std::make_unique<MicroBatcher>(
      batching, [this](std::vector<BatchRequest> batch,
                       BatchFlushReason reason) {
        ProcessBatch(std::move(batch), reason);
      });
}

SimilarityServer::~SimilarityServer() {
  // Stop and drain the batcher first: every queued request still flows
  // through ProcessBatch while the server is fully alive. Then wait for
  // the pipeline stages those (and earlier) batches put on the shared
  // pool — they hold `this`.
  batcher_.reset();
  inflight_batches_.WaitForZero();
}

common::StatusOr<std::unique_ptr<SimilarityServer>> SimilarityServer::Create(
    const ServerConfig& config, std::vector<geo::Trajectory> database,
    std::unique_ptr<dist::DistanceMetric> metric,
    std::unique_ptr<core::SimilarityModel> model) {
  if (metric == nullptr) {
    return common::InvalidArgumentError(
        "serving requires an exact distance metric");
  }
  if (config.queue_capacity == 0) {
    return common::InvalidArgumentError(
        "serving queue_capacity must be positive");
  }
  if (config.batching.max_batch_size == 0) {
    // The dispatcher would close an empty batch on the first submit.
    return common::InvalidArgumentError(
        "serving batching.max_batch_size must be positive");
  }
  if (config.sketch_points == 0) {
    return common::InvalidArgumentError(
        "serving sketch_points must be positive");
  }
  if (config.max_brute_force == 0) {
    return common::InvalidArgumentError(
        "serving max_brute_force must be positive");
  }
  if (database.empty()) {
    return common::InvalidArgumentError("serving database is empty");
  }
  if (config.segmented_index != nullptr &&
      config.segmented_index->dim() != 2 * config.sketch_points) {
    return common::InvalidArgumentError(
        "segmented index dim " +
        std::to_string(config.segmented_index->dim()) +
        " does not match sketch width " +
        std::to_string(2 * config.sketch_points));
  }
  for (size_t i = 0; i < database.size(); ++i) {
    if (database[i].empty()) {
      return common::InvalidArgumentError("database trajectory " +
                                          std::to_string(i) + " is empty");
    }
    for (const geo::Point& p : database[i].points()) {
      if (!std::isfinite(p.lon) || !std::isfinite(p.lat)) {
        return common::InvalidArgumentError(
            "database trajectory " + std::to_string(i) +
            " contains a non-finite coordinate");
      }
    }
  }

  // make_unique cannot reach the private constructor.
  std::unique_ptr<SimilarityServer> server(new SimilarityServer(  // tmn-lint: allow(raw-alloc)
      config, std::move(database), std::move(metric), std::move(model)));

  // Tier 1: pre-embed the database. Any failure leaves the server up but
  // degraded; the cause stays readable through model_status().
  if (server->model_ == nullptr) {
    server->model_status_ = common::FailedPreconditionError(
        "no model provided; serving from exact tiers");
  } else if (server->model_->IsPairwise()) {
    server->model_status_ = common::FailedPreconditionError(
        "pairwise model cannot pre-embed the database");
  } else {
    const size_t n = server->database_.size();
    std::vector<std::vector<float>> embeddings(n);
    std::vector<common::Status> statuses(n);
    common::ParallelFor(0, n, [&](size_t i) {
      common::StatusOr<std::vector<float>> e =
          eval::EncodeTrajectory(*server->model_, server->database_[i]);
      if (e.ok()) {
        embeddings[i] = std::move(e.value());
      } else {
        statuses[i] = e.status();
      }
    });
    common::Status first_error;  // First failed index: deterministic pick.
    for (const common::Status& s : statuses) {
      if (!s.ok()) {
        first_error = s;
        break;
      }
    }
    if (!first_error.ok()) {
      server->model_status_ = first_error;
    } else {
      server->embedding_index_ = std::make_unique<index::HnswIndex>(
          embeddings[0].size(), config.embedding_hnsw);
      for (const std::vector<float>& e : embeddings) {
        server->embedding_index_->Add(e);
      }
    }
  }

  // Tier 2: the model-free sketch index, so exact-metric rerank has a
  // candidate pool that never depends on the model being healthy.
  if (!config.enable_rerank_tier) {
    server->feature_status_ =
        common::FailedPreconditionError("rerank tier disabled by config");
  } else if (TMN_FAILPOINT("serve.feature_index.build")) {
    server->feature_status_ =
        common::UnavailableError("injected feature index build failure");
  } else {
    const size_t n = server->database_.size();
    std::vector<std::vector<float>> sketches(n);
    common::ParallelFor(0, n, [&](size_t i) {
      sketches[i] =
          SketchTrajectory(server->database_[i], config.sketch_points);
    });
    server->feature_index_ = std::make_unique<index::HnswIndex>(
        2 * config.sketch_points, config.feature_hnsw);
    for (const std::vector<float>& s : sketches) {
      server->feature_index_->Add(s);
    }
  }

  return server;
}

common::StatusOr<std::unique_ptr<SimilarityServer>>
SimilarityServer::CreateFromFile(const ServerConfig& config,
                                 std::vector<geo::Trajectory> database,
                                 std::unique_ptr<dist::DistanceMetric> metric,
                                 const std::string& model_path) {
  common::StatusOr<std::unique_ptr<core::TmnModel>> model =
      core::LoadTmnModel(model_path);
  if (model.ok()) {
    return Create(config, std::move(database), std::move(metric),
                  std::move(model.value()));
  }
  // A missing or corrupt model bundle is an environment failure, not a
  // reason to refuse queries: come up degraded and keep the load status.
  common::StatusOr<std::unique_ptr<SimilarityServer>> server =
      Create(config, std::move(database), std::move(metric), nullptr);
  if (server.ok()) server.value()->model_status_ = model.status();
  return server;
}

// ---------------------------------------------------------------------
// The stages. Every breaker rule lives in EncodeStage: AllowRequest per
// member before encode; a deadline expiry records Abandoned (it says
// nothing about model health), any other encode failure records Failure,
// success records Success; index failures fall through to tier 2 with no
// breaker penalty, because the breaker isolates the model, not the index.
// A member that never passed AllowRequest never records anything.

void SimilarityServer::EncodeStage(std::vector<Member>& members) const {
  static obs::Counter& timed_out = ServeCounter("tmn.serve.timed_out");
  std::vector<eval::BatchEncodeRequest> to_encode;
  std::vector<Member*> encoding;
  for (Member& member : members) {
    member.status = ValidateQuery(*member.query, member.k);
    if (!member.status.ok()) continue;
    member.status = common::CheckDeadline(member.deadline, "admission");
    if (!member.status.ok()) {
      timed_out.Increment();
      continue;
    }
    if (!embedding_tier_available()) continue;
    if (!breaker_.AllowRequest()) {
      member.tier1 = common::UnavailableError(
          "circuit breaker open: tier-1 inference short-circuited");
      continue;
    }
    to_encode.push_back(
        eval::BatchEncodeRequest{member.query, member.deadline});
    encoding.push_back(&member);
  }
  if (to_encode.empty()) return;
  std::vector<common::StatusOr<std::vector<float>>> encoded =
      eval::EncodeTrajectoriesBatched(*model_, to_encode);
  for (size_t j = 0; j < encoded.size(); ++j) {
    if (encoded[j].ok()) {
      breaker_.RecordSuccess();
      encoding[j]->embedding = std::move(encoded[j].value());
      continue;
    }
    if (encoded[j].status().code() == common::StatusCode::kDeadlineExceeded) {
      breaker_.RecordAbandoned();
    } else {
      breaker_.RecordFailure();
    }
    encoding[j]->tier1 = encoded[j].status();
  }
}

void SimilarityServer::SearchStage(std::vector<Member>& members) const {
  for (Member& member : members) {
    if (member.embedding.empty()) continue;
    common::StatusOr<std::vector<size_t>> nearest =
        embedding_index_->NearestChecked(
            member.embedding, std::min(member.k, database_.size()),
            /*ef=*/0, member.deadline);
    if (nearest.ok()) {
      member.nearest = std::move(nearest.value());
    } else {
      member.tier1 = nearest.status();
    }
  }
}

common::StatusOr<QueryResult> SimilarityServer::FinishLadder(
    Member& member) const {
  static obs::Counter& timed_out = ServeCounter("tmn.serve.timed_out");
  // Top to bottom; `stage` names the tier's exact-rank step in deadline
  // messages.
  static const struct {
    ServeTier tier;
    const char* stage;
    obs::Counter& served;
  } kLadder[] = {
      {ServeTier::kEmbeddingAnn, "tier1-distances",
       ServeCounter("tmn.serve.tier1_served")},
      {ServeTier::kExactRerank, "rerank",
       ServeCounter("tmn.serve.tier2_served")},
      {ServeTier::kSegmented, "segmented-rerank",
       ServeCounter("tmn.serve.segmented_served")},
      {ServeTier::kExactBruteForce, "brute-force",
       ServeCounter("tmn.serve.tier3_served")},
  };

  if (!member.status.ok()) return member.status;
  common::Status last_error;
  for (const auto& rung : kLadder) {
    if (!TierAvailable(rung.tier)) continue;
    common::StatusOr<Candidates> pool = CandidatePool(rung.tier, member);
    common::StatusOr<QueryResult> r =
        pool.ok() ? RankExact(member, pool.value(), rung.tier, rung.stage)
                  : common::StatusOr<QueryResult>(pool.status());
    if (r.ok()) {
      rung.served.Increment();
      if (r.value().partial) {
        // Registered on first use, so reports of servers that never
        // answer partially do not carry it.
        static obs::Counter& partial_served =
            ServeCounter("tmn.serve.partial_served");
        partial_served.Increment();
      }
      return r;
    }
    // A deadline expiry ends the query — degrading further would only
    // blow the budget by more, not less.
    if (r.status().code() == common::StatusCode::kDeadlineExceeded) {
      timed_out.Increment();
      return r.status();
    }
    last_error = r.status();
  }
  return common::UnavailableError("no serving tier available (last: " +
                                  last_error.ToString() + ")");
}

bool SimilarityServer::TierAvailable(ServeTier tier) const {
  switch (tier) {
    case ServeTier::kEmbeddingAnn: return embedding_tier_available();
    case ServeTier::kExactRerank: return rerank_tier_available();
    case ServeTier::kSegmented: return segmented_tier_available();
    case ServeTier::kExactBruteForce: return true;
  }
  return false;
}

common::StatusOr<SimilarityServer::Candidates> SimilarityServer::CandidatePool(
    ServeTier tier, Member& member) const {
  // The sketch tiers over-fetch so the exact rank has headroom beyond k.
  const size_t fetch = std::min(std::max(config_.rerank_candidates, member.k),
                                database_.size());
  Candidates pool;
  switch (tier) {
    case ServeTier::kEmbeddingAnn:
      if (!member.tier1.ok()) return member.tier1;
      pool.ids = std::move(member.nearest);
      break;
    case ServeTier::kExactRerank: {
      common::StatusOr<std::vector<size_t>> ids =
          feature_index_->NearestChecked(
              SketchTrajectory(*member.query, config_.sketch_points), fetch,
              /*ef=*/0, member.deadline);
      if (!ids.ok()) return ids.status();
      pool.ids = std::move(ids.value());
      break;
    }
    case ServeTier::kSegmented: {
      common::StatusOr<index::SegmentedSearchResult> hits =
          config_.segmented_index->SearchTopK(
              SketchTrajectory(*member.query, config_.sketch_points), fetch,
              member.deadline);
      if (!hits.ok()) return hits.status();
      pool.partial = hits.value().partial;
      pool.ids.reserve(hits.value().ids.size());
      for (uint64_t id : hits.value().ids) {
        if (id < database_.size()) {
          pool.ids.push_back(static_cast<size_t>(id));
        } else {
          // The index references a record this database no longer has (it
          // outlived a rebuild). Some of the true candidate pool is
          // missing, which is exactly what `partial` means.
          pool.partial = true;
        }
      }
      if (pool.ids.empty()) {
        // An empty (or fully stale) segmented index has no opinion; let
        // the ladder fall through to the brute-force floor.
        return common::UnavailableError(
            "segmented index yielded no candidates");
      }
      break;
    }
    case ServeTier::kExactBruteForce:
      if (TMN_FAILPOINT("serve.brute_force")) {
        return common::UnavailableError("injected brute-force scan failure");
      }
      // Bounded: the last-resort tier must not turn one slow query into an
      // unbounded scan of a huge database. A truncated scan did not consult
      // the rest of the database, which is what `partial` means.
      pool.ids.resize(std::min(database_.size(), config_.max_brute_force));
      std::iota(pool.ids.begin(), pool.ids.end(), size_t{0});
      pool.partial = database_.size() > config_.max_brute_force;
      break;
  }
  return pool;
}

common::StatusOr<QueryResult> SimilarityServer::RankExact(
    const Member& member, const Candidates& pool, ServeTier tier,
    const char* stage) const {
  std::vector<std::pair<double, size_t>> scored;
  scored.reserve(pool.ids.size());
  // Exact metrics are DTW-like (quadratic in trajectory length), so one
  // candidate is already a chunky unit of work: poll every candidate.
  common::DeadlinePoller poller(&member.deadline, /*stride=*/1);
  for (size_t id : pool.ids) {
    TMN_RETURN_IF_ERROR(poller.Check(stage));
    scored.emplace_back(metric_->Compute(*member.query, database_[id]), id);
  }
  if (tier != ServeTier::kEmbeddingAnn) {
    // Deterministic ordering: by exact distance, index breaking ties.
    const size_t take = std::min(member.k, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + take, scored.end());
    scored.resize(take);
  }
  QueryResult result;
  result.tier = tier;
  result.partial = pool.partial;
  result.indices.reserve(scored.size());
  result.distances.reserve(scored.size());
  for (const auto& [d, id] : scored) {
    result.indices.push_back(id);
    result.distances.push_back(d);
  }
  return result;
}

// ---------------------------------------------------------------------
// Entry points. Both take a slot of the one admission bound before any
// work, and hold it until the query's answer is decided.

common::StatusOr<QueryResult> SimilarityServer::TopK(
    const geo::Trajectory& query, size_t k,
    const common::Deadline& deadline) const {
  TMN_RETURN_IF_ERROR(Admit(admission_));
  AdmissionGuard guard(admission_);
  std::vector<Member> one = {Member(&query, k, Budget(deadline, config_))};
  EncodeStage(one);
  SearchStage(one);
  return FinishLadder(one[0]);
}

common::StatusOr<std::future<common::StatusOr<QueryResult>>>
SimilarityServer::SubmitTopK(const geo::Trajectory& query, size_t k,
                             const common::Deadline& deadline) const {
  // The slot is released by ProcessBatch once the future is fulfilled.
  TMN_RETURN_IF_ERROR(Admit(admission_));
  BatchRequest request;
  request.query = query;  // Copied: the batch outlives the caller's frame.
  request.k = k;
  request.deadline = Budget(deadline, config_);
  std::future<common::StatusOr<QueryResult>> future =
      request.promise.get_future();
  batcher_->Submit(std::move(request));
  return future;
}

void SimilarityServer::ProcessBatch(std::vector<BatchRequest> batch,
                                    BatchFlushReason /*reason*/) const {
  auto state = std::make_shared<BatchState>();
  state->requests = std::move(batch);
  state->members.reserve(state->requests.size());
  for (const BatchRequest& request : state->requests) {
    state->members.emplace_back(&request.query, request.k, request.deadline);
  }
  inflight_batches_.Add();
  RunOnPool([this, state] {
    EncodeStage(state->members);
    RunOnPool([this, state] {
      SearchStage(state->members);
      RunOnPool([this, state] {
        for (size_t i = 0; i < state->members.size(); ++i) {
          state->requests[i].promise.set_value(
              FinishLadder(state->members[i]));
          admission_.Exit();
        }
        inflight_batches_.Remove();
      });
    });
  });
}

}  // namespace tmn::serve
