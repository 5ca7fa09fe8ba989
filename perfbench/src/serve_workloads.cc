// serve_embed and serve_exact: one SimilarityServer, an open-loop phase at
// a frozen offered rate and a closed-loop phase with a fixed number of
// queries in flight, all sent through SubmitTopK. See ../README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "distance/distance_matrix.h"
#include "distance/metric.h"
#include "eval/embedding_search.h"
#include "eval/metrics.h"
#include "geo/preprocess.h"
#include "index/hnsw.h"
#include "obs/clock.h"
#include "serve/similarity_server.h"
#include "workloads.h"

namespace tmn::perfbench {
namespace {

using obs::MonotonicSeconds;
using Answer = common::StatusOr<serve::QueryResult>;

struct ServeSpec {
  const char* name;
  data::SyntheticKind kind;
  int corpus_size;
  int min_length;
  int max_length;
  bool with_model;  // false: the model-down path (tier 2).
  serve::ServeTier expected_tier;
  double open_rate_qps;  // Frozen offered rate of the open-loop phase.
  size_t recall_queries;  // Seeded sample with exact brute-force truth.
};

constexpr ServeSpec kServeEmbed{"serve_embed",
                                data::SyntheticKind::kPortoLike,
                                8192, 15, 50, true,
                                serve::ServeTier::kEmbeddingAnn, 1000.0, 512};
constexpr ServeSpec kServeExact{"serve_exact",
                                data::SyntheticKind::kGeolifeLike,
                                4096, 60, 160, false,
                                serve::ServeTier::kExactRerank, 500.0, 128};

constexpr size_t kTopK = 10;
constexpr size_t kQueryPool = 512;      // Held-out queries.
constexpr size_t kReplayQueries = 64;   // Per-layer replay sample.
constexpr size_t kInFlight = 32;        // Closed loop; < queue_capacity.
constexpr int kClosedClients = 2;       // Each keeps kInFlight / 2 queued.
constexpr uint64_t kCheckOneIn = 32;    // Bitwise-check sampling rate.
constexpr double kWarmupSeconds = 1.0;  // Full load before measuring.
// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kServeSetupRepeats = 3;
constexpr int kRounds = 10;  // Open/closed slices the measured time is cut into.
constexpr int kModelHidden = 128;
constexpr uint64_t kModelSeed = 9;

struct Inputs {
  std::vector<geo::Trajectory> corpus;
  std::vector<geo::Trajectory> pool;
};

Inputs MakeInputs(const ServeSpec& spec, uint64_t seed) {
  data::SyntheticConfig config;
  config.kind = spec.kind;
  config.num_trajectories = spec.corpus_size + static_cast<int>(kQueryPool);
  config.min_length = spec.min_length;
  config.max_length = spec.max_length;
  config.seed = seed;
  const std::vector<geo::Trajectory> all = data::GenerateSynthetic(config);
  const std::vector<geo::Trajectory> corpus(all.begin(),
                                            all.begin() + spec.corpus_size);
  const std::vector<geo::Trajectory> pool(all.begin() + spec.corpus_size,
                                          all.end());
  const geo::NormalizationParams norm = geo::ComputeNormalization(corpus);
  return Inputs{geo::NormalizeTrajectories(corpus, norm),
                geo::NormalizeTrajectories(pool, norm)};
}

std::unique_ptr<dist::DistanceMetric> Dtw() {
  return dist::CreateMetric(dist::MetricType::kDtw);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameAnswer(const serve::QueryResult& a, const serve::QueryResult& b) {
  if (a.tier != b.tier || a.partial != b.partial ||
      a.indices != b.indices || a.distances.size() != b.distances.size()) {
    return false;
  }
  for (size_t i = 0; i < a.distances.size(); ++i) {
    if (!SameBits(a.distances[i], b.distances[i])) return false;
  }
  return true;
}

// Everything the benchmark checks on every answer; empty when it holds.
std::string CheckAnswer(const ServeSpec& spec, const serve::QueryResult& r,
                        size_t corpus_size) {
  if (r.tier != spec.expected_tier) {
    return std::string("tier ") + serve::ServeTierName(r.tier) +
           ", expected " + serve::ServeTierName(spec.expected_tier);
  }
  if (r.partial) return "partial answer";
  const size_t want = std::min(kTopK, corpus_size);
  if (r.indices.size() != want || r.distances.size() != want) {
    return "answer has " + std::to_string(r.indices.size()) + " ids, want " +
           std::to_string(want);
  }
  std::vector<size_t> sorted = r.indices;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "duplicate id in answer";
  }
  if (sorted.back() >= corpus_size) return "id out of range";
  if (r.tier != serve::ServeTier::kEmbeddingAnn) {
    for (size_t i = 1; i < want; ++i) {
      const bool ordered =
          r.distances[i - 1] < r.distances[i] ||
          (r.distances[i - 1] == r.distances[i] &&
           r.indices[i - 1] < r.indices[i]);
      if (!ordered) return "answer not ordered by (distance, id)";
    }
  }
  return "";
}

// Collects answers from any thread: checks each one, keeps a seeded
// sample for the bitwise checks made after the phases.
class AnswerLog {
 public:
  AnswerLog(const ServeSpec& spec, uint64_t seed, size_t corpus_size,
            WorkloadResult* result)
      : spec_(spec), seed_(seed), corpus_size_(corpus_size),
        result_(result) {}

  // Returns true when the answer is OK and passes its checks.
  bool Record(uint64_t qid, size_t pool_index, Answer answer) {
    std::string error;
    if (!answer.ok()) {
      error = answer.status().ToString();
    } else {
      error = CheckAnswer(spec_, answer.value(), corpus_size_);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++result_->attempted;
    if (!error.empty()) {
      result_->Fail("query " + std::to_string(qid) + ": " + error);
      return false;
    }
    if (Mix(seed_, qid) % kCheckOneIn == 0) {
      sampled_.push_back({pool_index, std::move(answer.value())});
    }
    return true;
  }

  // The sampled answers: (pool index, answer).
  std::vector<std::pair<size_t, serve::QueryResult>> sampled_;

 private:
  const ServeSpec& spec_;
  const uint64_t seed_;
  const size_t corpus_size_;
  WorkloadResult* result_;
  std::mutex mu_;
};

size_t PoolIndex(uint64_t seed, uint64_t qid) {
  return static_cast<size_t>(Mix(seed ^ 0x5eedULL, qid) % kQueryPool);
}

// Open loop: one generator thread sends SubmitTopK on the seeded schedule;
// this thread collects completions by polling the pending futures, so a
// slow answer never hides a fast one behind it for more than 100 us.
LoopStats OpenLoopPhase(const serve::SimilarityServer& server,
                        const Inputs& inputs, uint64_t seed,
                        uint64_t qid_base, const std::vector<double>& schedule,
                        AnswerLog* log, SpanRecorder* spans) {
  struct Pending {
    uint64_t qid;
    size_t pool_index;
    double due;
    int64_t span;
    std::future<Answer> future;
  };
  LoopStats stats;
  std::mutex mu;
  std::condition_variable handoff_cv;
  std::deque<Pending> handoff;
  bool generator_done = false;
  uint64_t shed = 0;
  const double start = MonotonicSeconds() + 0.005;

  std::thread generator([&] {
    for (size_t i = 0; i < schedule.size(); ++i) {
      const uint64_t qid = qid_base + i;
      const size_t p = PoolIndex(seed, qid);
      const double due = start + schedule[i];
      SleepUntil(due);
      const double sent = MonotonicSeconds();
      const int64_t span = spans->Open("serve.query", due, -1, qid);
      auto submitted = server.SubmitTopK(inputs.pool[p], kTopK);
      spans->Add("serve.submit", sent, MonotonicSeconds(), span, qid);
      if (!submitted.ok()) log->Record(qid, p, submitted.status());
      std::lock_guard<std::mutex> lock(mu);
      stats.lateness_s.push_back(LatenessSeconds(due, sent));
      if (!submitted.ok()) {
        ++shed;
        continue;
      }
      handoff.push_back(
          Pending{qid, p, due, span, std::move(submitted.value())});
      handoff_cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
    handoff_cv.notify_one();
  });

  // Polling stays cheap (a 100 us wait on one future, then a scan), so
  // the benchmark's own threads leave the CPUs to the server.
  std::vector<Pending> pending;
  while (true) {
    bool done = false;
    {
      std::unique_lock<std::mutex> lock(mu);
      if (pending.empty()) {
        handoff_cv.wait(lock, [&] { return !handoff.empty() || generator_done; });
      }
      while (!handoff.empty()) {
        pending.push_back(std::move(handoff.front()));
        handoff.pop_front();
      }
      done = generator_done;
    }
    if (pending.empty()) {
      if (done) break;
      continue;
    }
    bool any = false;
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      if (p.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const double now = MonotonicSeconds();
      spans->Close(p.span, now);
      ++stats.attempted;
      if (log->Record(p.qid, p.pool_index, p.future.get())) {
        stats.latency_s.push_back(now - p.due);
        stats.done_at_s.push_back(now - start);
      } else {
        ++stats.failed;
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
      any = true;
    }
    if (!any) {
      pending.front().future.wait_for(std::chrono::microseconds(100));
    }
  }
  generator.join();
  stats.attempted += shed;
  stats.failed += shed;
  stats.elapsed_s = MonotonicSeconds() - start;
  return stats;
}

// Closed loop: kClosedClients threads each keep kInFlight / kClosedClients
// queries submitted; completions before the deadline count.
LoopStats ClosedLoopPhase(const serve::SimilarityServer& server,
                          const Inputs& inputs, uint64_t seed,
                          uint64_t qid_base, double duration_s,
                          AnswerLog* log) {
  std::atomic<uint64_t> next{qid_base};
  std::vector<LoopStats> per(kClosedClients);
  const double start = MonotonicSeconds();
  const double stop = start + duration_s;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&, c] {
      LoopStats& mine = per[static_cast<size_t>(c)];
      struct Pending {
        uint64_t qid;
        size_t pool_index;
        double sent;
        std::future<Answer> future;
      };
      std::deque<Pending> queue;
      bool stopping = false;
      while (true) {
        while (!stopping && queue.size() < kInFlight / kClosedClients) {
          const uint64_t qid = next.fetch_add(1);
          const size_t p = PoolIndex(seed, qid);
          const double sent = MonotonicSeconds();
          auto submitted = server.SubmitTopK(inputs.pool[p], kTopK);
          ++mine.attempted;
          if (!submitted.ok()) {
            ++mine.failed;
            log->Record(qid, p, submitted.status());
            continue;
          }
          queue.push_back(Pending{qid, p, sent, std::move(submitted.value())});
        }
        if (queue.empty()) break;
        Pending front = std::move(queue.front());
        queue.pop_front();
        Answer answer = front.future.get();
        const double now = MonotonicSeconds();
        if (now >= stop) stopping = true;
        if (!log->Record(front.qid, front.pool_index, std::move(answer))) {
          ++mine.failed;
        } else if (now < stop) {
          mine.latency_s.push_back(now - front.sent);
          mine.done_at_s.push_back(now - start);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  LoopStats stats;
  for (const LoopStats& p : per) {
    stats.latency_s.insert(stats.latency_s.end(), p.latency_s.begin(),
                           p.latency_s.end());
    stats.done_at_s.insert(stats.done_at_s.end(), p.done_at_s.begin(),
                           p.done_at_s.end());
    stats.attempted += p.attempted;
    stats.failed += p.failed;
  }
  stats.elapsed_s = duration_s;
  return stats;
}

common::StatusOr<std::unique_ptr<serve::SimilarityServer>> CreateServer(
    const ServeSpec& spec, const std::vector<geo::Trajectory>& corpus,
    const std::string& model_path, double* seconds) {
  std::vector<geo::Trajectory> database = corpus;  // Copy is not setup.
  std::unique_ptr<dist::DistanceMetric> metric = Dtw();
  const serve::ServerConfig config;
  const double t0 = MonotonicSeconds();
  auto server =
      spec.with_model
          ? serve::SimilarityServer::CreateFromFile(
                config, std::move(database), std::move(metric), model_path)
          : serve::SimilarityServer::Create(config, std::move(database),
                                            std::move(metric), nullptr);
  *seconds = MonotonicSeconds() - t0;
  return server;
}

// Exact DTW top-k of each recall query over the corpus, by brute force.
std::vector<std::vector<uint64_t>> ExactTruth(const Inputs& inputs,
                                              size_t count) {
  const std::vector<geo::Trajectory> queries(inputs.pool.begin(),
                                             inputs.pool.begin() + count);
  const DoubleMatrix d =
      dist::ComputeCrossDistanceMatrix(queries, inputs.corpus, *Dtw());
  std::vector<std::vector<uint64_t>> truth(count);
  for (size_t q = 0; q < count; ++q) {
    std::vector<double> row(d.cols());
    for (size_t c = 0; c < d.cols(); ++c) row[c] = d.at(q, c);
    for (size_t id : eval::TopKIndices(row, kTopK, row.size())) {
      truth[q].push_back(id);
    }
  }
  return truth;
}

// Per-layer replay of the recall queries, on this thread, with spans
// around every call into a layer: encode + HNSW on a twin graph + exact
// distances (tier 1), or sketch + twin sketch HNSW + exact rerank
// (tier 2); then the serial TopK of the same query for the closure check.
void ReplayLayers(const ServeSpec& spec, const Inputs& inputs,
                  const serve::SimilarityServer& server,
                  const core::SimilarityModel* model, double batch_size_mean,
                  SpanRecorder* spans, WorkloadResult* result,
                  std::vector<Metric>* layers) {
  const serve::ServerConfig config;
  std::unique_ptr<dist::DistanceMetric> metric = Dtw();
  const size_t n = inputs.corpus.size();

  // The twin graph: the same vectors in the same order under the same
  // HnswConfig, so the same graph the server searches.
  std::unique_ptr<index::HnswIndex> twin;
  if (spec.with_model) {
    std::vector<std::vector<float>> embeddings(n);
    common::ParallelFor(0, n, [&](size_t i) {
      embeddings[i] = eval::EncodeTrajectory(*model, inputs.corpus[i]).value();
    });
    twin = std::make_unique<index::HnswIndex>(embeddings[0].size(),
                                              config.embedding_hnsw);
    for (const auto& e : embeddings) twin->Add(e);
  } else {
    twin = std::make_unique<index::HnswIndex>(2 * config.sketch_points,
                                              config.feature_hnsw);
    for (const auto& t : inputs.corpus) {
      twin->Add(serve::SimilarityServer::SketchTrajectory(
          t, config.sketch_points));
    }
  }

  double hnsw_seconds = 0.0;
  double hnsw_nodes = 0.0;
  double distance_seconds = 0.0;
  double distance_cells = 0.0;
  double distance_calls = 0.0;
  double topk_seconds = 0.0;
  std::vector<std::string> stage_names = {"index.hnsw", "distance.compute",
                                          "serve.sort"};
  stage_names.push_back(spec.with_model ? "eval.encode" : "serve.sketch");

  for (size_t q = 0; q < kReplayQueries; ++q) {
    const geo::Trajectory& query = inputs.pool[q];
    const int64_t root = spans->Open("replay.query", MonotonicSeconds(), -1, q);
    std::vector<float> vec;
    double t0 = MonotonicSeconds();
    if (spec.with_model) {
      vec = eval::EncodeTrajectory(*model, query).value();
      spans->Add("eval.encode", t0, MonotonicSeconds(), root, q);
    } else {
      vec = serve::SimilarityServer::SketchTrajectory(query,
                                                      config.sketch_points);
      spans->Add("serve.sketch", t0, MonotonicSeconds(), root, q);
    }
    const size_t fetch =
        spec.with_model ? std::min(kTopK, n)
                        : std::min(std::max(config.rerank_candidates, kTopK), n);
    const RegistrySnapshot nodes_before = RegistrySnapshot::Take();
    t0 = MonotonicSeconds();
    const std::vector<size_t> ids = twin->NearestChecked(vec, fetch).value();
    const double t1 = MonotonicSeconds();
    spans->Add("index.hnsw", t0, t1, root, q);
    hnsw_seconds += t1 - t0;
    hnsw_nodes += RegistrySnapshot::Take().Counter("tmn.index.hnsw.nodes_visited") -
                  nodes_before.Counter("tmn.index.hnsw.nodes_visited");
    std::vector<std::pair<double, size_t>> scored;
    for (size_t id : ids) {
      const double c0 = MonotonicSeconds();
      const double d = metric->Compute(query, inputs.corpus[id]);
      const double c1 = MonotonicSeconds();
      spans->Add("distance.compute", c0, c1, root, q);
      distance_seconds += c1 - c0;
      distance_cells += static_cast<double>(query.size()) *
                        static_cast<double>(inputs.corpus[id].size());
      distance_calls += 1.0;
      scored.emplace_back(d, id);
    }
    if (!spec.with_model) {
      t0 = MonotonicSeconds();
      std::sort(scored.begin(), scored.end());
      scored.resize(std::min(kTopK, scored.size()));
      spans->Add("serve.sort", t0, MonotonicSeconds(), root, q);
    }
    spans->Close(root, MonotonicSeconds());

    t0 = MonotonicSeconds();
    Answer serial = server.TopK(query, kTopK);
    const double t_topk = MonotonicSeconds() - t0;
    spans->Add("serve.topk", t0, t0 + t_topk, -1, q);
    topk_seconds += t_topk;
    // The twin must reproduce the server's own answer.
    bool same = serial.ok() && serial.value().indices.size() == scored.size();
    for (size_t i = 0; same && i < scored.size(); ++i) {
      same = serial.value().indices[i] == scored[i].second &&
             SameBits(serial.value().distances[i], scored[i].first);
    }
    if (!same) result->Fail("replay of query " + std::to_string(q) +
                            " disagrees with the server's answer");
  }

  // Encode in the workload's batch size (tier 1 only).
  double encode_us = 0.0;
  if (spec.with_model) {
    const size_t b = std::max<size_t>(1, std::lround(batch_size_mean));
    double seconds = 0.0;
    for (size_t q = 0; q + b <= kReplayQueries; q += b) {
      std::vector<eval::BatchEncodeRequest> batch;
      for (size_t j = q; j < q + b; ++j) {
        batch.push_back(eval::BatchEncodeRequest{&inputs.pool[j], {}});
      }
      const double t0 = MonotonicSeconds();
      const auto out = eval::EncodeTrajectoriesBatched(*model, batch);
      seconds += MonotonicSeconds() - t0;
      for (const auto& e : out) {
        if (!e.ok()) result->Fail("replay encode: " + e.status().ToString());
      }
    }
    encode_us = 1e6 * seconds / static_cast<double>(kReplayQueries / b * b);
  }

  const std::vector<Span> all = spans->spans();
  const std::vector<double> self = SelfTimes(all);
  double stage_sum = 0.0;
  for (const std::string& name : stage_names) {
    stage_sum += SumSelfTime(all, self, name);
  }
  const double nq = static_cast<double>(kReplayQueries);
  layers->push_back({"serve.stage_sum_frac", stage_sum / topk_seconds, ""});
  layers->push_back({"eval.encode_us_per_query", encode_us, ""});
  layers->push_back({"index.hnsw_us_per_query", 1e6 * hnsw_seconds / nq, ""});
  layers->push_back({"index.hnsw_nodes_per_query", hnsw_nodes / nq, ""});
  layers->push_back({"distance.calls_per_query", distance_calls / nq, ""});
  layers->push_back(
      {"distance.us_per_call", 1e6 * distance_seconds / distance_calls, ""});
  layers->push_back(
      {"distance.ns_per_cell", 1e9 * distance_seconds / distance_cells, ""});
}

WorkloadResult RunServe(const ServeSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  SpanRecorder spans(options.trace);
  SpanRecorder no_spans(false);
  const Inputs inputs = MakeInputs(spec, options.seed);

  const double open_s = 0.4 * options.seconds;
  const double closed_s = 0.4 * options.seconds;
  result.Stamp("workload", spec.name);
  result.Stamp("seed", std::to_string(options.seed));
  result.Stamp("corpus", std::to_string(spec.corpus_size) + " " +
                             (spec.kind == data::SyntheticKind::kPortoLike
                                  ? "porto-like"
                                  : "geolife-like") +
                             " trajectories of " +
                             std::to_string(spec.min_length) + "-" +
                             std::to_string(spec.max_length) + " points");
  result.Stamp("query_pool", static_cast<double>(kQueryPool));
  result.Stamp("model", spec.with_model
                            ? "TMN-NM hidden_dim=" + std::to_string(kModelHidden) +
                                  " seed=" + std::to_string(kModelSeed) +
                                  " via SaveTmnModel/CreateFromFile"
                            : std::string("none (model-down path)"));
  result.Stamp("server", "default ServerConfig, DTW, k=10, SubmitTopK");
  result.Stamp("rounds", std::to_string(kRounds) + " x (open loop: " +
                             FormatNumber(spec.open_rate_qps) +
                             " queries/s Poisson, 1 generator, " +
                             FormatNumber(open_s / kRounds) +
                             " s; closed loop: " + std::to_string(kInFlight) +
                             " in flight from " +
                             std::to_string(kClosedClients) + " clients, " +
                             FormatNumber(closed_s / kRounds) + " s)");
  result.Stamp("setup_repeats", static_cast<double>(kServeSetupRepeats));

  const std::string model_path = options.work_dir + "/model.tmn";
  if (spec.with_model) {
    core::TmnModelConfig mc;
    mc.hidden_dim = kModelHidden;
    mc.use_matching = false;
    mc.seed = kModelSeed;
    const common::Status saved =
        core::SaveTmnModel(model_path, core::TmnModel(mc));
    if (!saved.ok()) {
      result.Fail("SaveTmnModel: " + saved.ToString());
      return result;
    }
  }

  // Set up kServeSetupRepeats times; serve from the last server.
  std::vector<double> setup_times;
  std::unique_ptr<serve::SimilarityServer> server;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    server.reset();
    double seconds = 0.0;
    auto created = CreateServer(spec, inputs.corpus, model_path, &seconds);
    if (!created.ok()) {
      result.Fail("server creation: " + created.status().ToString());
      return result;
    }
    server = std::move(created.value());
    setup_times.push_back(seconds);
  }
  if (spec.with_model != server->embedding_tier_available()) {
    result.Fail("embedding tier availability: " +
                server->model_status().ToString());
    return result;
  }

  AnswerLog log(spec, options.seed, inputs.corpus.size(), &result);
  // Warm-up (not measured): pool threads, arenas, caches.
  ClosedLoopPhase(*server, inputs, options.seed, 1ULL << 40, kWarmupSeconds,
                  &log);

  RegistryDelta phases;
  phases.before = RegistrySnapshot::Take();
  const Rounds rounds = RunRounds(
      kRounds, options.seed, spec.open_rate_qps, open_s, closed_s,
      [&](const std::vector<double>& schedule, int r) {
        return OpenLoopPhase(*server, inputs, options.seed,
                             static_cast<uint64_t>(r) << 24, schedule, &log,
                             &no_spans);
      },
      [&](double seconds, int r) {
        return ClosedLoopPhase(*server, inputs, options.seed,
                               (1ULL << 32) + (static_cast<uint64_t>(r) << 24),
                               seconds, &log);
      });
  phases.after = RegistrySnapshot::Take();
  const LoopStats& open = rounds.open;

  // Bitwise checks of the sampled answers against the metric and TopK.
  std::unique_ptr<dist::DistanceMetric> metric = Dtw();
  for (const auto& [p, answer] : log.sampled_) {
    ++result.attempted;
    const geo::Trajectory& query = inputs.pool[p];
    bool ok = true;
    for (size_t i = 0; i < answer.indices.size(); ++i) {
      ok = ok && SameBits(answer.distances[i],
                          metric->Compute(query, inputs.corpus[answer.indices[i]]));
    }
    if (!ok) result.Fail("distance differs from DTW Compute, pool query " +
                         std::to_string(p));
    Answer serial = server->TopK(query, kTopK);
    if (!serial.ok() || !SameAnswer(serial.value(), answer)) {
      result.Fail("SubmitTopK answer differs from serial TopK, pool query " +
                  std::to_string(p));
    }
  }

  // recall@10 against brute-force DTW on the seeded sample.
  const std::vector<std::vector<uint64_t>> truth =
      ExactTruth(inputs, spec.recall_queries);
  double recall = 0.0;
  for (size_t q = 0; q < spec.recall_queries; ++q) {
    Answer got = server->TopK(inputs.pool[q], kTopK);
    ++result.attempted;
    if (!got.ok()) {
      result.Fail("recall query: " + got.status().ToString());
      continue;
    }
    const std::string error = CheckAnswer(spec, got.value(), inputs.corpus.size());
    if (!error.empty()) result.Fail("recall query: " + error);
    const std::vector<uint64_t> ids(got.value().indices.begin(),
                                    got.value().indices.end());
    recall += RecallAtK(truth[q], ids, kTopK);
  }
  recall /= static_cast<double>(spec.recall_queries);

  if (!TailSupported(open.latency_s.size(), 0.99)) {
    result.Fail("open loop has " + std::to_string(open.latency_s.size()) +
                " samples, too few for a p99");
  }
  const double peak_qps = rounds.peak_per_s();
  const double setup_s = Median(setup_times);

  result.metrics = {{"setup_s", setup_s, "s"},
                    {"query_p50_ms", rounds.p50_ms(), "ms"},
                    {"peak_qps", peak_qps, "queries/s"},
                    {"recall_at_k", recall, "fraction"},
                    {"ops_per_s", peak_qps, "1/s"}};
  result.report = result.metrics;
  result.report.push_back({"query_p99_ms", rounds.p99_ms(), "ms"});
  result.report.push_back({"query_samples",
                           static_cast<double>(open.latency_s.size()), "count"});
  result.report.push_back({"open_attempted",
                           static_cast<double>(open.attempted), "count"});
  result.report.push_back({"closed_attempted",
                           static_cast<double>(rounds.closed.attempted),
                           "count"});

  if (options.trace) {
    std::vector<Metric>& L = result.layers;
    L.push_back({"bench.query_p99_ms", rounds.p99_ms(), ""});
    const double occupancy = phases.Mean("tmn.serve.batch.occupancy");
    L.push_back({"serve.batch_size_mean", occupancy, ""});
    L.push_back({"serve.batch_wait_ms_mean",
                 1e3 * phases.Mean("tmn.serve.batch.formation_seconds"), ""});
    const double flushes = phases.Counter("tmn.serve.batch.flush_size") +
                           phases.Counter("tmn.serve.batch.flush_deadline") +
                           phases.Counter("tmn.serve.batch.flush_drain");
    L.push_back({"serve.flush_linger_frac",
                 flushes > 0 ? phases.Counter("tmn.serve.batch.flush_deadline") /
                                   flushes
                             : 0.0,
                 ""});
    const double accepted = phases.Counter("tmn.serve.accepted");
    const double expected = phases.Counter(
        spec.with_model ? "tmn.serve.tier1_served" : "tmn.serve.tier2_served");
    L.push_back({"serve.tier_expected_frac",
                 accepted > 0 ? expected / accepted : 0.0, ""});
    L.push_back({"common.pool_wait_ms_mean",
                 1e3 * phases.Mean("tmn.common.pool.task_wait_seconds"), ""});
    const double steps = phases.Counter("tmn.nn.batched_lstm.steps");
    L.push_back({"nn.padded_step_frac",
                 steps > 0 ? phases.Counter("tmn.nn.batched_lstm.padded_steps") /
                                 steps
                           : 0.0,
                 ""});
    L.push_back({"bench.gen_late_ms_p99",
                 1e3 * Percentile(open.lateness_s, 0.99), ""});

    // An open loop as long as all the rounds', traced: the tracing
    // overhead on the median.
    const LoopStats traced = OpenLoopPhase(
        *server, inputs, options.seed, 1ULL << 36,
        ArrivalSchedule(options.seed, spec.open_rate_qps, open_s), &log,
        &spans);
    L.push_back({"bench.trace_overhead_frac",
                 Percentile(traced.latency_s, 0.5) /
                         Percentile(open.latency_s, 0.5) -
                     1.0,
                 ""});

    std::unique_ptr<core::TmnModel> model;
    if (spec.with_model) {
      auto loaded = core::LoadTmnModel(model_path);
      if (!loaded.ok()) {
        result.Fail("LoadTmnModel: " + loaded.status().ToString());
        return result;
      }
      model = std::move(loaded.value());
    }
    ReplayLayers(spec, inputs, *server, model.get(), occupancy, &spans,
                 &result, &L);
    const std::string path = options.work_dir + "/spans.json";
    if (!spans.WriteJson(path)) result.Fail("cannot write " + path);
  }
  return result;
}

}  // namespace

WorkloadResult RunServeEmbed(const RunOptions& options) {
  return RunServe(kServeEmbed, options);
}

WorkloadResult RunServeExact(const RunOptions& options) {
  return RunServe(kServeExact, options);
}

}  // namespace tmn::perfbench
