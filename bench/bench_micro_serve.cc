// Measures the online serving path (src/serve): per-query top-k latency
// at each tier of the degradation ladder — embedding-ann (TMN-NM encode +
// HNSW), exact-rerank (sketch index + exact metric) and exact-brute-force
// — plus the deterministic shed rate of an over-capacity burst.
//
// The tiers are exercised by construction, not by fault injection: the
// lower-tier servers are built without a model (and, for tier 3, with
// ServerConfig::enable_rerank_tier off), so this bench runs in any
// build. Latency quantiles are machine-dependent (unstable, warn-only in
// bench_compare); the served / shed counts and the tier each server
// answers from are part of the serving contract and gate as stable
// metrics.
//
// Emits a RunReport (schema tmn.run_report/1). The committed baseline
// lives at bench/baselines/BENCH_serve.json; CI regenerates the report
// and gates with tools/bench_compare.
//
// Usage: bench_micro_serve [output.json]   (default: BENCH_serve.json)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/thread_pool.h"
#include "core/tmn_model.h"
#include "data/synthetic.h"
#include "distance/metric.h"
#include "eval/embedding_search.h"
#include "geo/preprocess.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/similarity_server.h"

namespace {

constexpr int kCorpusSize = 256;
constexpr uint64_t kCorpusSeed = 4242;
constexpr size_t kQueries = 48;
constexpr size_t kTopK = 10;
constexpr size_t kBurstCapacity = 16;
constexpr size_t kMicroBatchSize = 8;
constexpr int kSubmitters = 4;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(std::lround(pos))];
}

struct TierRun {
  const char* label;        // Gauge suffix: tier1 / tier2 / tier3.
  tmn::serve::ServeTier expected_tier;
  size_t served = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  std::printf("TMN reproduction — micro-benchmark: online serving\n");

  auto raw = tmn::data::GeneratePortoLike(kCorpusSize, kCorpusSeed);
  const auto trajs = tmn::geo::NormalizeTrajectories(
      raw, tmn::geo::ComputeNormalization(raw));
  const std::vector<tmn::geo::Trajectory> queries(trajs.begin(),
                                                  trajs.begin() + kQueries);

  // An untrained TMN-NM encoder: serving latency does not depend on the
  // weights, and a fixed seed keeps the embeddings (and therefore the
  // HNSW graph) bitwise reproducible.
  tmn::core::TmnModelConfig model_config;
  model_config.hidden_dim = 16;
  model_config.use_matching = false;
  model_config.seed = 9;

  std::vector<TierRun> runs = {
      {"tier1", tmn::serve::ServeTier::kEmbeddingAnn},
      {"tier2", tmn::serve::ServeTier::kExactRerank},
      {"tier3", tmn::serve::ServeTier::kExactBruteForce},
  };
  for (TierRun& run : runs) {
    tmn::serve::ServerConfig config;
    config.enable_rerank_tier =
        run.expected_tier != tmn::serve::ServeTier::kExactBruteForce;
    auto server_or = tmn::serve::SimilarityServer::Create(
        config, trajs, tmn::dist::CreateMetric(tmn::dist::MetricType::kHausdorff),
        run.expected_tier == tmn::serve::ServeTier::kEmbeddingAnn
            ? std::make_unique<tmn::core::TmnModel>(model_config)
            : nullptr);
    if (!server_or.ok()) {
      std::fprintf(stderr, "server construction failed: %s\n",
                   server_or.status().ToString().c_str());
      return 1;
    }
    const auto& server = *server_or.value();

    std::vector<double> latencies;
    latencies.reserve(kQueries);
    for (size_t q = 0; q < kQueries; ++q) {
      const double start = tmn::obs::MonotonicSeconds();
      const auto response = server.TopK(queries[q], kTopK);
      const double elapsed = tmn::obs::MonotonicSeconds() - start;
      if (response.ok() && response.value().tier == run.expected_tier) {
        ++run.served;
        latencies.push_back(1e6 * elapsed);
      }
    }
    run.p50_us = Percentile(latencies, 0.50);
    run.p99_us = Percentile(latencies, 0.99);
  }

  // Over-capacity burst through SubmitTopK on a server whose batcher
  // cannot flush before destruction: every admitted query stays parked on
  // its admission slot, so exactly the first kBurstCapacity queries are
  // admitted and the rest shed. Destruction drains the admitted ones.
  tmn::serve::ServerConfig burst_config;
  burst_config.queue_capacity = kBurstCapacity;
  burst_config.batching.max_batch_size = kQueries + 1;
  burst_config.batching.max_linger_seconds = 1000.0;
  burst_config.batching.flush_slack_seconds = 0.0;
  auto burst_or = tmn::serve::SimilarityServer::Create(
      burst_config, trajs,
      tmn::dist::CreateMetric(tmn::dist::MetricType::kHausdorff),
      std::make_unique<tmn::core::TmnModel>(model_config));
  if (!burst_or.ok()) {
    std::fprintf(stderr, "burst server construction failed: %s\n",
                 burst_or.status().ToString().c_str());
    return 1;
  }
  std::vector<std::future<tmn::common::StatusOr<tmn::serve::QueryResult>>>
      burst;
  size_t burst_shed = 0;
  for (const auto& query : queries) {
    auto submitted = burst_or.value()->SubmitTopK(query, kTopK);
    if (submitted.ok()) {
      burst.push_back(std::move(submitted.value()));
    } else if (submitted.status().code() ==
               tmn::common::StatusCode::kResourceExhausted) {
      ++burst_shed;
    }
  }
  burst_or.value().reset();
  size_t burst_served = 0;
  for (auto& future : burst) {
    if (future.get().ok()) ++burst_served;
  }
  const double shed_rate =
      static_cast<double>(burst_shed) / static_cast<double>(kQueries);

  // Micro-batched burst (SubmitTopK) vs the serial path on one server:
  // the same kQueries arriving at once, answered serially one at a time
  // and then through the batch-formation pipeline. Latency for a query in
  // a burst is measured from burst start to its completion (so the serial
  // numbers include the queue wait the burst implies), and the batched
  // responses are checked bit-identical to the serial ones.
  tmn::serve::ServerConfig mb_config;
  mb_config.batching.max_batch_size = kMicroBatchSize;
  tmn::core::TmnModelConfig mb_model_config = model_config;
  mb_model_config.hidden_dim = 128;
  auto mb_or = tmn::serve::SimilarityServer::Create(
      mb_config, trajs,
      tmn::dist::CreateMetric(tmn::dist::MetricType::kHausdorff),
      std::make_unique<tmn::core::TmnModel>(mb_model_config));
  if (!mb_or.ok()) {
    std::fprintf(stderr, "batching server construction failed: %s\n",
                 mb_or.status().ToString().c_str());
    return 1;
  }
  const auto& mb = *mb_or.value();

  // Deterministic arena warmup: runtime batch composition is timing-
  // dependent, and the kernels arena high-water gauge is a stable
  // process-wide max. One maximal batch (kMicroBatchSize copies of the
  // longest query) dominates every batch the burst can form, pinning the
  // high water to the same value on every run.
  {
    const tmn::geo::Trajectory* longest = &queries[0];
    for (const auto& q : queries) {
      if (q.size() > longest->size()) longest = &q;
    }
    tmn::core::TmnModel warm_model(mb_model_config);
    std::vector<tmn::eval::BatchEncodeRequest> warm(kMicroBatchSize);
    for (auto& r : warm) r.trajectory = longest;
    const auto warm_out = tmn::eval::EncodeTrajectoriesBatched(warm_model, warm);
    for (const auto& r : warm_out) {
      if (!r.ok()) {
        std::fprintf(stderr, "arena warmup encode failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
  }

  std::vector<tmn::common::StatusOr<tmn::serve::QueryResult>> serial_results;
  serial_results.reserve(kQueries);
  std::vector<double> serial_lat_us;
  const double serial_start = tmn::obs::MonotonicSeconds();
  for (size_t q = 0; q < kQueries; ++q) {
    serial_results.push_back(mb.TopK(queries[q], kTopK));
    serial_lat_us.push_back(1e6 *
                            (tmn::obs::MonotonicSeconds() - serial_start));
  }
  const double serial_wall = tmn::obs::MonotonicSeconds() - serial_start;

  std::vector<std::optional<std::future<
      tmn::common::StatusOr<tmn::serve::QueryResult>>>>
      futures(kQueries);
  const double batch_start = tmn::obs::MonotonicSeconds();
  tmn::common::ParallelFor(
      0, kQueries,
      [&](size_t i) {
        auto submitted = mb.SubmitTopK(queries[i], kTopK);
        if (submitted.ok()) futures[i] = std::move(submitted.value());
      },
      kSubmitters);
  std::vector<tmn::common::StatusOr<tmn::serve::QueryResult>> batched_results;
  batched_results.reserve(kQueries);
  std::vector<double> batched_lat_us;
  for (size_t i = 0; i < kQueries; ++i) {
    if (!futures[i].has_value()) {
      std::fprintf(stderr, "burst submit %zu was shed\n", i);
      return 1;
    }
    batched_results.push_back(futures[i]->get());
    batched_lat_us.push_back(1e6 *
                             (tmn::obs::MonotonicSeconds() - batch_start));
  }
  const double batch_wall = tmn::obs::MonotonicSeconds() - batch_start;

  size_t batch_served = 0;
  bool identical = true;
  for (size_t i = 0; i < kQueries; ++i) {
    const auto& s = serial_results[i];
    const auto& b = batched_results[i];
    if (!s.ok() || !b.ok()) {
      identical = identical && !s.ok() && !b.ok() &&
                  s.status().code() == b.status().code();
      continue;
    }
    ++batch_served;
    identical = identical && s.value().tier == b.value().tier &&
                s.value().indices == b.value().indices &&
                s.value().distances.size() == b.value().distances.size() &&
                (s.value().distances.empty() ||
                 std::memcmp(s.value().distances.data(),
                             b.value().distances.data(),
                             s.value().distances.size() * sizeof(double)) == 0);
  }
  const double speedup = batch_wall > 0.0 ? serial_wall / batch_wall : 0.0;
  const double serial_p99 = Percentile(serial_lat_us, 0.99);
  const double batched_p99 = Percentile(batched_lat_us, 0.99);

  tmn::bench::PrintTableHeader("Top-" + std::to_string(kTopK) +
                                   " serving latency by tier",
                               {"served", "p50 (us)", "p99 (us)"});
  for (const TierRun& run : runs) {
    tmn::bench::PrintRow(std::string(run.label) + " (" +
                             tmn::serve::ServeTierName(run.expected_tier) +
                             ")",
                         {static_cast<double>(run.served), run.p50_us,
                          run.p99_us});
  }
  std::printf("burst of %zu over capacity %zu: %zu served, %zu shed "
              "(shed rate %.3f)\n",
              kQueries, kBurstCapacity, burst_served, burst_shed, shed_rate);
  std::printf("micro-batch burst of %zu (batch<=%zu, %d submitters): "
              "serial %.1f ms vs batched %.1f ms — %.2fx throughput; "
              "burst p99 %.0f us vs %.0f us; responses %s\n",
              kQueries, kMicroBatchSize, kSubmitters, 1e3 * serial_wall,
              1e3 * batch_wall, speedup, serial_p99, batched_p99,
              identical ? "bit-identical" : "DIVERGED");

  // Served/shed counts are part of the serving contract: stable, gated.
  // Latency quantiles are machine-dependent: unstable, warn-only.
  auto& reg = tmn::obs::Registry::Global();
  for (const TierRun& run : runs) {
    const std::string prefix = std::string("bench.serve.") + run.label;
    reg.GetGauge(prefix + ".served").Set(static_cast<double>(run.served));
    reg.GetGauge(prefix + ".p50_us", tmn::obs::Stability::kUnstable)
        .Set(run.p50_us);
    reg.GetGauge(prefix + ".p99_us", tmn::obs::Stability::kUnstable)
        .Set(run.p99_us);
  }
  reg.GetGauge("bench.serve.burst.served")
      .Set(static_cast<double>(burst_served));
  reg.GetGauge("bench.serve.burst.shed").Set(static_cast<double>(burst_shed));
  reg.GetGauge("bench.serve.burst.shed_rate").Set(shed_rate);
  // Bitwise identity between the batched and serial responses is the
  // micro-batching contract: stable, hard-gated. Wall clocks, speedup and
  // quantiles are machine-dependent: unstable, warn-only.
  reg.GetGauge("bench.serve.batch.identical").Set(identical ? 1.0 : 0.0);
  reg.GetGauge("bench.serve.batch.served")
      .Set(static_cast<double>(batch_served));
  reg.GetGauge("bench.serve.batch.speedup", tmn::obs::Stability::kUnstable)
      .Set(speedup);
  reg.GetGauge("bench.serve.batch.serial_wall_ms",
               tmn::obs::Stability::kUnstable)
      .Set(1e3 * serial_wall);
  reg.GetGauge("bench.serve.batch.batched_wall_ms",
               tmn::obs::Stability::kUnstable)
      .Set(1e3 * batch_wall);
  reg.GetGauge("bench.serve.batch.serial_p99_us",
               tmn::obs::Stability::kUnstable)
      .Set(serial_p99);
  reg.GetGauge("bench.serve.batch.batched_p99_us",
               tmn::obs::Stability::kUnstable)
      .Set(batched_p99);

  const std::map<std::string, std::string> config = {
      {"corpus", std::to_string(kCorpusSize)},
      {"corpus_seed", std::to_string(kCorpusSeed)},
      {"queries", std::to_string(kQueries)},
      {"k", std::to_string(kTopK)},
      {"burst_capacity", std::to_string(kBurstCapacity)},
      {"micro_batch_size", std::to_string(kMicroBatchSize)},
      {"submitters", std::to_string(kSubmitters)},
  };
  const bool all_served =
      std::all_of(runs.begin(), runs.end(),
                  [](const TierRun& r) { return r.served == kQueries; });
  const bool wrote =
      tmn::bench::WriteRunReport("micro_serve", out_path, config);
  return all_served && burst_served == kBurstCapacity && identical &&
                 batch_served == kQueries && wrote
             ? 0
             : 1;
}
