// ingest_search: writes beside reads on one SegmentedIndex. Two
// closed-loop appenders, one open-loop searcher and the background
// Compactor share the index's reader/writer lock. See ../README.md.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/synthetic.h"
#include "geo/preprocess.h"
#include "index/segmented/compactor.h"
#include "index/segmented/segmented_index.h"
#include "nn/rng.h"
#include "obs/clock.h"
#include "serve/similarity_server.h"
#include "workloads.h"

namespace tmn::perfbench {
namespace {

using obs::MonotonicSeconds;
namespace fs = std::filesystem;

constexpr size_t kSketchPoints = 8;        // dim = 16.
constexpr size_t kDim = 2 * kSketchPoints;
constexpr size_t kPreload = 16384;
constexpr size_t kFreshPool = 8192;        // Base trajectories of appends.
constexpr size_t kQueryPool = 512;
constexpr size_t kTopK = 32;
constexpr int kAppenders = 2;
// One closed-loop searcher: each search already fans out over the whole
// pool, so a second one only oversubscribes the CPUs.
constexpr int kClosedSearchers = 1;
// Fixed ingest volume: round(kAppendsPerSecond * --seconds) appends, so
// the index ends the same size however fast ingest runs.
constexpr double kAppendsPerSecond = 4000.0;
constexpr double kSearchRateQps = 300.0;   // During ingest (load).
constexpr double kQueryRateQps = 400.0;    // Frozen rate, post-ingest.
constexpr int kIngestSetupRepeats = 25;    // Set-up is short; take more.
constexpr size_t kRecallQueries = 64;
constexpr size_t kRecordBytes = sizeof(uint64_t) + kDim * sizeof(float);
constexpr double kQueryShare = 0.4;        // Of --seconds: open-loop search.
// Of --seconds: peak search; whole rate windows per round at the usual
// run length.
constexpr double kPeakShare = 0.25;
constexpr int kRounds = 10;  // Open/closed slices the search time is cut into.
constexpr double kSettleTimeoutSeconds = 30.0;

using Vec = std::vector<float>;

struct Inputs {
  std::vector<Vec> preload;
  std::vector<Vec> fresh_base;
  std::vector<Vec> queries;
  uint64_t seed;

  // The i-th appended vector: a fresh-pool sketch plus seeded jitter, so
  // every append is a new vector.
  Vec Fresh(uint64_t i) const {
    Vec v = fresh_base[i % fresh_base.size()];
    nn::Rng rng(Mix(seed, i));
    for (float& x : v) x += static_cast<float>(1e-3 * rng.Normal());
    return v;
  }
};

Inputs MakeInputs(uint64_t seed) {
  const std::vector<geo::Trajectory> raw = data::GeneratePortoLike(
      static_cast<int>(kPreload + kFreshPool + kQueryPool), seed);
  const std::vector<geo::Trajectory> all =
      geo::NormalizeTrajectories(raw, geo::ComputeNormalization(raw));
  Inputs in;
  in.seed = seed;
  for (size_t i = 0; i < all.size(); ++i) {
    Vec v = serve::SimilarityServer::SketchTrajectory(all[i], kSketchPoints);
    if (i < kPreload) {
      in.preload.push_back(std::move(v));
    } else if (i < kPreload + kFreshPool) {
      in.fresh_base.push_back(std::move(v));
    } else {
      in.queries.push_back(std::move(v));
    }
  }
  return in;
}

// Brute-force top-k by squared Euclidean distance, ties toward the
// smaller id, accumulated exactly as the index scans.
std::vector<std::pair<float, uint64_t>> BruteForce(
    const std::vector<std::pair<uint64_t, Vec>>& records, const Vec& query,
    size_t k) {
  std::priority_queue<std::pair<float, uint64_t>> best;
  for (const auto& [id, v] : records) {
    float dist = 0.0f;
    for (size_t d = 0; d < kDim; ++d) {
      const float delta = v[d] - query[d];
      dist += delta * delta;
    }
    const std::pair<float, uint64_t> scored(dist, id);
    if (best.size() < k) {
      best.push(scored);
    } else if (scored < best.top()) {
      best.pop();
      best.push(scored);
    }
  }
  std::vector<std::pair<float, uint64_t>> out(best.size());
  for (size_t i = best.size(); i > 0; --i) {
    out[i - 1] = best.top();
    best.pop();
  }
  return out;
}

// Non-partial, min(k, size) hits, sorted by (distance, id).
std::string CheckSearch(const index::SegmentedSearchResult& r,
                        size_t index_size) {
  if (r.partial) return "partial search result";
  const size_t want = std::min(kTopK, index_size);
  if (r.ids.size() < want || r.ids.size() != r.distances.size()) {
    return "search returned " + std::to_string(r.ids.size()) + " hits";
  }
  for (size_t i = 1; i < r.ids.size(); ++i) {
    const bool ordered = r.distances[i - 1] < r.distances[i] ||
                         (r.distances[i - 1] == r.distances[i] &&
                          r.ids[i - 1] < r.ids[i]);
    if (!ordered) return "search result not sorted by (distance, id)";
  }
  return "";
}

// Waits, at most kSettleTimeoutSeconds, until a compaction pass that began
// after this call found nothing to merge. The searches after ingest then
// see the index the daemon converges to, not whichever merge happens to
// be publishing.
void WaitForCompactionToSettle(const index::Compactor& compactor) {
  const uint64_t passes_before = compactor.passes();
  const double deadline = MonotonicSeconds() + kSettleTimeoutSeconds;
  while (MonotonicSeconds() < deadline) {
    const std::vector<index::CompactionReport> reports = compactor.reports();
    if (compactor.passes() > passes_before + 1 && !reports.empty() &&
        reports.back().status.ok() && !reports.back().stats.compacted) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// syncfs(2) on the filesystem holding `dir`.
bool SyncFilesystem(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::syncfs(fd) == 0;
  ::close(fd);
  return ok;
}

index::SegmentedIndexOptions IndexOptions() {
  index::SegmentedIndexOptions options;
  options.dim = kDim;  // Default memtable_capacity.
  return options;
}

}  // namespace

WorkloadResult RunIngestSearch(const RunOptions& options) {
  WorkloadResult result;
  SpanRecorder spans(options.trace);
  const Inputs inputs = MakeInputs(options.seed);
  const uint64_t appends =
      static_cast<uint64_t>(std::llround(kAppendsPerSecond * options.seconds));
  const double query_s = kQueryShare * options.seconds;
  const double peak_s = kPeakShare * options.seconds;

  result.Stamp("workload", "ingest_search");
  result.Stamp("seed", std::to_string(options.seed));
  result.Stamp("index", "SegmentedIndex dim=16 SketchTrajectory vectors, "
                        "default memtable_capacity, default Compactor");
  result.Stamp("preload", static_cast<double>(kPreload));
  result.Stamp("ingest", std::to_string(kAppenders) +
                             " closed-loop appenders, " +
                             std::to_string(appends) +
                             " appends in all, beside 1 open-loop "
                             "SearchTopK(k=32) thread at " +
                             FormatNumber(kSearchRateQps) + " queries/s");
  result.Stamp("query", "after ingest, " + std::to_string(kRounds) +
                            " x (1 open-loop SearchTopK(k=32) thread at " +
                            FormatNumber(kQueryRateQps) + " queries/s for " +
                            FormatNumber(query_s / kRounds) + " s; " +
                            std::to_string(kClosedSearchers) +
                            " closed-loop thread for " +
                            FormatNumber(peak_s / kRounds) + " s)");
  result.Stamp("setup_repeats", static_cast<double>(kIngestSetupRepeats));

  // Preload once (not set-up: the benchmark's own input), then recover a
  // fresh copy of that directory in every timed set-up.
  const fs::path root = fs::path(options.work_dir) / "ingest";
  const fs::path templ = root / "preloaded";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  {
    auto opened = index::SegmentedIndex::Open(templ.string(), IndexOptions());
    if (!opened.ok()) {
      result.Fail("preload Open: " + opened.status().ToString());
      return result;
    }
    for (size_t i = 0; i < kPreload; ++i) {
      const common::Status s = opened.value()->Append(i, inputs.preload[i]);
      if (!s.ok()) {
        result.Fail("preload Append: " + s.ToString());
        return result;
      }
    }
  }

  std::vector<double> setup_times;
  std::shared_ptr<index::SegmentedIndex> idx;
  std::unique_ptr<index::Compactor> compactor;
  const RegistrySnapshot run_start = RegistrySnapshot::Take();
  for (int r = 0; r < kIngestSetupRepeats; ++r) {
    if (compactor != nullptr) compactor->Stop();
    compactor.reset();
    idx.reset();
    if (r > 0) fs::remove_all(root / ("live" + std::to_string(r - 1)), ec);
    const fs::path dir = root / ("live" + std::to_string(r));
    fs::copy(templ, dir, fs::copy_options::recursive, ec);
    if (ec) {
      result.Fail("copy preloaded index: " + ec.message());
      return result;
    }
    const double t0 = MonotonicSeconds();
    auto opened = index::SegmentedIndex::Open(dir.string(), IndexOptions());
    if (!opened.ok()) {
      result.Fail("Open: " + opened.status().ToString());
      return result;
    }
    idx = std::move(opened.value());
    compactor = std::make_unique<index::Compactor>(idx.get(),
                                                   index::CompactorOptions{});
    compactor->Start();
    setup_times.push_back(MonotonicSeconds() - t0);
  }
  if (idx->size() != kPreload) {
    result.Fail("recovered " + std::to_string(idx->size()) + " records, want " +
                std::to_string(kPreload));
    return result;
  }
  // Write back what preload and set-up left dirty, so the kernel does not
  // flush it beside the WAL fsyncs of the ingest phase.
  if (!SyncFilesystem(root)) {
    result.Fail("syncfs on " + root.string() + " failed");
    return result;
  }

  // Every acked record, for the brute-force recall truth.
  std::vector<std::pair<uint64_t, Vec>> acked;
  for (size_t i = 0; i < kPreload; ++i) acked.emplace_back(i, inputs.preload[i]);
  std::mutex result_mu;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(result_mu);
    result.Fail(what);
  };

  // ---- Ingest phase: appenders + open-loop searcher + compactor. ------
  const RegistrySnapshot phase_before = RegistrySnapshot::Take();
  std::atomic<uint64_t> next_id{kPreload};
  std::atomic<int> appenders_running{kAppenders};
  std::atomic<bool> ingest_done{false};
  std::vector<std::vector<double>> append_lat(kAppenders);
  std::vector<std::vector<double>> append_done(kAppenders);
  std::vector<std::vector<std::pair<uint64_t, Vec>>> appended(kAppenders);
  std::vector<uint64_t> append_failed(kAppenders, 0);
  std::vector<std::thread> appenders;
  const double ingest_start = MonotonicSeconds();
  for (int a = 0; a < kAppenders; ++a) {
    appenders.emplace_back([&, a] {
      while (true) {
        const uint64_t id = next_id.fetch_add(1);
        if (id >= kPreload + appends) break;
        Vec v = inputs.Fresh(id);
        const double t0 = MonotonicSeconds();
        const common::Status s = idx->Append(id, v);
        const double t1 = MonotonicSeconds();
        if (!s.ok()) {
          ++append_failed[a];
          fail("Append " + std::to_string(id) + ": " + s.ToString());
          continue;
        }
        append_lat[a].push_back(t1 - t0);
        append_done[a].push_back(t1 - ingest_start);
        appended[a].emplace_back(id, std::move(v));
      }
      if (appenders_running.fetch_sub(1) == 1) ingest_done.store(true);
    });
  }
  double sources = 0.0;
  auto search_op = [&](uint64_t salt, size_t i) {
    const Vec& q = inputs.queries[Mix(options.seed ^ salt, i) % kQueryPool];
    auto hits = idx->SearchTopK(q, kTopK);
    if (!hits.ok()) {
      fail("SearchTopK: " + hits.status().ToString());
      return false;
    }
    const std::string error = CheckSearch(hits.value(), kPreload);
    if (!error.empty()) {
      fail(error);
      return false;
    }
    sources += static_cast<double>(hits.value().sources_searched);
    return true;
  };
  // The schedule outlasts any plausible ingest; sending stops with it.
  const LoopStats contended = RunOpenLoop(
      ArrivalSchedule(options.seed, kSearchRateQps, 100.0 * options.seconds),
      [&](size_t i) { return search_op(0, i); }, &ingest_done);
  for (std::thread& t : appenders) t.join();
  const double ingest_elapsed = MonotonicSeconds() - ingest_start;
  const RegistrySnapshot phase_after = RegistrySnapshot::Take();

  std::vector<double> all_append_lat;
  std::vector<double> all_append_done;
  uint64_t appends_failed = 0;
  for (int a = 0; a < kAppenders; ++a) {
    all_append_lat.insert(all_append_lat.end(), append_lat[a].begin(),
                          append_lat[a].end());
    all_append_done.insert(all_append_done.end(), append_done[a].begin(),
                           append_done[a].end());
    acked.insert(acked.end(), appended[a].begin(), appended[a].end());
    appends_failed += append_failed[a];
  }
  result.attempted +=
      contended.attempted + all_append_lat.size() + appends_failed;
  if (idx->size() != acked.size()) {
    result.Fail("index holds " + std::to_string(idx->size()) +
                " records, " + std::to_string(acked.size()) + " were acked");
  }

  // ---- recall@32 on the index after ingest stops. ----------------------
  double recall = 0.0;
  for (size_t q = 0; q < kRecallQueries; ++q) {
    ++result.attempted;
    const Vec& query = inputs.queries[q];
    auto hits = idx->SearchTopK(query, kTopK);
    if (!hits.ok()) {
      result.Fail("recall SearchTopK: " + hits.status().ToString());
      continue;
    }
    const std::string error = CheckSearch(hits.value(), acked.size());
    if (!error.empty()) result.Fail("recall query: " + error);
    const auto truth = BruteForce(acked, query, kTopK);
    std::vector<uint64_t> truth_ids;
    for (const auto& [d, id] : truth) truth_ids.push_back(id);
    recall += RecallAtK(truth_ids, hits.value().ids, kTopK);
  }
  recall /= static_cast<double>(kRecallQueries);

  // ---- Search on the post-ingest index: rounds of a fixed-rate open ----
  // ---- loop and a closed loop. ------------------------------------------
  auto closed_search = [&](size_t i, SpanRecorder* recorder) {
    const Vec& q = inputs.queries[Mix(options.seed ^ 0xc105edULL, i) % kQueryPool];
    const double t0 = MonotonicSeconds();
    auto hits = idx->SearchTopK(q, kTopK);
    recorder->Add("index.search", t0, MonotonicSeconds(), -1, i);
    if (!hits.ok() || !CheckSearch(hits.value(), acked.size()).empty()) {
      fail("closed-loop SearchTopK failed its check");
      return false;
    }
    return true;
  };
  SpanRecorder no_spans(false);
  const double settle_start = MonotonicSeconds();
  WaitForCompactionToSettle(*compactor);
  const double settle_s = MonotonicSeconds() - settle_start;
  const Rounds rounds = RunRounds(
      kRounds, options.seed ^ 0x9e3779b9ULL, kQueryRateQps, query_s, peak_s,
      [&](const std::vector<double>& schedule, int r) {
        return RunOpenLoop(schedule, [&](size_t i) {
          return search_op(0x51ULL + static_cast<uint64_t>(r), i);
        });
      },
      [&](double seconds, int) {
        return RunClosedLoop(kClosedSearchers, seconds, [&](size_t i) {
          return closed_search(i, &no_spans);
        });
      });
  const LoopStats& search = rounds.open;
  result.attempted += rounds.open.attempted + rounds.closed.attempted;

  const double append_rps = Quantile(
      WindowRates(all_append_done, ingest_elapsed, kRateWindowSeconds),
      kRateQuantile);
  const double peak_qps = rounds.peak_per_s();
  if (!TailSupported(search.latency_s.size(), 0.99)) {
    result.Fail("open-loop search has " +
                std::to_string(search.latency_s.size()) +
                " samples, too few for a p99");
  }
  result.metrics = {
      {"setup_s", Median(setup_times), "s"},
      {"query_p50_ms", rounds.p50_ms(), "ms"},
      {"peak_qps", peak_qps, "queries/s"},
      {"recall_at_k", recall, "fraction"},
      // Completed searches, as on the serving workloads: the acked-append
      // rate is fsync-bound, and a shared virtual disk moved it by a
      // quarter between runs, so it is printed and per-layer instead.
      {"ops_per_s", peak_qps, "1/s"},
  };
  result.report = result.metrics;
  result.report.push_back({"query_p99_ms", rounds.p99_ms(), "ms"});
  result.report.push_back({"query_samples",
                           static_cast<double>(search.latency_s.size()), "count"});
  result.report.push_back({"append_rps", append_rps, "appends/s"});
  result.report.push_back(
      {"append_p50_ms", 1e3 * Percentile(all_append_lat, 0.50), "ms"});
  result.report.push_back(
      {"append_p99_ms", 1e3 * Percentile(all_append_lat, 0.99), "ms"});
  result.report.push_back(
      {"ingest_search_p50_ms", 1e3 * Percentile(contended.latency_s, 0.50), "ms"});
  result.report.push_back(
      {"ingest_search_p99_ms", 1e3 * Percentile(contended.latency_s, 0.99), "ms"});
  result.report.push_back({"append_samples",
                           static_cast<double>(all_append_lat.size()), "count"});
  result.report.push_back({"index_records",
                           static_cast<double>(acked.size()), "count"});
  result.report.push_back({"compaction_settle_s", settle_s, "s"});
  result.report.push_back({"segments_after_ingest",
                           static_cast<double>(idx->segment_count()), "count"});

  if (options.trace) {
    RegistryDelta phase{phase_before, phase_after};
    std::vector<Metric>& L = result.layers;
    L.push_back({"bench.query_p99_ms", rounds.p99_ms(), ""});
    L.push_back({"index.append_rps", append_rps, ""});
    L.push_back({"index.append_p50_ms", 1e3 * Percentile(all_append_lat, 0.50), ""});
    L.push_back({"index.append_p99_ms", 1e3 * Percentile(all_append_lat, 0.99), ""});
    L.push_back({"index.search_p99_ingest_ms",
                 1e3 * Percentile(contended.latency_s, 0.99), ""});
    L.push_back({"index.sources_per_query",
                 sources / std::max<double>(1.0, static_cast<double>(
                     contended.latency_s.size() + search.latency_s.size())),
                 ""});
    L.push_back({"common.pool_wait_ms_mean",
                 1e3 * phase.Mean("tmn.common.pool.task_wait_seconds"), ""});
    L.push_back({"bench.gen_late_ms_p99",
                 1e3 * Percentile(contended.lateness_s, 0.99), ""});
    const double appended_bytes =
        static_cast<double>(all_append_lat.size()) * kRecordBytes;
    L.push_back({"index.write_amp",
                 phase.Counter("tmn.index.compact.bytes_rewritten") /
                     appended_bytes,
                 ""});

    // The closed-loop search again, traced: the tracing overhead.
    const LoopStats traced = RunClosedLoop(
        kClosedSearchers, peak_s,
        [&](size_t i) { return closed_search(i, &spans); });
    result.attempted += traced.attempted;
    const double traced_qps = Quantile(
        WindowRates(traced.done_at_s, traced.elapsed_s, kRateWindowSeconds),
        kRateQuantile);
    L.push_back({"bench.trace_overhead_frac", peak_qps / traced_qps - 1.0, ""});

    // One appender, no readers: Append latency; appends that sealed.
    std::vector<double> plain;
    std::vector<double> sealing;
    for (size_t i = 0; i < 4 * IndexOptions().memtable_capacity; ++i) {
      ++result.attempted;
      const uint64_t id = next_id.fetch_add(1);
      const size_t seals_before =
          static_cast<size_t>(RegistrySnapshot::Take().Counter("tmn.index.segment.seals"));
      const double t0 = MonotonicSeconds();
      const common::Status s = idx->Append(id, inputs.Fresh(id));
      const double t1 = MonotonicSeconds();
      spans.Add("index.append", t0, t1, -1, id);
      if (!s.ok()) {
        result.Fail("single-appender Append: " + s.ToString());
        continue;
      }
      const size_t seals_after =
          static_cast<size_t>(RegistrySnapshot::Take().Counter("tmn.index.segment.seals"));
      (seals_after != seals_before ? sealing : plain).push_back(t1 - t0);
    }
    compactor->Stop();
    const RegistrySnapshot run_end = RegistrySnapshot::Take();
    L.push_back({"index.append_us", 1e6 * Median(plain), ""});
    L.push_back({"index.seal_append_ms", 1e3 * Median(sealing), ""});
    L.push_back({"index.compact_passes",
                 run_end.Counter("tmn.index.compact.passes") -
                     run_start.Counter("tmn.index.compact.passes"),
                 ""});

    // One searcher, no writers: SearchTopK latency.
    std::vector<double> lone;
    for (size_t i = 0; i < kQueryPool; ++i) {
      ++result.attempted;
      const double t0 = MonotonicSeconds();
      auto hits = idx->SearchTopK(inputs.queries[i], kTopK);
      const double t1 = MonotonicSeconds();
      spans.Add("index.search", t0, t1, -1, i);
      if (!hits.ok()) result.Fail("single-searcher SearchTopK failed");
      lone.push_back(t1 - t0);
    }
    L.push_back({"index.search_us", 1e6 * Median(lone), ""});
    const std::string path = options.work_dir + "/spans.json";
    if (!spans.WriteJson(path)) result.Fail("cannot write " + path);
  }

  compactor->Stop();
  compactor.reset();
  idx.reset();
  fs::remove_all(root, ec);
  return result;
}

}  // namespace tmn::perfbench
