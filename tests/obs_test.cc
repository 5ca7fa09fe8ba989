// Tests for the observability layer (src/obs/): registry identity and
// reset semantics, histogram bucket boundaries, nested ScopedTimer spans,
// and RunReport JSON determinism across thread counts.
//
// The registry is process-global, so every test uses its own metric name
// prefix; tests that need a clean slate call ResetValues() (which zeroes
// values but keeps registrations).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "index/segmented/compactor.h"
#include "index/segmented/segmented_index.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/scoped_timer.h"

namespace tmn::obs {
namespace {

TEST(RegistryTest, SameNameReturnsSameMetric) {
  auto& a = Registry::Global().GetCounter("test.registry.same");
  auto& b = Registry::Global().GetCounter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(RegistryTest, RegistrationSurvivesResetButValuesDoNot) {
  auto& counter = Registry::Global().GetCounter("test.registry.reset");
  auto& gauge = Registry::Global().GetGauge("test.registry.reset_gauge");
  counter.Increment(7);
  gauge.Set(2.5);
  const size_t size_before = Registry::Global().size();

  Registry::Global().ResetValues();
  EXPECT_EQ(Registry::Global().size(), size_before);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0.0);
  // Same object after reset: instrumentation sites hold references.
  EXPECT_EQ(&Registry::Global().GetCounter("test.registry.reset"), &counter);
}

TEST(RegistryTest, KindMismatchAborts) {
  Registry::Global().GetCounter("test.registry.kind_clash");
  EXPECT_DEATH(Registry::Global().GetGauge("test.registry.kind_clash"),
               "different kind");
}

TEST(RegistryTest, SortedMetricsAreSortedByName) {
  Registry::Global().GetCounter("test.sorted.b");
  Registry::Global().GetCounter("test.sorted.a");
  const auto metrics = Registry::Global().SortedMetrics();
  for (size_t i = 1; i < metrics.size(); ++i) {
    EXPECT_LT(metrics[i - 1]->name(), metrics[i]->name());
  }
}

TEST(GaugeTest, SetAndAdd) {
  auto& gauge = Registry::Global().GetGauge("test.gauge.basic");
  gauge.Set(1.5);
  EXPECT_EQ(gauge.value(), 1.5);
  gauge.Add(0.25);
  EXPECT_EQ(gauge.value(), 1.75);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpper) {
  auto& h = Registry::Global().GetHistogram("test.histogram.bounds",
                                            {1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow.
  h.Observe(0.5);   // <= 1.0       -> bucket 0
  h.Observe(1.0);   // == bound[0]  -> bucket 0 (inclusive upper edge)
  h.Observe(1.5);   // <= 2.0       -> bucket 1
  h.Observe(4.0);   // == bound[2]  -> bucket 2
  h.Observe(100.0); // > last bound -> overflow bucket
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 100.0);
}

TEST(HistogramTest, EmptyHistogramReportsZeroMinMax) {
  auto& h = Registry::Global().GetHistogram("test.histogram.empty", {1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(ClockTest, MonotonicSecondsNeverGoesBackwards) {
  const double t0 = MonotonicSeconds();
  const double t1 = MonotonicSeconds();
  EXPECT_GE(t1, t0);
}

TEST(ScopedTimerTest, NestedSpansJoinWithSlash) {
  EXPECT_EQ(ScopedTimer::CurrentSpanPath(), "");
  {
    ScopedTimer outer("test_outer");
    EXPECT_EQ(ScopedTimer::CurrentSpanPath(), "test_outer");
    {
      ScopedTimer inner("test_inner");
      EXPECT_EQ(ScopedTimer::CurrentSpanPath(), "test_outer/test_inner");
    }
    EXPECT_EQ(ScopedTimer::CurrentSpanPath(), "test_outer");
  }
  EXPECT_EQ(ScopedTimer::CurrentSpanPath(), "");
  // Each span recorded once under its full path.
  EXPECT_EQ(Registry::Global().GetTimer("test_outer").count(), 1u);
  EXPECT_EQ(Registry::Global().GetTimer("test_outer/test_inner").count(),
            1u);
}

TEST(ScopedTimerTest, StopIsIdempotentAndReturnsElapsed) {
  ScopedTimer timer("test_stop_once");
  const double first = timer.Stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(timer.Stop(), first);
  EXPECT_EQ(Registry::Global().GetTimer("test_stop_once").count(), 1u);
}

TEST(ScopedTimerTest, FixedMetricModeSkipsSpanStack) {
  auto& timer = Registry::Global().GetTimer("test.timer.fixed");
  const uint64_t before = timer.count();
  {
    ScopedTimer t(timer);
    EXPECT_EQ(ScopedTimer::CurrentSpanPath(), "");
  }
  EXPECT_EQ(timer.count(), before + 1);
}

// The determinism contract behind the bench_compare gate: for a
// deterministic workload, the stable-only RunReport is bitwise identical
// at any parallelism. Unstable metrics (timers, pool stats) are recorded
// either way but omitted from the stable view.
TEST(RunReportTest, StableJsonIsIdenticalAcrossThreadCounts) {
  constexpr size_t kItems = 64;
  auto run = [](int max_parallelism) {
    Registry::Global().ResetValues();
    auto& processed =
        Registry::Global().GetCounter("test.report.items_processed");
    auto& total = Registry::Global().GetGauge("test.report.total");
    std::atomic<long long> sum{0};
    common::ParallelFor(
        0, kItems,
        [&](size_t i) {
          processed.Increment();
          sum.fetch_add(static_cast<long long>(i * i));
        },
        max_parallelism);
    total.Set(static_cast<double>(sum.load()));
    RunReport report("obs_test");
    report.SetConfig("items", static_cast<long long>(kItems));
    RunReportOptions options;
    options.include_unstable = false;
    return report.ToJson(options);
  };

  const std::string sequential = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(sequential, parallel);
  EXPECT_NE(sequential.find("\"test.report.items_processed\""),
            std::string::npos);
  EXPECT_NE(sequential.find("\"value\": 64"), std::string::npos);
  // Pool metrics exist (ParallelFor ran) but are unstable -> omitted.
  EXPECT_EQ(sequential.find("tmn.common.pool"), std::string::npos);
}

// The tmn.index.segment.* family (docs/INDEXING.md): a small ingest +
// search registers every member, the deterministic members land in the
// bench-gated stable RunReport view, and the wall-clock members stay
// unstable (recorded, but omitted from the stable view).
TEST(RunReportTest, SegmentIndexFamilyHasTheRightStabilitySplit) {
  const std::string dir = ::testing::TempDir() + "/obs_segment_family";
  std::filesystem::remove_all(dir);
  index::SegmentedIndexOptions options;
  options.dim = 2;
  options.memtable_capacity = 2;
  auto index = index::SegmentedIndex::Open(dir, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (uint64_t i = 0; i < 5; ++i) {
    const std::vector<float> v = {static_cast<float>(i), 1.0f};
    ASSERT_TRUE(index.value()->Append(i, v).ok());
  }
  const auto result = index.value()->SearchTopK({0.0f, 1.0f}, 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto& reg = Registry::Global();
  // 5 appends at capacity 2: two seals, one record left in the WAL.
  EXPECT_GE(reg.GetCounter("tmn.index.segment.seals").value(), 2u);
  EXPECT_EQ(reg.GetGauge("tmn.index.segment.count").value(), 2.0);
  EXPECT_GT(reg.GetGauge("tmn.index.segment.wal_bytes").value(), 0.0);
  // One timed scan per source: memtable + two segments.
  EXPECT_GE(reg.GetTimer("tmn.index.segment.search_seconds").count(), 3u);
  // Every completed scan adds its vectors: 1 in the memtable, 2 + 2 sealed.
  EXPECT_GE(reg.GetCounter("tmn.index.segment.vectors_scanned").value(), 5u);

  RunReport report("obs_segment_family");
  RunReportOptions stable_only;
  stable_only.include_unstable = false;
  const std::string stable = report.ToJson(stable_only);
  EXPECT_NE(stable.find("\"tmn.index.segment.seals\""), std::string::npos);
  EXPECT_NE(stable.find("\"tmn.index.segment.count\""), std::string::npos);
  EXPECT_NE(stable.find("\"tmn.index.segment.wal_bytes\""),
            std::string::npos);
  EXPECT_NE(stable.find("\"tmn.index.segment.wal_records_replayed\""),
            std::string::npos);
  EXPECT_NE(stable.find("\"tmn.index.segment.quarantined\""),
            std::string::npos);
  // The same work at any thread count (bench_micro_index repeats it
  // exactly at 1 and 4 threads), so it gates.
  EXPECT_NE(stable.find("\"tmn.index.segment.vectors_scanned\""),
            std::string::npos);
  EXPECT_EQ(stable.find("tmn.index.segment.search_seconds"),
            std::string::npos);
  EXPECT_EQ(stable.find("tmn.index.segment.partial_results"),
            std::string::npos);
  const std::string full = report.ToJson();
  EXPECT_NE(full.find("tmn.index.segment.search_seconds"),
            std::string::npos);
}

// The self-healing counters (wal_repair_retries, rotation_retries,
// gc_retry_failures) and the whole tmn.index.compact.* family depend on
// injected faults and wall-clock daemon scheduling, so they are pinned
// unstable: recorded for operators, omitted from the bench-gated stable
// view — a baseline can never hard-fail on how often the index healed
// itself.
TEST(RunReportTest, SelfHealAndCompactionFamiliesStayUnstable) {
  const std::string dir = ::testing::TempDir() + "/obs_compact_family";
  std::filesystem::remove_all(dir);
  index::SegmentedIndexOptions options;
  options.dim = 2;
  options.memtable_capacity = 2;
  auto index = index::SegmentedIndex::Open(dir, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  for (uint64_t i = 0; i < 4; ++i) {
    const std::vector<float> v = {static_cast<float>(i), 1.0f};
    ASSERT_TRUE(index.value()->Append(i, v).ok());
  }
  // A real merge registers and ticks the what-was-rewritten counters.
  index::CompactionPolicy policy;
  const auto stats = index.value()->CompactOnce(policy);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats.value().compacted);
  // Starting (and immediately stopping) the daemon registers the
  // pass/retry/backoff side of the family.
  {
    index::Compactor compactor(index.value().get(), index::CompactorOptions());
    compactor.Start();
    compactor.Stop();
  }

  auto& reg = Registry::Global();
  EXPECT_GE(reg.GetCounter("tmn.index.compact.segments_merged",
                           Stability::kUnstable)
                .value(),
            2u);
  EXPECT_GT(reg.GetCounter("tmn.index.compact.bytes_rewritten",
                           Stability::kUnstable)
                .value(),
            0u);

  RunReport report("obs_compact_family");
  RunReportOptions stable_only;
  stable_only.include_unstable = false;
  const std::string stable = report.ToJson(stable_only);
  const std::string full = report.ToJson();
  for (const char* name :
       {"tmn.index.segment.wal_repair_retries",
        "tmn.index.segment.rotation_retries",
        "tmn.index.segment.gc_retry_failures",
        "tmn.index.compact.segments_merged",
        "tmn.index.compact.bytes_rewritten", "tmn.index.compact.passes",
        "tmn.index.compact.retries", "tmn.index.compact.backoff_seconds"}) {
    EXPECT_EQ(stable.find(name), std::string::npos) << name;
    EXPECT_NE(full.find(name), std::string::npos) << name;
  }
}

TEST(RunReportTest, JsonCarriesSchemaBuildAndEscapedConfig) {
  RunReport report("obs \"quoted\" name");
  report.SetConfig("path", "a\\b\ttab");
  report.SetConfig("count", static_cast<long long>(3));
  report.SetConfig("ratio", 0.5);
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"schema\": \"tmn.run_report/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"obs \\\"quoted\\\" name\""), std::string::npos);
  EXPECT_NE(json.find("\"a\\\\b\\ttab\""), std::string::npos);
  EXPECT_NE(json.find("\"build\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": \"3\""), std::string::npos);
}

}  // namespace
}  // namespace tmn::obs
