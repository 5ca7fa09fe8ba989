// Tests of the benchmark's own measurement rules (src/bench_util.h).
#include "bench_util.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/clock.h"

namespace tmn::perfbench {
namespace {

TEST(PercentileTest, NearestRankOnOneToHundred) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // Unsorted input.
  EXPECT_EQ(Percentile(v, 0.50), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.00), 100.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
}

TEST(PercentileTest, SamplesBeyondAndTheTenSampleRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
  // A p99 needs 1000 samples; a p50 needs 20.
  EXPECT_TRUE(TailSupported(1000, 0.99));
  EXPECT_FALSE(TailSupported(999, 0.99));
  EXPECT_TRUE(TailSupported(20, 0.50));
  EXPECT_FALSE(TailSupported(19, 0.50));
}

TEST(ArrivalScheduleTest, SameSeedSameScheduleOtherSeedOtherSchedule) {
  const auto a = ArrivalSchedule(7, 1000.0, 2.0);
  const auto b = ArrivalSchedule(7, 1000.0, 2.0);
  const auto c = ArrivalSchedule(8, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ArrivalScheduleTest, IncreasingWithinDurationAtTheOfferedRate) {
  const auto s = ArrivalSchedule(3, 2000.0, 5.0);
  ASSERT_FALSE(s.empty());
  for (size_t i = 1; i < s.size(); ++i) EXPECT_GT(s[i], s[i - 1]);
  EXPECT_GT(s.front(), 0.0);
  EXPECT_LT(s.back(), 5.0);
  // 10000 expected arrivals; Poisson sd = 100.
  EXPECT_NEAR(static_cast<double>(s.size()), 10000.0, 500.0);
  EXPECT_TRUE(ArrivalSchedule(3, 0.0, 5.0).empty());
}

TEST(RecallTest, HandMadeCase) {
  const std::vector<uint64_t> truth = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RecallAtK(truth, {4, 3, 2, 1}, 4), 1.0);  // Order-free.
  EXPECT_DOUBLE_EQ(RecallAtK(truth, {1, 9, 3, 8}, 4), 0.5);
  // Only the first k of each list count.
  EXPECT_DOUBLE_EQ(RecallAtK(truth, {9, 1, 2, 3}, 2), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(truth, {}, 4), 0.0);
  // Fewer true neighbours than k: the denominator shrinks.
  EXPECT_DOUBLE_EQ(RecallAtK({5}, {5, 6, 7}, 3), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK({}, {1}, 3), 1.0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfDirectChildren) {
  SpanRecorder r(true);
  const int64_t root = r.Add("root", 0.0, 10.0, -1, 1);
  const int64_t a = r.Add("a", 1.0, 4.0, root, 1);
  r.Add("b", 3.0, 6.0, root, 1);        // Overlaps a: union is [1, 6].
  r.Add("a.child", 2.0, 3.0, a, 1);     // Grandchild: only a's concern.
  r.Add("late", 9.0, 12.0, root, 1);    // Clipped to the parent: [9, 10].
  const std::vector<Span> spans = r.spans();
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(SumSelfTime(spans, self, "a"), 2.0);
}

TEST(SpanTest, DisabledRecorderRecordsNothing) {
  SpanRecorder r(false);
  EXPECT_EQ(r.Open("x", 0.0, -1, 0), -1);
  r.Close(-1, 1.0);
  EXPECT_TRUE(r.spans().empty());
}

TEST(LatenessTest, EarlyIsOnTimeLateIsTheDifference) {
  EXPECT_EQ(LatenessSeconds(5.0, 4.0), 0.0);
  EXPECT_EQ(LatenessSeconds(5.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(LatenessSeconds(5.0, 5.25), 0.25);
}

TEST(LatenessTest, OpenLoopChargesAStallToTheOpsItDelays) {
  // Three ops due at 0, 10 and 20 ms; the first takes 50 ms. The second
  // and third are sent late, and their latency runs from their due time.
  const std::vector<double> schedule = {0.0, 0.010, 0.020};
  const LoopStats s = RunOpenLoop(schedule, [](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return true;
  });
  ASSERT_EQ(s.lateness_s.size(), 3u);
  ASSERT_EQ(s.latency_s.size(), 3u);
  EXPECT_LT(s.lateness_s[0], 0.02);
  EXPECT_GT(s.lateness_s[1], 0.035);
  EXPECT_GT(s.lateness_s[2], 0.025);
  EXPECT_GT(s.latency_s[1], 0.035);
  EXPECT_EQ(s.attempted, 3u);
  EXPECT_EQ(s.failed, 0u);
}

TEST(LoopTest, FailedOpsCountButHaveNoLatency) {
  const LoopStats s =
      RunOpenLoop({0.0, 0.0, 0.0}, [](size_t i) { return i != 1; });
  EXPECT_EQ(s.attempted, 3u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.latency_s.size(), 2u);
}

TEST(SummaryTest, WindowRatesCountWholeWindowsOnly) {
  // Completions at 0.1, 0.2, 0.6 s and one past the 1.0 s phase end.
  const auto rates = WindowRates({0.1, 0.2, 0.6, 1.2}, 1.0, 0.5);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 4.0);
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
}

TEST(SummaryTest, SampledWindowRatesReadACountAtWindowBoundaries) {
  // A count growing at 1000/s, sampled in 0.1 s windows while fn runs
  // 0.45 s: four whole windows (a late wake-up may lose the last), each
  // at the count's rate; the partial fifth window is dropped.
  const double start = obs::MonotonicSeconds();
  const auto rates = SampledWindowRates(
      [&] { return 1000.0 * (obs::MonotonicSeconds() - start); }, 0.1,
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(450)); });
  ASSERT_GE(rates.size(), 3u);
  ASSERT_LE(rates.size(), 4u);
  for (double r : rates) EXPECT_NEAR(r, 1000.0, 50.0);
}

TEST(SummaryTest, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({5.0}, 0.5), 5.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(SummaryTest, WindowedPercentileIgnoresOneStalledRun) {
  // Three runs of 1000 samples; the middle one has a 1% stall at 50.
  std::vector<double> latency;
  std::vector<double> done_at;
  for (int i = 0; i < 3000; ++i) {
    const bool stalled = i >= 1000 && i < 1020;
    latency.push_back(stalled ? 50.0 : 1.0 + (i % 100) * 0.01);
    done_at.push_back(i);
  }
  // Per-run p99: 1.98, 50, 1.98 -> median 1.98.
  EXPECT_DOUBLE_EQ(WindowedPercentile(latency, done_at, 0.99, 1000), 1.98);
  // Fewer than two runs: the plain percentile.
  latency.resize(1500);
  done_at.resize(1500);
  EXPECT_DOUBLE_EQ(WindowedPercentile(latency, done_at, 0.99, 1000),
                   Percentile(latency, 0.99));
}

TEST(SummaryTest, RoundsInterleaveAndMergeThePhases) {
  std::vector<int> order;
  const Rounds r = RunRounds(
      2, 7, 1000.0, 0.02, 0.02,
      [&](const std::vector<double>& schedule, int round) {
        order.push_back(2 * round);
        LoopStats s;
        s.latency_s.assign(schedule.size(), 0.001);
        s.done_at_s.assign(schedule.size(), 0.005);
        s.elapsed_s = 0.01;
        return s;
      },
      [&](double seconds, int round) {
        order.push_back(2 * round + 1);
        EXPECT_DOUBLE_EQ(seconds, 0.01);
        LoopStats s;
        s.elapsed_s = seconds;
        return s;
      });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // The second round's completions are shifted past the first round's.
  ASSERT_FALSE(r.open.done_at_s.empty());
  EXPECT_DOUBLE_EQ(r.open.done_at_s.back(), 0.015);
  EXPECT_DOUBLE_EQ(r.p50_ms(), 1.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

}  // namespace
}  // namespace tmn::perfbench
