#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "nn/rng.h"
#include "obs/clock.h"
#include "obs/metrics.h"

namespace tmn::perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

bool TailSupported(size_t n, double q, size_t min_beyond) {
  return SamplesBeyond(n, q) >= min_beyond;
}

std::vector<double> ArrivalSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  nn::Rng rng(seed);
  out.reserve(static_cast<size_t>(rate_per_s * duration_s * 1.1) + 16);
  double t = 0.0;
  while (true) {
    // 1 - U is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

double LatenessSeconds(double scheduled, double sent) {
  return std::max(0.0, sent - scheduled);
}

void SleepUntil(double t) {
  // Sleep most of the gap and spin only its end: a spinning generator
  // would take a CPU from the system under test.
  constexpr double kSpinSeconds = 50e-6;
  double now = obs::MonotonicSeconds();
  if (t - now > kSpinSeconds) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(t - now - kSpinSeconds));
  }
  while (obs::MonotonicSeconds() < t) std::this_thread::yield();
}

uint64_t Mix(uint64_t seed, uint64_t x) {
  uint64_t z = seed ^ (x + 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

LoopStats RunOpenLoop(const std::vector<double>& schedule,
                      const std::function<bool(size_t)>& op,
                      const std::atomic<bool>* stop) {
  LoopStats stats;
  const double start = obs::MonotonicSeconds();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const double due = start + schedule[i];
    SleepUntil(due);
    if (stop != nullptr && stop->load()) break;
    stats.lateness_s.push_back(LatenessSeconds(due, obs::MonotonicSeconds()));
    ++stats.attempted;
    const bool ok = op(i);
    const double done = obs::MonotonicSeconds();
    if (ok) {
      stats.latency_s.push_back(done - due);
      stats.done_at_s.push_back(done - start);
    } else {
      ++stats.failed;
    }
  }
  stats.elapsed_s = obs::MonotonicSeconds() - start;
  return stats;
}

LoopStats RunClosedLoop(int clients, double duration_s,
                        const std::function<bool(size_t)>& op) {
  std::atomic<size_t> next{0};
  std::vector<LoopStats> per(static_cast<size_t>(clients));
  const double start = obs::MonotonicSeconds();
  const double stop = start + duration_s;
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        LoopStats& mine = per[static_cast<size_t>(c)];
        while (obs::MonotonicSeconds() < stop) {
          const size_t i = next.fetch_add(1);
          const double t0 = obs::MonotonicSeconds();
          ++mine.attempted;
          const bool ok = op(i);
          const double t1 = obs::MonotonicSeconds();
          if (!ok) {
            ++mine.failed;
          } else if (t1 <= stop) {
            mine.latency_s.push_back(t1 - t0);
            mine.done_at_s.push_back(t1 - start);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
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

std::vector<double> WindowRates(const std::vector<double>& done_at_s,
                                double duration_s, double window_s) {
  const size_t windows = static_cast<size_t>(duration_s / window_s + 1e-9);
  if (windows == 0) {
    return {static_cast<double>(done_at_s.size()) / duration_s};
  }
  std::vector<double> rates(windows, 0.0);
  for (double t : done_at_s) {
    if (t < 0.0) continue;
    const size_t w = static_cast<size_t>(t / window_s);
    if (w < windows) rates[w] += 1.0 / window_s;
  }
  return rates;
}

std::vector<double> SampledWindowRates(const std::function<double()>& read,
                                       double window_s,
                                       const std::function<void()>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::vector<double> rates;
  const double start = obs::MonotonicSeconds();
  const double first = read();
  std::thread sampler([&] {
    double last_t = start;
    double last_v = first;
    std::unique_lock<std::mutex> lock(mu);
    for (int k = 1;; ++k) {
      const auto due = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::duration<double>(
                               start + k * window_s - obs::MonotonicSeconds()));
      if (cv.wait_until(lock, due, [&] { return done; })) return;
      const double t = obs::MonotonicSeconds();
      const double v = read();
      rates.push_back((v - last_v) / (t - last_t));
      last_t = t;
      last_v = v;
    }
  });
  fn();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  sampler.join();
  return rates;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Merge(const LoopStats& from, double offset_s, LoopStats* into) {
  into->latency_s.insert(into->latency_s.end(), from.latency_s.begin(),
                         from.latency_s.end());
  for (double t : from.done_at_s) into->done_at_s.push_back(t + offset_s);
  into->lateness_s.insert(into->lateness_s.end(), from.lateness_s.begin(),
                          from.lateness_s.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->elapsed_s += from.elapsed_s;
}

double WindowedPercentile(const std::vector<double>& latency_s,
                          const std::vector<double>& done_at_s, double q,
                          size_t min_samples) {
  const size_t n = latency_s.size();
  const size_t runs = min_samples == 0 ? 1 : n / min_samples;
  if (runs < 2) return Percentile(latency_s, q);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return done_at_s[a] < done_at_s[b];
  });
  std::vector<double> per_run;
  for (size_t r = 0; r < runs; ++r) {
    const size_t lo = r * min_samples;
    const size_t hi = r + 1 == runs ? n : lo + min_samples;
    std::vector<double> chunk;
    chunk.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) chunk.push_back(latency_s[order[i]]);
    per_run.push_back(Percentile(std::move(chunk), q));
  }
  return Median(per_run);
}

double Rounds::p50_ms() const {
  return 1e3 * WindowedPercentile(open.latency_s, open.done_at_s, 0.50,
                                  kTailWindow);
}

double Rounds::p99_ms() const {
  return 1e3 * WindowedPercentile(open.latency_s, open.done_at_s, 0.99,
                                  kTailWindow);
}

double Rounds::peak_per_s() const {
  return Quantile(closed_rates, kRateQuantile);
}

Rounds RunRounds(
    int rounds, uint64_t seed, double rate_per_s, double open_s,
    double closed_s,
    const std::function<LoopStats(const std::vector<double>& schedule,
                                  int round)>& open_phase,
    const std::function<LoopStats(double seconds, int round)>& closed_phase) {
  Rounds out;
  double offset = 0.0;
  for (int r = 0; r < rounds; ++r) {
    const LoopStats open = open_phase(
        ArrivalSchedule(Mix(seed, static_cast<uint64_t>(r)), rate_per_s,
                        open_s / rounds),
        r);
    Merge(open, offset, &out.open);
    offset += open.elapsed_s;
    const LoopStats closed = closed_phase(closed_s / rounds, r);
    const std::vector<double> rates =
        WindowRates(closed.done_at_s, closed.elapsed_s, kRateWindowSeconds);
    out.closed_rates.insert(out.closed_rates.end(), rates.begin(), rates.end());
    Merge(closed, 0.0, &out.closed);
  }
  return out;
}

double RecallAtK(const std::vector<uint64_t>& truth,
                 const std::vector<uint64_t>& got, size_t k) {
  const size_t t = std::min(k, truth.size());
  if (t == 0) return 1.0;
  const size_t g = std::min(k, got.size());
  size_t hits = 0;
  for (size_t i = 0; i < t; ++i) {
    if (std::find(got.begin(), got.begin() + g, truth[i]) != got.begin() + g) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(t);
}

int64_t SpanRecorder::Add(const std::string& name, double start, double end,
                          int64_t parent, uint64_t query_id) {
  if (!enabled_) return -1;
  common::MutexLock lock(mu_);
  spans_.push_back(Span{name, start, end, parent, query_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::Open(const std::string& name, double start,
                           int64_t parent, uint64_t query_id) {
  return Add(name, start, start, parent, query_id);
}

void SpanRecorder::Close(int64_t id, double end) {
  if (!enabled_ || id < 0) return;
  common::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end = end;
}

std::vector<Span> SpanRecorder::spans() const {
  common::MutexLock lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                 "\"end\": %.9f, \"parent\": %lld, \"query_id\": %llu}%s\n",
                 i, s.name.c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

double SumSelfTime(const std::vector<Span>& spans,
                   const std::vector<double>& self, const std::string& name) {
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) total += self[i];
  }
  return total;
}

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snap;
  for (const obs::Metric* m : obs::Registry::Global().SortedMetrics()) {
    switch (m->kind()) {
      case obs::MetricKind::kCounter:
        snap.counters[m->name()] =
            static_cast<double>(static_cast<const obs::Counter*>(m)->value());
        break;
      case obs::MetricKind::kGauge:
        snap.counters[m->name()] = static_cast<const obs::Gauge*>(m)->value();
        break;
      case obs::MetricKind::kHistogram:
      case obs::MetricKind::kTimer: {
        const auto* h = static_cast<const obs::Histogram*>(m);
        snap.hist_count[m->name()] = static_cast<double>(h->count());
        snap.hist_sum[m->name()] = h->sum();
        break;
      }
    }
  }
  return snap;
}

double RegistrySnapshot::Counter(const std::string& name) const {
  return Lookup(counters, name);
}
double RegistrySnapshot::Count(const std::string& name) const {
  return Lookup(hist_count, name);
}
double RegistrySnapshot::Sum(const std::string& name) const {
  return Lookup(hist_sum, name);
}

double RegistryDelta::Mean(const std::string& name) const {
  const double n = Count(name);
  return n > 0 ? Sum(name) / n : 0.0;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void WorkloadResult::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void WorkloadResult::Stamp(const std::string& key, double value) {
  stamp.emplace_back(key, FormatNumber(value));
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace tmn::perfbench
