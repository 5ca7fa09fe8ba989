#ifndef TMN_PERFBENCH_BENCH_UTIL_H_
#define TMN_PERFBENCH_BENCH_UTIL_H_

// Measurement primitives of the repository benchmark: percentiles with
// their sample-count rule, the seeded open-loop arrival schedule and its
// lateness accounting, recall@k, in-memory spans with self time, registry
// deltas, peak RSS and the result record every workload fills in. Kept
// free of workload code so tests/bench_util_test.cc can pin each rule.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace tmn::perfbench {

// ---- Percentiles ------------------------------------------------------

// Nearest-rank percentile: the ceil(q * n)-th smallest value (q in
// (0, 1]); 0.0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// How many samples lie strictly beyond the nearest-rank q-th percentile
// of n samples: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

// A percentile is reported only when at least `min_beyond` samples lie
// beyond it, so the value rests on more than a handful of outliers: a
// p99 needs 1000 samples for 10 to lie beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;
bool TailSupported(size_t n, double q, size_t min_beyond = kMinSamplesBeyond);

// ---- Open-loop arrivals -------------------------------------------------

// Send offsets (seconds from phase start) of a Poisson arrival process:
// exponential gaps with mean 1 / rate_per_s, drawn from `seed`, until
// `duration_s`. The same seed always gives the same schedule.
std::vector<double> ArrivalSchedule(uint64_t seed, double rate_per_s,
                                    double duration_s);

// How late an open-loop generator sent: the send time minus the
// scheduled time, clamped at zero (an early send is on time).
double LatenessSeconds(double scheduled, double sent);

// Waits until MonotonicSeconds() >= t: sleeps until 50 us before t, then
// spins (yielding).
void SleepUntil(double t);

// splitmix64 of seed ^ x: the seeded hash behind query picks and samples.
uint64_t Mix(uint64_t seed, uint64_t x);

// One phase. `latency_s` and `done_at_s` (completion time from phase
// start) have one entry per successful op, `lateness_s` one per op sent
// (open loop only).
struct LoopStats {
  std::vector<double> latency_s;
  std::vector<double> done_at_s;
  std::vector<double> lateness_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0.0;
};

// Open loop on the calling thread: op(i) is due at start + schedule[i]
// and sent as soon as the previous op returned and it is due. Latency
// runs from the due time to completion, so a stall is charged to every
// op it delays; how late each op was sent is kept in `lateness_s`.
// `op` returns false on failure. When `stop` is given, sending ends as
// soon as it reads true.
LoopStats RunOpenLoop(const std::vector<double>& schedule,
                      const std::function<bool(size_t)>& op,
                      const std::atomic<bool>* stop = nullptr);

// Closed loop: `clients` threads each call op back to back until
// `duration_s` has passed; latency runs from call to return. Ops that
// return after the deadline are not counted in `latency_s`.
LoopStats RunClosedLoop(int clients, double duration_s,
                        const std::function<bool(size_t)>& op);

// ---- Steadier summaries ----------------------------------------------

// On a shared machine a busy neighbour slows some stretches of a run and
// never speeds any up. The summaries below therefore cut a phase into
// slices, summarise each, and take a quantile over the slices, so a slow
// stretch moves a few slices rather than the figure.

// Ops completed per second in each whole `window_s` slice of
// [0, duration_s).
std::vector<double> WindowRates(const std::vector<double>& done_at_s,
                                double duration_s, double window_s);
inline constexpr double kRateWindowSeconds = 0.25;
// Throughput figures are this quantile of the window rates.
inline constexpr double kRateQuantile = 0.75;

// Runs fn() on the calling thread while a sampler thread reads `read` (a
// monotone count, such as a registry counter) at every `window_s`
// boundary. Returns the count's increase per second in each window that
// closed before fn returned, timed by when each read was taken.
std::vector<double> SampledWindowRates(const std::function<double()>& read,
                                       double window_s,
                                       const std::function<void()>& fn);

// The q-th percentile of each run of `min_samples` consecutive samples
// (in completion order; the last run absorbs the remainder), median over
// the runs. With fewer than 2 * min_samples samples this is the plain
// percentile of them all.
double WindowedPercentile(const std::vector<double>& latency_s,
                          const std::vector<double>& done_at_s, double q,
                          size_t min_samples);
// Samples per run of a windowed percentile: a p99 needs 1000 for 10 to
// lie beyond it.
inline constexpr size_t kTailWindow = 1000;

// Linearly interpolated q-quantile (q in [0, 1]); 0.0 when empty.
double Quantile(std::vector<double> values, double q);

// Appends `from` to `into`, shifting its completion times by `offset_s`,
// so rounds of one phase can be summarised together.
void Merge(const LoopStats& from, double offset_s, LoopStats* into);

// A query workload measured in `rounds` alternating slices: an open loop
// of open_s / rounds at `rate_per_s` (schedule seeded per round), then a
// closed loop of closed_s / rounds. Interleaving spreads both phases
// over the whole run instead of giving each one stretch of it.
struct Rounds {
  LoopStats open;
  LoopStats closed;
  std::vector<double> closed_rates;  // WindowRates of every closed slice.

  // Medians over 1000-sample runs of the open loop, and the kRateQuantile
  // of the closed-loop window rates.
  double p50_ms() const;
  double p99_ms() const;
  double peak_per_s() const;
};

Rounds RunRounds(
    int rounds, uint64_t seed, double rate_per_s, double open_s,
    double closed_s,
    const std::function<LoopStats(const std::vector<double>& schedule,
                                  int round)>& open_phase,
    const std::function<LoopStats(double seconds, int round)>& closed_phase);

// ---- Quality ----------------------------------------------------------

// |truth[:k] ∩ got[:k]| / min(k, |truth|): the share of the exact top-k
// the system returned. 1.0 when the truth is empty.
double RecallAtK(const std::vector<uint64_t>& truth,
                 const std::vector<uint64_t>& got, size_t k);

// ---- Spans -----------------------------------------------------------

// One timed call the benchmark made into a layer. `parent` is the index
// of the enclosing span in the same recorder, or -1.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t parent = -1;
  uint64_t query_id = 0;
};

// Thread-safe in-memory span log. A disabled recorder records nothing
// and costs one branch per call, which is how untraced runs measure.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Records a finished span; returns its index (-1 when disabled).
  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, uint64_t query_id);
  // Opens a span whose end is filled in later by Close.
  int64_t Open(const std::string& name, double start, int64_t parent,
               uint64_t query_id);
  void Close(int64_t id, double end);

  std::vector<Span> spans() const;
  // Writes every span as a JSON array; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  mutable common::Mutex mu_;
  std::vector<Span> spans_ TMN_GUARDED_BY(mu_);
};

// Self time of every span: its duration minus the part of its interval
// that the union of its direct children covers.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

// Sum of self times of the spans named `name`.
double SumSelfTime(const std::vector<Span>& spans,
                   const std::vector<double>& self, const std::string& name);

// ---- Registry deltas ----------------------------------------------------

// Counter values and histogram count/sum of the global obs registry at
// one instant; subtracting two snapshots isolates one phase.
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> hist_count;
  std::map<std::string, double> hist_sum;

  static RegistrySnapshot Take();
  double Counter(const std::string& name) const;
  double Count(const std::string& name) const;
  double Sum(const std::string& name) const;
};

struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  double Counter(const std::string& name) const {
    return after.Counter(name) - before.Counter(name);
  }
  double Count(const std::string& name) const {
    return after.Count(name) - before.Count(name);
  }
  double Sum(const std::string& name) const {
    return after.Sum(name) - before.Sum(name);
  }
  // Sum / count of a histogram over the phase; 0 when nothing observed.
  double Mean(const std::string& name) const;
};

// ---- Process ----------------------------------------------------------

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);

// ---- Results ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `metrics` holds the uniform end-to-end
// set every workload reports; `report` the workload's own metrics under
// their natural names (printed for people, not parsed); `layers` the
// per-layer metrics of a traced run.
struct WorkloadResult {
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, std::string>> stamp;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // Failed checks, capped.

  void Fail(const std::string& what);
  void Stamp(const std::string& key, const std::string& value) {
    stamp.emplace_back(key, value);
  }
  void Stamp(const std::string& key, double value);
};

// Formats a double with all significant digits (%.17g).
std::string FormatNumber(double v);

}  // namespace tmn::perfbench

#endif  // TMN_PERFBENCH_BENCH_UTIL_H_
