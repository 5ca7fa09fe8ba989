#ifndef TMN_SERVE_MICRO_BATCHER_H_
#define TMN_SERVE_MICRO_BATCHER_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/status.h"
#include "geo/trajectory.h"
#include "serve/serve_types.h"

namespace tmn::serve {

// Batch-formation policy (docs/SERVING.md). A batch closes when any
// cutoff fires:
//   size     — max_batch_size members are pending;
//   deadline — the oldest member's remaining budget drops to the flush
//              slack (the time reserved for the batch to actually run),
//              or the oldest member has lingered max_linger_seconds
//              (so deadline-less traffic is never held hostage);
//   drain    — the batcher is shutting down.
struct MicroBatcherConfig {
  // Close a batch as soon as this many members are pending.
  size_t max_batch_size = 8;
  // Close early once the oldest member's deadline slack is at or below
  // this: the budget reserved for encode/search/rerank to actually run.
  double flush_slack_seconds = 0.010;
  // Close once the oldest member has waited this long regardless of its
  // deadline — the p99 cost of batching under light traffic.
  double max_linger_seconds = 0.002;
  // Upper bound on one real-time dispatcher sleep. Injected fake clocks
  // do not advance while the dispatcher sleeps, so cutoffs are re-polled
  // against the injectable clock at this real-time interval.
  double poll_interval_seconds = 0.0005;
  // Clock for enqueue ages and formation spans (not for the members'
  // deadlines, which carry their own); nullptr = the monotonic clock.
  common::Deadline::ClockFn clock = nullptr;
};

// Why a batch was closed (the obs flush-reason counters).
enum class BatchFlushReason { kSize, kDeadline, kDrain };

// One queued query: the trajectory (copied — the batch outlives the
// caller's stack frame), its top-k, its deadline, and the promise the
// pipeline fulfills.
struct BatchRequest {
  geo::Trajectory query;
  size_t k = 0;
  common::Deadline deadline;
  // Batcher-clock enqueue time; set by Submit.
  double enqueued_seconds = 0.0;
  std::promise<common::StatusOr<QueryResult>> promise;
};

// The pure batch-formation decision, split out so tests can sweep it
// without threads or clocks. `pending` > 0 is the queue depth,
// `oldest_age_seconds` how long the oldest member has waited,
// `oldest_slack_seconds` its deadline's remaining budget (+inf when
// infinite). When !flush, `wait_seconds` is how long the dispatcher may
// sleep before the nearest cutoff could fire (the dispatcher additionally
// caps it at poll_interval_seconds so fake clocks stay observable).
struct FlushDecision {
  bool flush = false;
  BatchFlushReason reason = BatchFlushReason::kSize;
  double wait_seconds = 0.0;
};

FlushDecision DecideFlush(size_t pending, double oldest_age_seconds,
                          double oldest_slack_seconds,
                          const MicroBatcherConfig& config, bool draining);

// Coalesces concurrently submitted queries into bounded batches: Submit
// enqueues; a dedicated dispatcher thread closes batches under the
// cutoffs above and hands each one to `processor` (which owns fulfilling
// every member's promise). The queue has no bound of its own: the owner
// bounds what it submits (SimilarityServer admits every request first).
// Destruction drains — every submitted request still reaches the
// processor, as a kDrain batch — then joins the dispatcher. Thread-safe.
class MicroBatcher {
 public:
  using BatchProcessor =
      std::function<void(std::vector<BatchRequest>, BatchFlushReason)>;

  MicroBatcher(const MicroBatcherConfig& config, BatchProcessor processor);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Enqueues a request. Must not race destruction.
  void Submit(BatchRequest request);

 private:
  void DispatcherLoop();
  double Now() const;

  const MicroBatcherConfig config_;
  const BatchProcessor processor_;

  common::Mutex mu_;
  std::condition_variable cv_;
  std::deque<BatchRequest> queue_ TMN_GUARDED_BY(mu_);
  bool stop_ TMN_GUARDED_BY(mu_) = false;

  // The one blocking wait in the serve layer lives on a dedicated thread:
  // parking a shared-pool worker on the formation wait would starve the
  // pipeline stages the pool exists to run. Started by the constructor,
  // joined by the destructor; never touched in between, so it needs no
  // lock.
  // tmn-lint: allow(lock-discipline)
  std::thread dispatcher_;  // tmn-lint: allow(raw-thread)
};

// Counts units of asynchronous work so a destructor can wait for pipeline
// stages that still reference the object being torn down. Thread-safe.
class InflightTracker {
 public:
  void Add();
  // Marks one unit done and wakes waiters.
  void Remove();
  // Blocks until the count is zero.
  void WaitForZero();

 private:
  common::Mutex mu_;
  std::condition_variable cv_;
  size_t count_ TMN_GUARDED_BY(mu_) = 0;
};

}  // namespace tmn::serve

#endif  // TMN_SERVE_MICRO_BATCHER_H_
