#include "serve/micro_batcher.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/clock.h"
#include "obs/metrics.h"

namespace tmn::serve {

namespace {

// Batch-formation metrics are kUnstable: occupancy, flush reasons and
// queue depth all depend on arrival timing. Deterministic tests assert on
// responses and on counter deltas they fully control.
obs::Counter& BatchCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name, obs::Stability::kUnstable);
}

}  // namespace

FlushDecision DecideFlush(size_t pending, double oldest_age_seconds,
                          double oldest_slack_seconds,
                          const MicroBatcherConfig& config, bool draining) {
  FlushDecision decision;
  if (pending == 0) return decision;  // Nothing to flush; wait for a submit.
  if (pending >= config.max_batch_size) {
    decision.flush = true;
    decision.reason = BatchFlushReason::kSize;
    return decision;
  }
  if (draining) {
    decision.flush = true;
    decision.reason = BatchFlushReason::kDrain;
    return decision;
  }
  if (oldest_slack_seconds <= config.flush_slack_seconds ||
      oldest_age_seconds >= config.max_linger_seconds) {
    decision.flush = true;
    decision.reason = BatchFlushReason::kDeadline;
    return decision;
  }
  // Sleep until the nearer of the two deadline-family cutoffs could fire.
  double wait = config.max_linger_seconds - oldest_age_seconds;
  if (std::isfinite(oldest_slack_seconds)) {
    wait = std::min(wait, oldest_slack_seconds - config.flush_slack_seconds);
  }
  decision.wait_seconds = std::max(wait, 0.0);
  return decision;
}

MicroBatcher::MicroBatcher(const MicroBatcherConfig& config,
                           BatchProcessor processor)
    : config_(config), processor_(std::move(processor)) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });  // tmn-lint: allow(raw-thread)
}

MicroBatcher::~MicroBatcher() {
  {
    common::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

double MicroBatcher::Now() const {
  return config_.clock == nullptr ? common::MonotonicSeconds()
                                  : config_.clock();
}

void MicroBatcher::Submit(BatchRequest request) {
  static obs::Counter& submitted = BatchCounter("tmn.serve.batch.submitted");
  static obs::Gauge& depth = obs::Registry::Global().GetGauge(
      "tmn.serve.batch.queue_depth", obs::Stability::kUnstable);
  request.enqueued_seconds = Now();
  {
    common::MutexLock lock(mu_);
    queue_.push_back(std::move(request));
    depth.Set(static_cast<double>(queue_.size()));
  }
  submitted.Increment();
  cv_.notify_one();
}

void MicroBatcher::DispatcherLoop() {
  static obs::Histogram& occupancy = obs::Registry::Global().GetHistogram(
      "tmn.serve.batch.occupancy", obs::ExponentialBounds(1.0, 2.0, 7),
      obs::Stability::kUnstable);
  static obs::Histogram& formation_seconds =
      obs::Registry::Global().GetTimer("tmn.serve.batch.formation_seconds");
  static obs::Counter& flush_size = BatchCounter("tmn.serve.batch.flush_size");
  static obs::Counter& flush_deadline =
      BatchCounter("tmn.serve.batch.flush_deadline");
  static obs::Counter& flush_drain =
      BatchCounter("tmn.serve.batch.flush_drain");
  static obs::Gauge& depth = obs::Registry::Global().GetGauge(
      "tmn.serve.batch.queue_depth", obs::Stability::kUnstable);
  for (;;) {
    std::vector<BatchRequest> batch;
    BatchFlushReason reason = BatchFlushReason::kSize;
    {
      common::MutexUniqueLock lock(mu_);
      for (;;) {
        if (queue_.empty()) {
          if (stop_) return;
          cv_.wait(lock.native(), [this]() TMN_REQUIRES(mu_) {
            return stop_ || !queue_.empty();
          });
          continue;
        }
        const size_t pending = queue_.size();
        double age = 0.0;
        double slack = std::numeric_limits<double>::infinity();
        if (pending < config_.max_batch_size && !stop_) {
          // Only consulted when neither the size nor the drain cutoff
          // already applies, so those flushes read no clock at all (which
          // keeps stepping-clock tests deterministic).
          age = Now() - queue_.front().enqueued_seconds;
          slack = queue_.front().deadline.RemainingSeconds();
        }
        const FlushDecision decision =
            DecideFlush(pending, age, slack, config_, stop_);
        if (decision.flush) {
          reason = decision.reason;
          break;
        }
        common::WaitFor(
            cv_, lock.native(),
            std::min(decision.wait_seconds, config_.poll_interval_seconds));
      }
      const size_t take = std::min(queue_.size(), config_.max_batch_size);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      depth.Set(static_cast<double>(queue_.size()));
    }
    occupancy.Observe(static_cast<double>(batch.size()));
    formation_seconds.Observe(
        std::max(Now() - batch.front().enqueued_seconds, 0.0));
    switch (reason) {
      case BatchFlushReason::kSize: flush_size.Increment(); break;
      case BatchFlushReason::kDeadline: flush_deadline.Increment(); break;
      case BatchFlushReason::kDrain: flush_drain.Increment(); break;
    }
    processor_(std::move(batch), reason);
  }
}

void InflightTracker::Add() {
  common::MutexLock lock(mu_);
  ++count_;
}

void InflightTracker::Remove() {
  // Notify under the lock: the zero-count observation in WaitForZero is
  // what licenses destroying this tracker, so the notifying thread must
  // be done touching cv_ before a waiter can acquire mu_, see zero, and
  // tear it down.
  common::MutexLock lock(mu_);
  --count_;
  cv_.notify_all();
}

void InflightTracker::WaitForZero() {
  common::MutexUniqueLock lock(mu_);
  cv_.wait(lock.native(),
           [this]() TMN_REQUIRES(mu_) { return count_ == 0; });
}

}  // namespace tmn::serve
