#include "index/segmented/segmented_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <queue>
#include <utility>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/thread_pool.h"
#include "nn/kernels/kernels.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace tmn::index {

namespace {

// Segmented-index metrics (the tmn.index.segment.* and
// tmn.index.compact.* families in docs/OBSERVABILITY.md). Counts and
// byte totals are deterministic for a deterministic ingest, so they are
// stable and bench-gated; partial results can be deadline-induced,
// search timing is wall clock, self-healing retries fire only on real
// (or injected) IO failures, and compaction volume depends on daemon
// scheduling — all unstable (warn-only).
struct SegmentIndexMetrics {
  obs::Counter& seals;
  obs::Counter& wal_records_replayed;
  obs::Counter& wal_bytes_truncated;
  obs::Counter& quarantined;
  obs::Counter& partial_results;
  // Vectors of the sources whose scan completed: a skipped or
  // deadline-cut source adds nothing.
  obs::Counter& vectors_scanned;
  // The formerly-silent self-healing paths: retries of a deferred WAL
  // tail repair / post-seal rotation, and GC removals that failed and
  // were left for a later pass. A counter that keeps climbing means the
  // index is limping on a persistent IO fault — visible *before* the
  // deferred work puts data at risk.
  obs::Counter& wal_repair_retries;
  obs::Counter& rotation_retries;
  obs::Counter& gc_retry_failures;
  obs::Counter& compact_segments_merged;
  obs::Counter& compact_bytes_rewritten;
  obs::Gauge& segment_count;
  obs::Gauge& wal_bytes;
  obs::Histogram& search_seconds;

  static SegmentIndexMetrics& Get() {
    auto& reg = obs::Registry::Global();
    static SegmentIndexMetrics m{
        reg.GetCounter("tmn.index.segment.seals"),
        reg.GetCounter("tmn.index.segment.wal_records_replayed"),
        reg.GetCounter("tmn.index.segment.wal_bytes_truncated"),
        reg.GetCounter("tmn.index.segment.quarantined"),
        reg.GetCounter("tmn.index.segment.partial_results",
                       obs::Stability::kUnstable),
        reg.GetCounter("tmn.index.segment.vectors_scanned"),
        reg.GetCounter("tmn.index.segment.wal_repair_retries",
                       obs::Stability::kUnstable),
        reg.GetCounter("tmn.index.segment.rotation_retries",
                       obs::Stability::kUnstable),
        reg.GetCounter("tmn.index.segment.gc_retry_failures",
                       obs::Stability::kUnstable),
        reg.GetCounter("tmn.index.compact.segments_merged",
                       obs::Stability::kUnstable),
        reg.GetCounter("tmn.index.compact.bytes_rewritten",
                       obs::Stability::kUnstable),
        reg.GetGauge("tmn.index.segment.count"),
        reg.GetGauge("tmn.index.segment.wal_bytes"),
        reg.GetTimer("tmn.index.segment.search_seconds"),
    };
    return m;
  }
};

// Matches "<prefix><digits><suffix>" and parses the digits.
bool ParseNumberedName(const std::string& name, std::string_view prefix,
                       std::string_view suffix, uint64_t* out) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::string SegmentFileName(uint64_t seq) {
  return "seg-" + std::to_string(seq) + ".tmns";
}

// One WAL frame on disk: header + (id u64, dim u64, dim x f32) payload.
uint64_t WalFrameBytes(size_t dim) {
  return 8 + 16 + static_cast<uint64_t>(dim) * sizeof(float);
}

// (distance, id) — ties broken toward the smaller id everywhere, which
// makes results independent of scan partitioning and thread count.
using ScoredId = std::pair<float, uint64_t>;

// Exact bounded-heap scan of one source (memtable or segment). Both
// pollers are nullable; ticking is unconditional on both so their strides
// stay aligned. Returns false when a deadline cut the scan short — the
// partial heap is discarded by the caller (a half-scanned segment is
// "skipped", not silently under-reported).
bool ScanSource(const std::vector<float>& vectors,
                const std::vector<uint64_t>& ids, size_t dim,
                const std::vector<float>& query, size_t k,
                common::DeadlinePoller* query_poller,
                common::DeadlinePoller* budget_poller,
                std::vector<ScoredId>* out) {
  std::priority_queue<ScoredId> best;  // Max-heap: worst of the k best.
  // Blocks of rows go through one kernel call each; the pollers still
  // tick once per row, in row order, before the block is scored.
  constexpr size_t kBlock = 256;
  const float* rows[kBlock] = {};
  float dists[kBlock] = {};
  const size_t count = ids.size();
  for (size_t start = 0; start < count; start += kBlock) {
    const size_t n = std::min(kBlock, count - start);
    for (size_t i = 0; i < n; ++i) {
      bool expired = query_poller != nullptr && query_poller->Tick();
      if (budget_poller != nullptr && budget_poller->Tick()) expired = true;
      if (expired) return false;
      rows[i] = &vectors[(start + i) * dim];
    }
    nn::kernels::Active().l2sq_rows(rows, n, query.data(), dim, dists);
    for (size_t i = 0; i < n; ++i) {
      const ScoredId scored(dists[i], ids[start + i]);
      if (best.size() < k) {
        best.push(scored);
      } else if (scored < best.top()) {
        best.pop();
        best.push(scored);
      }
    }
  }
  out->resize(best.size());
  for (size_t i = best.size(); i > 0; --i) {
    (*out)[i - 1] = best.top();
    best.pop();
  }
  return true;
}

}  // namespace

std::vector<std::string> SelectCompactionInputs(
    const std::vector<std::pair<std::string, size_t>>& live,
    const CompactionPolicy& policy) {
  // Candidates under the size threshold, smallest first; the tie-break
  // on manifest position keeps selection deterministic and biases merges
  // toward the oldest runs.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i].second <= policy.max_input_records) candidates.push_back(i);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&live](size_t a, size_t b) {
              if (live[a].second != live[b].second) {
                return live[a].second < live[b].second;
              }
              return a < b;
            });
  const size_t min_inputs = std::max<size_t>(policy.min_inputs, 2);
  if (candidates.size() < min_inputs) return {};
  candidates.resize(std::min(candidates.size(),
                             std::max<size_t>(policy.max_inputs, min_inputs)));
  // Back to manifest order: the merged segment concatenates inputs
  // oldest first, so its record order matches the original ingest.
  std::sort(candidates.begin(), candidates.end());
  std::vector<std::string> names;
  names.reserve(candidates.size());
  for (const size_t i : candidates) names.push_back(live[i].first);
  return names;
}

SegmentedIndex::SegmentedIndex(std::string dir,
                               const SegmentedIndexOptions& options)
    : dir_(std::move(dir)), options_(options), memtable_(options.dim) {}

std::string SegmentedIndex::WalPath(uint64_t gen) const {
  return dir_ + "/wal-" + std::to_string(gen) + ".log";
}

common::StatusOr<std::unique_ptr<SegmentedIndex>> SegmentedIndex::Open(
    const std::string& dir, const SegmentedIndexOptions& options,
    RecoveryReport* report) {
  // Malformed options fail closed here, with the caller's bug named,
  // instead of surfacing as undefined behavior deep in a seal or scan.
  if (options.dim == 0) {
    return common::InvalidArgumentError("segmented index needs dim > 0");
  }
  if (options.memtable_capacity == 0) {
    return common::InvalidArgumentError(
        "segmented index needs memtable_capacity > 0");
  }
  if (options.max_parallelism < 0) {
    return common::InvalidArgumentError(
        "segmented index max_parallelism must be >= 0 (0 = pool-wide), got " +
        std::to_string(options.max_parallelism));
  }
  if (!(options.per_segment_budget_seconds >= 0.0)) {  // Rejects NaN too.
    return common::InvalidArgumentError(
        "segmented index per_segment_budget_seconds must be >= 0 "
        "(0 disables the budget)");
  }
  TMN_RETURN_IF_ERROR(common::EnsureDirectory(dir));

  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;
  rep = RecoveryReport{};
  SegmentIndexMetrics& metrics = SegmentIndexMetrics::Get();

  // Inventory the directory once; everything else keys off these names.
  std::vector<std::string> entries;
  {
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
      return common::IoError("list directory '" + dir + "': " + ec.message());
    }
    for (const auto& entry : it) {
      entries.push_back(entry.path().filename().string());
    }
    std::sort(entries.begin(), entries.end());
  }

  // Newest valid manifest wins; damaged versions are skipped (and
  // reported), mirroring CheckpointManager::LoadLatestValid. A directory
  // that has manifests but no valid one is an error, not a fresh start:
  // silently re-initializing would orphan — and then GC — real segments.
  std::vector<std::pair<uint64_t, std::string>> manifest_files;
  for (const std::string& name : entries) {
    uint64_t version = 0;
    if (ParseNumberedName(name, "manifest-", ".tmnm", &version)) {
      manifest_files.emplace_back(version, name);
    }
  }
  std::sort(manifest_files.rbegin(), manifest_files.rend());
  IndexManifest manifest;
  bool manifest_loaded = false;
  common::Status newest_manifest_error = common::Status::Ok();
  for (const auto& [version, name] : manifest_files) {
    common::StatusOr<IndexManifest> loaded =
        LoadIndexManifest(dir + "/" + name);
    if (loaded.ok()) {
      manifest = std::move(loaded.value());
      manifest_loaded = true;
      break;
    }
    if (newest_manifest_error.ok()) newest_manifest_error = loaded.status();
    ++rep.manifests_skipped;
    std::fprintf(stderr, "SegmentedIndex: skipping invalid manifest: %s\n",
                 loaded.status().ToString().c_str());
  }
  if (!manifest_loaded && !manifest_files.empty()) {
    return common::Status(
        newest_manifest_error.code(),
        "no valid index manifest in '" + dir +
            "'; newest failure: " + newest_manifest_error.message());
  }
  if (!manifest_loaded) {
    manifest.version = 0;
    manifest.wal_gen = 1;
    manifest.next_seq = 1;
    manifest.dim = options.dim;
  }
  if (manifest.dim != options.dim) {
    return common::FailedPreconditionError(
        "segmented index in '" + dir + "' has dim " +
        std::to_string(manifest.dim) + ", options say " +
        std::to_string(options.dim));
  }
  rep.manifest_version = manifest.version;

  std::unique_ptr<SegmentedIndex> index(
      new SegmentedIndex(dir, options));  // tmn-lint: allow(raw-alloc)
  // Nothing else can hold the index yet; the lock is for the annotation
  // contract (every guarded access provably holds the capability).
  common::WriterMutexLock lock(index->mu_);
  index->manifest_ = manifest;

  // Load every referenced segment; a failure quarantines (the file stays
  // in place, the failure Status is preserved) instead of aborting open
  // or deleting evidence.
  for (const std::string& name : manifest.segments) {
    common::Status failure = common::Status::Ok();
    if (TMN_FAILPOINT("index.segmented.segment.load")) {
      failure = common::UnavailableError(
          "segment '" + name +
          "': injected load failure (index.segmented.segment.load)");
    } else {
      common::StatusOr<Segment> segment =
          Segment::Load(dir + "/" + name, name, options.dim);
      if (segment.ok()) {
        index->segments_.push_back(
            std::make_shared<const Segment>(std::move(segment.value())));
        ++rep.segments_loaded;
        continue;
      }
      failure = segment.status();
    }
    index->quarantined_.push_back(QuarantinedSegment{name, failure});
    rep.quarantined.push_back(index->quarantined_.back());
    ++rep.segments_quarantined;
    metrics.quarantined.Increment();
    std::fprintf(stderr, "SegmentedIndex: quarantining segment: %s\n",
                 failure.ToString().c_str());
  }

  // GC pass: only files the manifest does not reference. An orphan
  // segment (crash between seal and publish) still has its records in the
  // live WAL; an orphan WAL generation (crash between publish and WAL
  // removal) has its records in a published segment — both safe to drop.
  // Cleanup is best-effort: all live data is intact regardless, so a
  // file that cannot be removed (say, permissions) is reported and left
  // for the next Open to retry — never a recovery failure.
  for (const std::string& name : entries) {
    uint64_t number = 0;
    bool remove = false;
    if (ParseNumberedName(name, "seg-", ".tmns", &number)) {
      remove = std::find(manifest.segments.begin(), manifest.segments.end(),
                         name) == manifest.segments.end();
    } else if (ParseNumberedName(name, "wal-", ".log", &number)) {
      remove = number != manifest.wal_gen;
    } else if (ParseNumberedName(name, "manifest-", ".tmnm", &number)) {
      remove = number != manifest.version;
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      remove = true;  // Unpublished AtomicWriteFile residue.
    }
    if (remove) {
      const common::Status removed =
          common::RemoveFileIfExists(dir + "/" + name);
      if (!removed.ok()) {
        ++rep.gc_failed;
        metrics.gc_retry_failures.Increment();
        std::fprintf(stderr, "SegmentedIndex: deferring orphan GC: %s\n",
                     removed.ToString().c_str());
      }
    }
  }

  // Replay the live WAL into a fresh memtable, truncating a torn tail.
  common::StatusOr<WalReplayResult> replay =
      ReplayWal(index->WalPath(manifest.wal_gen), options.dim);
  if (!replay.ok()) return replay.status();
  for (const VectorRecord& record : replay.value().records) {
    index->memtable_.Insert(record.id, record.vector.data());
  }
  index->wal_bytes_ = replay.value().bytes_replayed;
  rep.wal_records_replayed = replay.value().records.size();
  rep.wal_bytes_truncated = replay.value().bytes_truncated;
  rep.wal_damage = replay.value().damage;
  metrics.wal_records_replayed.Increment(replay.value().records.size());
  metrics.wal_bytes_truncated.Increment(replay.value().bytes_truncated);
  if (!replay.value().damage.ok()) {
    std::fprintf(stderr, "SegmentedIndex: WAL damage (truncated): %s\n",
                 replay.value().damage.ToString().c_str());
  }

  TMN_RETURN_IF_ERROR(
      index->wal_.Open(index->WalPath(manifest.wal_gen), /*truncate=*/false));

  metrics.segment_count.Set(static_cast<double>(index->segments_.size()));
  metrics.wal_bytes.Set(static_cast<double>(index->wal_bytes_));

  // A replayed memtable at or over capacity seals immediately, mirroring
  // the append-time policy so crash/resume and uninterrupted runs agree
  // on state. A failed seal is not fatal: the records are in the WAL.
  if (index->memtable_.size() >= options.memtable_capacity) {
    const common::Status sealed = index->SealLocked();
    if (!sealed.ok()) {
      std::fprintf(stderr, "SegmentedIndex: deferred seal after replay: %s\n",
                   sealed.ToString().c_str());
    }
  }
  return index;
}

common::Status SegmentedIndex::Append(uint64_t id,
                                      const std::vector<float>& vector) {
  if (vector.size() != options_.dim) {
    return common::InvalidArgumentError(
        "append dimension " + std::to_string(vector.size()) +
        " does not match index dimension " + std::to_string(options_.dim));
  }
  for (const float v : vector) {
    if (!std::isfinite(v)) {
      return common::InvalidArgumentError(
          "append vector contains a non-finite coordinate");
    }
  }
  common::WriterMutexLock lock(mu_);
  TMN_RETURN_IF_ERROR(EnsureWalWritableLocked());
  const common::Status appended = wal_.Append(id, vector.data(), options_.dim);
  if (!appended.ok()) {
    // The failed write may have left a torn frame past the last acked
    // record. Repair before any further append: a later frame written
    // after that garbage would be fully present yet unreachable — replay
    // stops at the first damaged frame — silently dropping an acked
    // record. If the repair itself fails, the dirty flag keeps every
    // subsequent append failing until a retry succeeds.
    wal_tail_dirty_ = true;
    const common::Status repaired = wal_.TruncateTail(wal_bytes_);
    if (repaired.ok()) {
      wal_tail_dirty_ = false;
    } else {
      std::fprintf(stderr, "SegmentedIndex: WAL tail repair deferred: %s\n",
                   repaired.ToString().c_str());
    }
    return appended;
  }
  // The record is durable past this point: a crash armed on this site
  // proves an acked append survives recovery.
  (void)TMN_FAILPOINT("index.segmented.append.acked");
  memtable_.Insert(id, vector.data());
  wal_bytes_ += WalFrameBytes(options_.dim);
  SegmentIndexMetrics::Get().wal_bytes.Set(static_cast<double>(wal_bytes_));
  if (memtable_.size() >= options_.memtable_capacity) {
    const common::Status sealed = SealLocked();
    if (!sealed.ok()) {
      // The append itself is acked and durable; the seal retries on the
      // next append (the size check stays satisfied).
      std::fprintf(stderr, "SegmentedIndex: seal deferred: %s\n",
                   sealed.ToString().c_str());
    }
  }
  return common::Status::Ok();
}

common::Status SegmentedIndex::Flush() {
  common::WriterMutexLock lock(mu_);
  if (memtable_.size() == 0) return common::Status::Ok();
  return SealLocked();
}

common::StatusOr<CompactionStats> SegmentedIndex::CompactOnce(
    const CompactionPolicy& policy) {
  CompactionStats stats;
  SegmentIndexMetrics& metrics = SegmentIndexMetrics::Get();

  // Phase 1 — select, pin, and reserve under the writer lock (no IO).
  // Only live segments are candidates: a quarantined segment never loads
  // into segments_, so it can never be an input. Reserving the output
  // seq in the in-memory manifest serializes it against concurrent
  // seals; the reservation becomes durable only at a later publish, and
  // an abandoned one costs a gap in the seq space, never a collision —
  // a crashed pass leaves at most an orphan file the next Open collects.
  std::vector<std::shared_ptr<const Segment>> inputs;
  uint64_t output_seq = 0;
  {
    common::WriterMutexLock lock(mu_);
    if (TMN_FAILPOINT("index.segmented.compact.select")) {
      return common::IoError(
          "compact: injected selection failure "
          "(index.segmented.compact.select)");
    }
    std::vector<std::pair<std::string, size_t>> live;
    live.reserve(segments_.size());
    for (const auto& segment : segments_) {
      live.emplace_back(segment->name(), segment->size());
    }
    const std::vector<std::string> chosen =
        SelectCompactionInputs(live, policy);
    if (chosen.empty()) return stats;  // compacted == false, no work.
    for (const auto& segment : segments_) {
      if (std::find(chosen.begin(), chosen.end(), segment->name()) !=
          chosen.end()) {
        inputs.push_back(segment);
      }
    }
    output_seq = manifest_.next_seq;
    manifest_.next_seq += 1;
  }

  // Phase 2 — merge and write the output, no lock held: ingest and
  // searches proceed while the pinned inputs (immutable) are rewritten.
  const std::string output_name = SegmentFileName(output_seq);
  std::vector<const Segment*> raw_inputs;
  raw_inputs.reserve(inputs.size());
  for (const auto& input : inputs) {
    stats.inputs.push_back(input->name());
    raw_inputs.push_back(input.get());
  }
  stats.output = output_name;
  Segment merged = Segment::Merged(output_name, output_seq, raw_inputs);
  stats.records = merged.size();
  if (TMN_FAILPOINT("index.segmented.compact.write")) {
    return common::IoError(
        "compact: injected write failure (index.segmented.compact.write)");
  }
  // Ordering invariant #1 (same as a seal): the output bundle is durable
  // before any manifest references it. A crash past this point but
  // before the publish leaves an orphan whose every record is still live
  // in its input segment — the pre-compaction state.
  TMN_RETURN_IF_ERROR(
      merged.WriteFile(dir_ + "/" + output_name, &stats.bytes_rewritten));

  // Phase 3 — swap-publish under the writer lock. The manifest rename
  // stays the single commit point: before it recovery loads the inputs,
  // after it the output.
  uint64_t published_version = 0;
  {
    common::WriterMutexLock lock(mu_);
    // A racing pass may have consumed one of our inputs while we were
    // writing; losing that race aborts clean (drop the orphan output).
    for (const auto& input : inputs) {
      if (std::find(manifest_.segments.begin(), manifest_.segments.end(),
                    input->name()) == manifest_.segments.end()) {
        (void)common::RemoveFileIfExists(dir_ + "/" + output_name);
        return common::FailedPreconditionError(
            "compact: input '" + input->name() +
            "' no longer live (lost a concurrent compaction race)");
      }
    }
    if (TMN_FAILPOINT("index.segmented.compact.publish")) {
      (void)common::RemoveFileIfExists(dir_ + "/" + output_name);
      return common::IoError(
          "compact: injected publish failure "
          "(index.segmented.compact.publish)");
    }
    IndexManifest next = manifest_;
    next.version += 1;
    // wal_gen and next_seq are untouched: compaction rewrites sealed
    // state only and never touches the WAL. The output takes the first
    // input's position so the list keeps naming every live record
    // exactly once, in ingest order.
    std::vector<std::string> swapped;
    swapped.reserve(next.segments.size() + 1 - inputs.size());
    for (const std::string& name : next.segments) {
      if (name == inputs.front()->name()) {
        swapped.push_back(output_name);
      } else if (std::find(stats.inputs.begin(), stats.inputs.end(), name) ==
                 stats.inputs.end()) {
        swapped.push_back(name);
      }
    }
    next.segments = std::move(swapped);
    const common::Status published = WriteIndexManifest(dir_, next);
    if (!published.ok()) {
      (void)common::RemoveFileIfExists(dir_ + "/" + output_name);
      return published;
    }
    manifest_ = std::move(next);
    published_version = manifest_.version;
    // Swap the in-memory set to match the manifest. In-flight searches
    // pinned their own shared_ptr copies of the inputs, so dropping the
    // index's references never invalidates a scan mid-flight.
    std::vector<std::shared_ptr<const Segment>> next_segments;
    next_segments.reserve(segments_.size() + 1 - inputs.size());
    auto merged_ptr = std::make_shared<const Segment>(std::move(merged));
    for (const auto& segment : segments_) {
      if (segment == inputs.front()) {
        next_segments.push_back(merged_ptr);
      } else if (std::find(inputs.begin(), inputs.end(), segment) ==
                 inputs.end()) {
        next_segments.push_back(segment);
      }
    }
    segments_ = std::move(next_segments);
    metrics.segment_count.Set(static_cast<double>(segments_.size()));
  }
  stats.compacted = true;
  stats.manifest_version = published_version;
  metrics.compact_segments_merged.Increment(inputs.size());
  metrics.compact_bytes_rewritten.Increment(stats.bytes_rewritten);

  // Phase 4 — GC strictly after the commit, outside the lock and
  // best-effort: the inputs and the superseded manifest are orphans now,
  // so a failed (or crashed) removal leaks a file for the next Open to
  // collect, never a record. A crash armed on this site proves the
  // post-compaction state recovers with the inputs still on disk.
  if (TMN_FAILPOINT("index.segmented.compact.gc")) {
    stats.gc_failed = inputs.size();
    metrics.gc_retry_failures.Increment(inputs.size());
    return stats;
  }
  for (const auto& input : inputs) {
    const common::Status removed =
        common::RemoveFileIfExists(dir_ + "/" + input->name());
    if (!removed.ok()) {
      ++stats.gc_failed;
      metrics.gc_retry_failures.Increment();
      std::fprintf(stderr, "SegmentedIndex: deferring compaction GC: %s\n",
                   removed.ToString().c_str());
    }
  }
  const common::Status removed = common::RemoveFileIfExists(
      dir_ + "/" + IndexManifestFileName(published_version - 1));
  if (!removed.ok()) {
    ++stats.gc_failed;
    metrics.gc_retry_failures.Increment();
    std::fprintf(stderr, "SegmentedIndex: deferring manifest GC: %s\n",
                 removed.ToString().c_str());
  }
  return stats;
}

common::Status SegmentedIndex::EnsureWalWritableLocked() {
  // Each branch below is a *retry* of maintenance that already failed
  // once (the rotation in SealLocked, the tail repair in Append) — the
  // counters make a persistently-limping WAL visible.
  if (wal_rotation_pending_) {
    SegmentIndexMetrics::Get().rotation_retries.Increment();
    TMN_RETURN_IF_ERROR(RotateWalLocked());
  }
  if (wal_tail_dirty_) {
    SegmentIndexMetrics::Get().wal_repair_retries.Increment();
    TMN_RETURN_IF_ERROR(wal_.TruncateTail(wal_bytes_));
    wal_tail_dirty_ = false;
  }
  if (!wal_.is_open()) {
    return common::FailedPreconditionError(
        "segmented index WAL is not open");
  }
  return common::Status::Ok();
}

common::Status SegmentedIndex::SealLocked() {
  if (TMN_FAILPOINT("index.segmented.seal")) {
    return common::IoError("seal: injected failure (index.segmented.seal)");
  }
  SegmentIndexMetrics& metrics = SegmentIndexMetrics::Get();
  const uint64_t seq = manifest_.next_seq;
  const std::string name = SegmentFileName(seq);
  Segment segment = Segment::FromMemtable(name, seq, memtable_);
  // Ordering invariant #1: the segment bundle is durable before any
  // manifest references it. A crash after this write leaves an orphan
  // file whose records are still in the WAL — GC'd on the next open.
  TMN_RETURN_IF_ERROR(segment.WriteFile(dir_ + "/" + name));
  IndexManifest next = manifest_;
  next.version += 1;
  next.wal_gen += 1;
  next.next_seq += 1;
  next.segments.push_back(name);
  // Ordering invariant #2: publishing the manifest is the commit point.
  // Before it, recovery replays the WAL; after it, recovery loads the
  // segment and discards the superseded WAL generation.
  TMN_RETURN_IF_ERROR(WriteIndexManifest(dir_, next));

  manifest_ = std::move(next);
  segments_.push_back(std::make_shared<const Segment>(std::move(segment)));
  memtable_.Clear();
  metrics.seals.Increment();
  metrics.segment_count.Set(static_cast<double>(segments_.size()));

  // Ordering invariant #3: GC strictly after the publish. The seal is
  // committed at this point, so a rotation failure must not wedge
  // ingest: it is deferred (appends retry it) rather than surfaced — the
  // sealed records are already durable in the published segment.
  wal_rotation_pending_ = true;
  const common::Status rotated = RotateWalLocked();
  if (!rotated.ok()) {
    std::fprintf(stderr, "SegmentedIndex: WAL rotation deferred: %s\n",
                 rotated.ToString().c_str());
  }
  return common::Status::Ok();
}

common::Status SegmentedIndex::RotateWalLocked() {
  // Close is idempotent, so retrying a half-done rotation is safe.
  TMN_RETURN_IF_ERROR(wal_.Close());
  TMN_RETURN_IF_ERROR(
      wal_.Open(WalPath(manifest_.wal_gen), /*truncate=*/true));
  wal_rotation_pending_ = false;
  wal_tail_dirty_ = false;  // The fresh generation starts empty and clean.
  wal_bytes_ = 0;
  SegmentIndexMetrics::Get().wal_bytes.Set(0.0);
  // Drop the files the manifest no longer references; a crash anywhere in
  // between leaks a file, never a record. Best-effort, like the Open GC
  // pass: anything left behind is collected on the next Open.
  const uint64_t old_gen = manifest_.wal_gen - 1;
  const uint64_t old_version = manifest_.version - 1;
  common::Status removed = common::RemoveFileIfExists(WalPath(old_gen));
  if (!removed.ok()) {
    SegmentIndexMetrics::Get().gc_retry_failures.Increment();
    std::fprintf(stderr, "SegmentedIndex: deferring WAL GC: %s\n",
                 removed.ToString().c_str());
  }
  if (old_version > 0) {
    removed = common::RemoveFileIfExists(
        dir_ + "/" + IndexManifestFileName(old_version));
    if (!removed.ok()) {
      SegmentIndexMetrics::Get().gc_retry_failures.Increment();
      std::fprintf(stderr, "SegmentedIndex: deferring manifest GC: %s\n",
                   removed.ToString().c_str());
    }
  }
  return common::Status::Ok();
}

size_t SegmentedIndex::size() const {
  common::ReaderMutexLock lock(mu_);
  size_t total = memtable_.size();
  for (const auto& segment : segments_) total += segment->size();
  return total;
}

size_t SegmentedIndex::segment_count() const {
  common::ReaderMutexLock lock(mu_);
  return segments_.size();
}

size_t SegmentedIndex::memtable_size() const {
  common::ReaderMutexLock lock(mu_);
  return memtable_.size();
}

std::vector<QuarantinedSegment> SegmentedIndex::quarantined() const {
  common::ReaderMutexLock lock(mu_);
  return quarantined_;
}

common::StatusOr<SegmentedSearchResult> SegmentedIndex::SearchTopK(
    const std::vector<float>& query, size_t k,
    const common::Deadline& deadline) const {
  if (k == 0) {
    return common::InvalidArgumentError("segmented search with k == 0");
  }
  if (query.size() != options_.dim) {
    return common::InvalidArgumentError(
        "segmented query dimension " + std::to_string(query.size()) +
        " does not match index dimension " + std::to_string(options_.dim));
  }
  for (const float v : query) {
    if (!std::isfinite(v)) {
      return common::InvalidArgumentError(
          "segmented query contains a non-finite coordinate");
    }
  }
  TMN_RETURN_IF_ERROR(common::CheckDeadline(deadline, "segment-search"));

  // Source 0 is the memtable (when non-empty); the rest are segments in
  // manifest order. Slots keep the merge deterministic at any thread
  // count: the gather below never depends on completion order.
  struct SourceSlot {
    std::vector<ScoredId> topk;
    bool skipped = false;
  };
  SegmentIndexMetrics& metrics = SegmentIndexMetrics::Get();

  // One scan with all the per-source degradation policy applied: an
  // injected per-source failure, a per-segment budget overrun, or a
  // mid-scan deadline expiry skips the source (never fails the query).
  const auto scan_one = [&](const std::vector<float>& vectors,
                            const std::vector<uint64_t>& ids,
                            SourceSlot& slot) {
    obs::ScopedTimer timer(metrics.search_seconds);
    if (TMN_FAILPOINT("index.segmented.search")) {
      slot.skipped = true;
      return;
    }
    common::DeadlinePoller query_poller(&deadline);
    common::Deadline budget;
    if (options_.per_segment_budget_seconds > 0.0) {
      budget = common::Deadline::AfterSeconds(
          options_.per_segment_budget_seconds, options_.clock);
    }
    common::DeadlinePoller budget_poller(&budget);
    common::DeadlinePoller* query_p =
        deadline.infinite() ? nullptr : &query_poller;
    common::DeadlinePoller* budget_p =
        budget.infinite() ? nullptr : &budget_poller;
    slot.skipped = !ScanSource(vectors, ids, options_.dim, query, k,
                               query_p, budget_p, &slot.topk);
    if (slot.skipped) {
      slot.topk.clear();
    } else {
      metrics.vectors_scanned.Increment(ids.size());
    }
  };

  // The reader lock is held only to scan the memtable (whose backing
  // vectors a concurrent Append may reallocate) and to pin the immutable
  // segments with shared_ptr copies. The scatter-gather over the pins
  // then runs lock-free: a concurrent compaction swap publishes a new
  // segment set without ever invalidating these scans — the inputs this
  // search pinned stay alive until the last pin drops.
  SourceSlot memtable_slot;
  bool scan_memtable = false;
  std::vector<std::shared_ptr<const Segment>> segments;
  size_t quarantined_count = 0;
  {
    common::ReaderMutexLock lock(mu_);
    segments = segments_;
    quarantined_count = quarantined_.size();
    scan_memtable = memtable_.size() > 0;
    if (scan_memtable) {
      scan_one(memtable_.vectors(), memtable_.ids(), memtable_slot);
    }
  }

  std::vector<SourceSlot> slots(segments.size());
  common::ParallelFor(
      0, segments.size(),
      [&](size_t i) {
        scan_one(segments[i]->vectors(), segments[i]->ids(), slots[i]);
      },
      options_.max_parallelism);

  SegmentedSearchResult result;
  std::vector<ScoredId> merged;
  const auto gather = [&result, &merged](const SourceSlot& slot) {
    if (slot.skipped) {
      ++result.sources_skipped;
      return;
    }
    ++result.sources_searched;
    merged.insert(merged.end(), slot.topk.begin(), slot.topk.end());
  };
  if (scan_memtable) gather(memtable_slot);
  for (const SourceSlot& slot : slots) gather(slot);
  std::sort(merged.begin(), merged.end());
  if (merged.size() > k) merged.resize(k);
  result.ids.reserve(merged.size());
  result.distances.reserve(merged.size());
  for (const ScoredId& scored : merged) {
    result.distances.push_back(scored.first);
    result.ids.push_back(scored.second);
  }
  result.sources_skipped += quarantined_count;
  result.partial = result.sources_skipped > 0;
  if (result.partial) metrics.partial_results.Increment();
  return result;
}

}  // namespace tmn::index
