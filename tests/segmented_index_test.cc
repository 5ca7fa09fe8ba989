// Tests for the crash-safe segmented index (src/index/segmented/): WAL
// append/replay with torn-tail truncation, seal ordering and reopen
// recovery, quarantine of damaged segments, deterministic scatter-gather
// (bitwise identical at any thread count), per-segment budgets, the
// in-process failpoint matrix, and the serve-layer segmented tier.
// Re-exec crash scenarios (kill -9 semantics) live in
// crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "distance/metric.h"
#include "geo/preprocess.h"
#include "index/segmented/compactor.h"
#include "index/segmented/segmented_index.h"
#include "index/segmented/wal.h"
#include "nn/rng.h"
#include "serve/similarity_server.h"

namespace tmn::index {
namespace {

constexpr size_t kDim = 4;
// One WAL frame: [len u32][crc u32] + payload (id u64, dim u64, dim*f32).
constexpr uint64_t kFrameBytes = 8 + 16 + kDim * 4;

std::atomic<double> g_fake_now{0.0};
double FakeClock() { return g_fake_now.load(); }

// Advances one tick per read: any per-segment budget below 1.0 is already
// blown at its first poll.
std::atomic<double> g_step_now{0.0};
double SteppingClock() { return g_step_now.fetch_add(1.0) + 1.0; }

std::string ScratchDir(const char* name) {
  const std::string dir =
      ::testing::TempDir() + "/segmented_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Deterministic vector for id `i`.
std::vector<float> Vec(uint64_t i) {
  std::vector<float> v(kDim);
  for (size_t d = 0; d < kDim; ++d) {
    v[d] = static_cast<float>((i * 7 + d * 3) % 23) * 0.25f;
  }
  return v;
}

SegmentedIndexOptions SmallOptions(size_t capacity = 1024) {
  SegmentedIndexOptions options;
  options.dim = kDim;
  options.memtable_capacity = capacity;
  return options;
}

// Ground truth: exact squared-L2 top-k over ids [0, n), ties by id.
std::vector<std::pair<float, uint64_t>> Reference(
    const std::vector<float>& query, uint64_t n, size_t k) {
  std::vector<std::pair<float, uint64_t>> scored;
  for (uint64_t i = 0; i < n; ++i) {
    const std::vector<float> v = Vec(i);
    float dist = 0.0f;
    for (size_t d = 0; d < kDim; ++d) {
      const float delta = v[d] - query[d];
      dist += delta * delta;
    }
    scored.emplace_back(dist, i);
  }
  std::sort(scored.begin(), scored.end());
  if (scored.size() > k) scored.resize(k);
  return scored;
}

void ExpectMatchesReference(const SegmentedSearchResult& result,
                            const std::vector<float>& query, uint64_t n,
                            size_t k) {
  const auto expected = Reference(query, n, k);
  ASSERT_EQ(result.ids.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.ids[i], expected[i].second) << "rank " << i;
    EXPECT_EQ(result.distances[i], expected[i].first) << "rank " << i;
  }
}

// Flips one byte of `path` in place (via atomic rewrite, so the file
// stays structurally whole — only the bit pattern changes).
void FlipByte(const std::string& path, size_t offset) {
  auto content = common::ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  std::string bytes = std::move(content.value());
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x5A);
  ASSERT_TRUE(common::AtomicWriteFile(path, bytes).ok());
}

void AppendRawBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------------
// Ingest + search basics.

TEST(SegmentedIndexTest, OpenCreatesEmptyIndexAndEmptySearchIsNotPartial) {
  const std::string dir = ScratchDir("empty");
  RecoveryReport report;
  auto index = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value()->size(), 0u);
  EXPECT_EQ(report.manifest_version, 0u);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_TRUE(report.wal_damage.ok());

  const auto result = index.value()->SearchTopK(Vec(0), 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ids.empty());
  EXPECT_FALSE(result.value().partial);
  EXPECT_EQ(result.value().sources_searched, 0u);
}

TEST(SegmentedIndexTest, ValidatesAppendAndQueryInput) {
  const std::string dir = ScratchDir("validate");
  auto index = SegmentedIndex::Open(dir, SmallOptions());
  ASSERT_TRUE(index.ok());

  EXPECT_EQ(index.value()->Append(1, {1.0f, 2.0f}).code(),
            common::StatusCode::kInvalidArgument);
  std::vector<float> bad = Vec(1);
  bad[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(index.value()->Append(1, bad).code(),
            common::StatusCode::kInvalidArgument);

  ASSERT_TRUE(index.value()->Append(1, Vec(1)).ok());
  EXPECT_EQ(index.value()->SearchTopK(Vec(1), 0).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.value()->SearchTopK({1.0f}, 3).status().code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(index.value()->SearchTopK(bad, 3).status().code(),
            common::StatusCode::kInvalidArgument);

  g_fake_now = 10.0;
  const auto expired = common::Deadline::AfterSeconds(-1.0, &FakeClock);
  EXPECT_EQ(index.value()->SearchTopK(Vec(1), 3, expired).status().code(),
            common::StatusCode::kDeadlineExceeded);
}

TEST(SegmentedIndexTest, SealsAtCapacityAndSearchSpansAllSources) {
  const std::string dir = ScratchDir("seal");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4));
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok()) << "record " << i;
  }
  // 10 appends at capacity 4: two sealed segments + 2 in the memtable.
  EXPECT_EQ(index.value()->segment_count(), 2u);
  EXPECT_EQ(index.value()->memtable_size(), 2u);
  EXPECT_EQ(index.value()->size(), 10u);

  const auto result = index.value()->SearchTopK(Vec(3), 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().partial);
  EXPECT_EQ(result.value().sources_searched, 3u);  // memtable + 2 segments.
  ExpectMatchesReference(result.value(), Vec(3), 10, 5);
}

TEST(SegmentedIndexTest, FlushSealsTheRemainderAndIsIdempotent) {
  const std::string dir = ScratchDir("flush");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4));
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  ASSERT_TRUE(index.value()->Flush().ok());
  EXPECT_EQ(index.value()->memtable_size(), 0u);
  EXPECT_EQ(index.value()->segment_count(), 2u);
  ASSERT_TRUE(index.value()->Flush().ok());  // Empty memtable: no-op.
  EXPECT_EQ(index.value()->segment_count(), 2u);

  const auto result = index.value()->SearchTopK(Vec(2), 4);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(2), 6, 4);
}

TEST(SegmentedIndexTest, SearchIsBitwiseIdenticalAcrossThreadCounts) {
  const std::string dir = ScratchDir("determinism");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/8));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  auto run = [&](int max_parallelism) {
    SegmentedIndexOptions options = SmallOptions(/*capacity=*/8);
    options.max_parallelism = max_parallelism;
    auto index = SegmentedIndex::Open(dir, options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    auto result = index.value()->SearchTopK(Vec(17), 9);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  };
  const SegmentedSearchResult sequential = run(1);
  const SegmentedSearchResult parallel = run(4);
  EXPECT_EQ(sequential.ids, parallel.ids);
  EXPECT_EQ(sequential.distances, parallel.distances);  // Bitwise: == on float.
  EXPECT_EQ(sequential.sources_searched, parallel.sources_searched);
  ExpectMatchesReference(parallel, Vec(17), 40, 9);
}

TEST(SegmentedIndexTest, ConcurrentAppendsAndSearchesAgree) {
  // Appends take the index's writer lock, searches its reader lock; this
  // drives both from pool workers at once (the TSAN build turns any
  // missed synchronization into a failure). ParallelFor, not std::thread:
  // the nested SearchTopK fan-out runs inline on a pool worker.
  const std::string dir = ScratchDir("concurrent");
  auto opened = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/16));
  ASSERT_TRUE(opened.ok());
  SegmentedIndex* index = opened.value().get();
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index->Append(i, Vec(i)).ok());
  }
  std::atomic<int> search_failures{0};
  common::ParallelFor(
      0, 4,
      [&](size_t task) {
        if (task == 0) {
          for (uint64_t i = 8; i < 72; ++i) {
            if (!index->Append(i, Vec(i)).ok()) ++search_failures;
          }
        } else {
          for (int iter = 0; iter < 50; ++iter) {
            const auto result = index->SearchTopK(Vec(task), 5);
            // Sizes race with ingest; validity and completeness do not.
            if (!result.ok() || result.value().partial ||
                result.value().ids.size() > 5) {
              ++search_failures;
            }
          }
        }
      },
      /*max_parallelism=*/4);
  EXPECT_EQ(search_failures.load(), 0);
  EXPECT_EQ(index->size(), 72u);
  const auto result = index->SearchTopK(Vec(17), 9);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectMatchesReference(result.value(), Vec(17), 72, 9);
}

// ---------------------------------------------------------------------
// Recovery.

TEST(SegmentedIndexTest, ReopenReplaysAckedAppendsFromTheWal) {
  const std::string dir = ScratchDir("replay");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions());
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
    // No seal happened: everything lives in the WAL + memtable.
    EXPECT_EQ(index.value()->segment_count(), 0u);
  }
  RecoveryReport report;
  auto index = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 5u);
  EXPECT_EQ(report.wal_bytes_truncated, 0u);
  EXPECT_TRUE(report.wal_damage.ok());
  EXPECT_EQ(index.value()->size(), 5u);
  const auto result = index.value()->SearchTopK(Vec(2), 3);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(2), 5, 3);
}

TEST(SegmentedIndexTest, ReopenRecoversSegmentsAndWalTogether) {
  const std::string dir = ScratchDir("mixed");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 11; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  RecoveryReport report;
  auto index =
      SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.segments_loaded, 2u);
  EXPECT_EQ(report.wal_records_replayed, 3u);
  EXPECT_EQ(index.value()->size(), 11u);
  const auto result = index.value()->SearchTopK(Vec(6), 11);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(6), 11, 11);
}

TEST(SegmentedIndexTest, TornWalTailIsTruncatedWithoutDamage) {
  const std::string dir = ScratchDir("torn");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions());
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  // Simulate a crash mid-append: a frame header that never finished.
  AppendRawBytes(dir + "/wal-1.log", std::string("\x28\x00\x00", 3));

  RecoveryReport report;
  auto index = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 3u);
  EXPECT_EQ(report.wal_bytes_truncated, 3u);
  // A torn tail is the expected residue of a crash, not damage.
  EXPECT_TRUE(report.wal_damage.ok());
  EXPECT_EQ(index.value()->size(), 3u);
  // The file was truncated back to whole records and appends continue.
  ASSERT_TRUE(index.value()->Append(3, Vec(3)).ok());
  const auto result = index.value()->SearchTopK(Vec(1), 4);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(1), 4, 4);
}

TEST(SegmentedIndexTest, BitFlippedWalRecordReportsChecksumMismatch) {
  const std::string dir = ScratchDir("wal_bitrot");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions());
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  // Flip a payload byte inside the second frame: a fully-written record
  // damaged in place, unlike a torn tail.
  FlipByte(dir + "/wal-1.log", kFrameBytes + 12);

  RecoveryReport report;
  auto index = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(report.wal_bytes_truncated, 2 * kFrameBytes);
  EXPECT_EQ(report.wal_damage.code(),
            common::StatusCode::kChecksumMismatch);
  EXPECT_EQ(index.value()->size(), 1u);
}

TEST(SegmentedIndexTest, QuarantinesDamagedSegmentAndDegradesToPartial) {
  const std::string dir = ScratchDir("quarantine");
  std::string victim;
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 9; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
    ASSERT_EQ(index.value()->segment_count(), 2u);
  }
  victim = dir + "/seg-1.tmns";  // Holds ids 0..3.
  ASSERT_TRUE(common::FileExists(victim));
  FlipByte(victim, 40);  // Somewhere inside the section data.

  auto run = [&](int max_parallelism, RecoveryReport* report) {
    SegmentedIndexOptions options = SmallOptions(/*capacity=*/4);
    options.max_parallelism = max_parallelism;
    auto index = SegmentedIndex::Open(dir, options, report);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    auto result = index.value()->SearchTopK(Vec(5), 6);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  };

  RecoveryReport report;
  const SegmentedSearchResult sequential = run(1, &report);
  EXPECT_EQ(report.segments_loaded, 1u);
  EXPECT_EQ(report.segments_quarantined, 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].name, "seg-1.tmns");
  EXPECT_EQ(report.quarantined[0].status.code(),
            common::StatusCode::kChecksumMismatch);
  // Quarantine preserves the file for forensics.
  EXPECT_TRUE(common::FileExists(victim));

  // The acceptance contract: a partial-flagged top-k instead of an error,
  // bitwise identical at 1 and 4 threads.
  EXPECT_TRUE(sequential.partial);
  EXPECT_EQ(sequential.sources_skipped, 1u);
  const SegmentedSearchResult parallel = run(4, nullptr);
  EXPECT_TRUE(parallel.partial);
  EXPECT_EQ(sequential.ids, parallel.ids);
  EXPECT_EQ(sequential.distances, parallel.distances);
  // What was searched is still answered exactly: records 4..8 (the
  // surviving segment + memtable), never a record from the damaged
  // seg-1 (ids 0..3).
  for (const uint64_t id : sequential.ids) EXPECT_GE(id, 4u);
  EXPECT_FALSE(sequential.ids.empty());
}

TEST(SegmentedIndexTest, DimensionMismatchOnReopenFailsClosed) {
  const std::string dir = ScratchDir("dim");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());
    ASSERT_TRUE(index.value()->Append(1, Vec(1)).ok());  // Seals: manifest.
  }
  SegmentedIndexOptions wrong = SmallOptions();
  wrong.dim = kDim + 1;
  auto index = SegmentedIndex::Open(dir, wrong);
  EXPECT_EQ(index.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST(SegmentedIndexTest, AllManifestsInvalidIsAnErrorNotAFreshStart) {
  const std::string dir = ScratchDir("bad_manifest");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());
    ASSERT_TRUE(index.value()->Append(1, Vec(1)).ok());
  }
  FlipByte(dir + "/manifest-1.tmnm", 20);
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  EXPECT_FALSE(index.ok());
  // Refusing to open must not GC the segments the manifest referenced.
  EXPECT_TRUE(common::FileExists(dir + "/seg-1.tmns"));
}

TEST(SegmentedIndexTest, ReplayedMemtableAtCapacitySealsOnOpen) {
  const std::string dir = ScratchDir("replay_seal");
  {
    // Capacity 64: six appends stay in the WAL.
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/64));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  // Reopen with capacity 4: the replayed memtable is over capacity and
  // seals immediately, mirroring the append-time policy.
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4));
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.value()->segment_count(), 1u);
  EXPECT_EQ(index.value()->memtable_size(), 0u);
  EXPECT_EQ(index.value()->size(), 6u);
}

// ---------------------------------------------------------------------
// Budgets.

TEST(SegmentedIndexTest, BlownPerSegmentBudgetSkipsSourcesAndFlagsPartial) {
  const std::string dir = ScratchDir("budget");
  g_step_now = 0.0;
  SegmentedIndexOptions options = SmallOptions(/*capacity=*/4);
  options.per_segment_budget_seconds = 0.5;
  options.clock = &SteppingClock;  // Every budget is blown at first poll.
  auto index = SegmentedIndex::Open(dir, options);
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  const auto result = index.value()->SearchTopK(Vec(3), 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().partial);
  EXPECT_EQ(result.value().sources_searched, 0u);
  EXPECT_EQ(result.value().sources_skipped, 2u);
  EXPECT_TRUE(result.value().ids.empty());
}

// ---------------------------------------------------------------------
// Failpoint matrix (in-process; the re-exec crash sites live in
// crash_recovery_test.cc). Skips without the failpoint build.

class SegmentedFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::FailpointsEnabled()) {
      GTEST_SKIP() << "library built without failpoint sites";
    }
  }
  void TearDown() override { common::DeactivateAllFailpoints(); }
};

TEST_F(SegmentedFailpointTest, RejectedWalAppendLeavesNoTrace) {
  const std::string dir = ScratchDir("fp_append");
  auto index = SegmentedIndex::Open(dir, SmallOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());

  common::ActivateFailpoint("index.segmented.wal.append", 1);
  EXPECT_FALSE(index.value()->Append(1, Vec(1)).ok());
  // The rejected record is nowhere: not in the memtable, not replayed.
  EXPECT_EQ(index.value()->size(), 1u);
  ASSERT_TRUE(index.value()->Append(2, Vec(2)).ok());  // One-shot site.
  EXPECT_EQ(index.value()->size(), 2u);
}

TEST_F(SegmentedFailpointTest, TornAppendIsRepairedSoLaterAcksSurviveReplay) {
  // The REVIEW durability hole: a torn write leaves half a frame at the
  // tail. Without repair, the next (acked!) append lands after the
  // garbage, and replay — which stops at the first damaged frame — would
  // silently drop it. Repair must truncate back to the acked prefix.
  const std::string dir = ScratchDir("fp_torn_repair");
  auto index = SegmentedIndex::Open(dir, SmallOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());

  common::ActivateFailpoint("io.append.write", 1);
  EXPECT_FALSE(index.value()->Append(1, Vec(1)).ok());
  // The half-written frame is gone: the file holds exactly the acked set.
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal-1.log"), kFrameBytes);

  ASSERT_TRUE(index.value()->Append(2, Vec(2)).ok());
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal-1.log"), 2 * kFrameBytes);
  index.value().reset();

  RecoveryReport report;
  auto reopened = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Both acked records replay; nothing was truncated or damaged.
  EXPECT_EQ(report.wal_records_replayed, 2u);
  EXPECT_EQ(report.wal_bytes_truncated, 0u);
  EXPECT_TRUE(report.wal_damage.ok());
  EXPECT_EQ(reopened.value()->size(), 2u);
}

TEST_F(SegmentedFailpointTest, DeferredTailRepairRetriesOnTheNextAppend) {
  const std::string dir = ScratchDir("fp_torn_defer");
  auto index = SegmentedIndex::Open(dir, SmallOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());

  // The write tears AND the immediate repair fails: the dirty tail must
  // stick until a retry succeeds — never ack over garbage.
  common::ActivateFailpoint("io.append.write", 1);
  common::ActivateFailpoint("io.truncate", 1);
  EXPECT_FALSE(index.value()->Append(1, Vec(1)).ok());
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal-1.log"),
            kFrameBytes + kFrameBytes / 2);

  // The next append retries the truncation (the failpoint was one-shot)
  // before writing, so the new frame lands right after the acked prefix.
  ASSERT_TRUE(index.value()->Append(2, Vec(2)).ok());
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal-1.log"), 2 * kFrameBytes);
  index.value().reset();

  RecoveryReport report;
  auto reopened = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 2u);
  EXPECT_TRUE(report.wal_damage.ok());
}

TEST_F(SegmentedFailpointTest, UnsyncedFrameIsTruncatedNotAcked) {
  // A frame that was fully written but never fsynced is not acked; repair
  // removes it so the file and the acked set stay bitwise identical.
  const std::string dir = ScratchDir("fp_sync");
  auto index = SegmentedIndex::Open(dir, SmallOptions());
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());

  common::ActivateFailpoint("io.append.sync", 1);
  EXPECT_FALSE(index.value()->Append(1, Vec(1)).ok());
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal-1.log"), kFrameBytes);
  EXPECT_EQ(index.value()->size(), 1u);

  ASSERT_TRUE(index.value()->Append(2, Vec(2)).ok());
  index.value().reset();
  RecoveryReport report;
  auto reopened = SegmentedIndex::Open(dir, SmallOptions(), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.wal_records_replayed, 2u);
  EXPECT_EQ(reopened.value()->size(), 2u);
}

TEST_F(SegmentedFailpointTest, FailedSealDefersWithoutFailingTheAppend) {
  const std::string dir = ScratchDir("fp_seal");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());
  common::ActivateFailpoint("index.segmented.seal", 1);
  // The append is acked (durable in the WAL) even though the seal failed.
  ASSERT_TRUE(index.value()->Append(1, Vec(1)).ok());
  EXPECT_EQ(index.value()->segment_count(), 0u);
  EXPECT_EQ(index.value()->memtable_size(), 2u);
  // The next append retries the deferred seal and succeeds.
  ASSERT_TRUE(index.value()->Append(2, Vec(2)).ok());
  EXPECT_EQ(index.value()->segment_count(), 1u);
  EXPECT_EQ(index.value()->size(), 3u);
}

TEST_F(SegmentedFailpointTest, FailedWalRotationHealsOnTheNextAppend) {
  // The seal commits (segment + manifest published) but opening the next
  // WAL generation fails. The seal still acks — its records are durable
  // in the published segment — and the rotation is retried by the next
  // append instead of wedging ingest forever.
  const std::string dir = ScratchDir("fp_rotate");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());

  common::ActivateFailpoint("io.append.open", 1);
  ASSERT_TRUE(index.value()->Append(1, Vec(1)).ok());  // Seals.
  EXPECT_EQ(index.value()->segment_count(), 1u);
  EXPECT_EQ(index.value()->memtable_size(), 0u);
  // Rotation never got to GC: the superseded generation is still there.
  EXPECT_TRUE(common::FileExists(dir + "/wal-1.log"));
  EXPECT_FALSE(common::FileExists(dir + "/wal-2.log"));

  // The next append completes the rotation, then lands in the fresh WAL.
  ASSERT_TRUE(index.value()->Append(2, Vec(2)).ok());
  EXPECT_FALSE(common::FileExists(dir + "/wal-1.log"));
  EXPECT_TRUE(common::FileExists(dir + "/wal-2.log"));
  EXPECT_EQ(index.value()->size(), 3u);
  index.value().reset();

  RecoveryReport report;
  auto reopened =
      SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.segments_loaded, 1u);
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(reopened.value()->size(), 3u);
  const auto result = reopened.value()->SearchTopK(Vec(1), 3);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(1), 3, 3);
}

TEST_F(SegmentedFailpointTest, FailedOrphanGcIsDeferredNotFatal) {
  const std::string dir = ScratchDir("fp_gc");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index.value()->Append(0, Vec(0)).ok());
    ASSERT_TRUE(index.value()->Append(1, Vec(1)).ok());  // Seals.
  }
  // An orphan segment, as a crash between seal and publish leaves behind.
  const std::string stray = dir + "/seg-9.tmns";
  AppendRawBytes(stray, "stray segment bytes");

  common::ActivateFailpoint("io.remove", 1);
  RecoveryReport report;
  auto index =
      SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2), &report);
  // One orphan could not be removed: reported and deferred, never a
  // recovery failure — all live data is intact regardless.
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.gc_failed, 1u);
  EXPECT_TRUE(common::FileExists(stray));
  EXPECT_EQ(index.value()->size(), 2u);
  index.value().reset();

  // The next open retries and collects it.
  common::DeactivateAllFailpoints();
  RecoveryReport clean;
  auto reopened =
      SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2), &clean);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(clean.gc_failed, 0u);
  EXPECT_FALSE(common::FileExists(stray));
}

TEST_F(SegmentedFailpointTest, InjectedSegmentLoadFailureQuarantines) {
  const std::string dir = ScratchDir("fp_load");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  common::ActivateFailpoint("index.segmented.segment.load", 1);
  RecoveryReport report;
  auto index =
      SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2), &report);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(report.segments_quarantined, 1u);
  EXPECT_EQ(report.segments_loaded, 1u);
  ASSERT_EQ(index.value()->quarantined().size(), 1u);
  EXPECT_EQ(index.value()->quarantined()[0].status.code(),
            common::StatusCode::kUnavailable);

  // Undamaged on disk: a clean reopen loads both segments again.
  common::DeactivateAllFailpoints();
  index.value().reset();
  auto clean = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean.value()->segment_count(), 2u);
  EXPECT_TRUE(clean.value()->quarantined().empty());
}

TEST_F(SegmentedFailpointTest, InjectedPerSourceSearchFailureIsPartial) {
  const std::string dir = ScratchDir("fp_search");
  SegmentedIndexOptions options = SmallOptions(/*capacity=*/4);
  options.max_parallelism = 1;  // Hit ordering must be deterministic.
  auto index = SegmentedIndex::Open(dir, options);
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  common::ActivateFailpoint("index.segmented.search", 1);
  const auto result = index.value()->SearchTopK(Vec(3), 8);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().partial);
  EXPECT_EQ(result.value().sources_skipped, 1u);
  EXPECT_EQ(result.value().sources_searched, 1u);
}

// ---------------------------------------------------------------------
// Options validation at Open: malformed options fail closed with the
// caller's bug named, never as undefined behavior deep in a seal or scan.

TEST(SegmentedIndexOptionsTest, ZeroDimIsRejected) {
  SegmentedIndexOptions options;
  options.dim = 0;
  const auto index = SegmentedIndex::Open(ScratchDir("opt_dim"), options);
  EXPECT_EQ(index.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SegmentedIndexOptionsTest, ZeroMemtableCapacityIsRejected) {
  SegmentedIndexOptions options = SmallOptions();
  options.memtable_capacity = 0;
  const auto index = SegmentedIndex::Open(ScratchDir("opt_cap"), options);
  EXPECT_EQ(index.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SegmentedIndexOptionsTest, NegativeMaxParallelismIsRejected) {
  SegmentedIndexOptions options = SmallOptions();
  options.max_parallelism = -1;
  const auto index = SegmentedIndex::Open(ScratchDir("opt_par"), options);
  EXPECT_EQ(index.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SegmentedIndexOptionsTest, ZeroMaxParallelismStaysThePoolWideSentinel) {
  SegmentedIndexOptions options = SmallOptions();
  options.max_parallelism = 0;  // Documented: pool-wide, not "none".
  const auto index = SegmentedIndex::Open(ScratchDir("opt_par0"), options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
}

TEST(SegmentedIndexOptionsTest, NonFiniteOrNegativeBudgetIsRejected) {
  SegmentedIndexOptions options = SmallOptions();
  options.per_segment_budget_seconds =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(SegmentedIndex::Open(ScratchDir("opt_nan"), options)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
  options.per_segment_budget_seconds = -1.0;
  EXPECT_EQ(SegmentedIndex::Open(ScratchDir("opt_neg"), options)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Backoff: deterministic capped exponential with jitter.

TEST(BackoffTest, GrowsExponentiallyAndSaturatesWithoutJitter) {
  common::BackoffOptions options;
  options.initial_seconds = 0.1;
  options.multiplier = 2.0;
  options.max_seconds = 0.5;
  options.jitter = 0.0;
  common::Backoff backoff(options, /*seed=*/7);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySeconds(), 0.1);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySeconds(), 0.2);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySeconds(), 0.4);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySeconds(), 0.5);  // Capped.
  EXPECT_DOUBLE_EQ(backoff.NextDelaySeconds(), 0.5);  // Stays capped.
}

TEST(BackoffTest, JitterStaysInBandAndIsDeterministicPerSeed) {
  common::BackoffOptions options;
  options.initial_seconds = 0.1;
  options.multiplier = 2.0;
  options.max_seconds = 5.0;
  options.jitter = 0.25;
  common::Backoff a(options, /*seed=*/42);
  common::Backoff b(options, /*seed=*/42);
  common::Backoff c(options, /*seed=*/43);
  bool any_seed_difference = false;
  double base = 0.1;
  for (int i = 0; i < 8; ++i) {
    const double da = a.NextDelaySeconds();
    // Same seed, same sequence — bit for bit.
    EXPECT_EQ(da, b.NextDelaySeconds());
    any_seed_difference |= da != c.NextDelaySeconds();
    EXPECT_GE(da, base * 0.75);
    EXPECT_LE(da, base * 1.25);
    base = std::min(base * 2.0, 5.0);
  }
  EXPECT_TRUE(any_seed_difference);
}

TEST(BackoffTest, ResetRestartsGrowthAtTheInitialDelay) {
  common::BackoffOptions options;
  options.initial_seconds = 0.1;
  options.multiplier = 2.0;
  options.max_seconds = 5.0;
  options.jitter = 0.25;
  common::Backoff backoff(options, /*seed=*/5);
  for (int i = 0; i < 6; ++i) backoff.NextDelaySeconds();
  EXPECT_EQ(backoff.step(), 6u);
  backoff.Reset();
  EXPECT_EQ(backoff.step(), 0u);
  const double first = backoff.NextDelaySeconds();
  EXPECT_GE(first, 0.1 * 0.75);
  EXPECT_LE(first, 0.1 * 1.25);
}

// ---------------------------------------------------------------------
// Compaction input selection: the pure policy step.

TEST(SelectCompactionInputsTest, PicksSmallestAndReturnsManifestOrder) {
  CompactionPolicy policy;
  policy.max_input_records = 100;
  policy.min_inputs = 2;
  policy.max_inputs = 2;
  const auto picked = SelectCompactionInputs(
      {{"a", 10}, {"b", 2}, {"c", 5}, {"d", 1}}, policy);
  // The two smallest (d, b), returned in manifest order (b before d).
  EXPECT_EQ(picked, (std::vector<std::string>{"b", "d"}));
}

TEST(SelectCompactionInputsTest, OversizedSegmentsGraduateOut) {
  CompactionPolicy policy;
  policy.max_input_records = 4;
  const auto picked = SelectCompactionInputs(
      {{"a", 100}, {"b", 3}, {"c", 200}, {"d", 4}}, policy);
  EXPECT_EQ(picked, (std::vector<std::string>{"b", "d"}));
}

TEST(SelectCompactionInputsTest, FewerThanMinInputsSelectsNothing) {
  CompactionPolicy policy;
  policy.max_input_records = 10;
  policy.min_inputs = 3;
  EXPECT_TRUE(SelectCompactionInputs({{"a", 1}, {"b", 1}}, policy).empty());
  EXPECT_TRUE(SelectCompactionInputs({{"a", 1}}, policy).empty());
  EXPECT_TRUE(SelectCompactionInputs({}, policy).empty());
}

TEST(SelectCompactionInputsTest, SizeTiesBreakTowardTheOlderSegment) {
  CompactionPolicy policy;
  policy.max_input_records = 10;
  policy.min_inputs = 2;
  policy.max_inputs = 2;
  const auto picked = SelectCompactionInputs(
      {{"a", 5}, {"b", 5}, {"c", 5}}, policy);
  EXPECT_EQ(picked, (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------
// CompactOnce: the crash-safe merge pass.

CompactionPolicy MergeAllPolicy() {
  CompactionPolicy policy;
  policy.max_input_records = 1 << 20;
  policy.min_inputs = 2;
  policy.max_inputs = 8;
  return policy;
}

// Polls `pred` until it holds or `timeout_seconds` passes. Busy-wait by
// design: the daemon backoffs in these tests are sub-millisecond, and the
// raw-timing rule keeps ad-hoc sleeps out of test code.
bool WaitUntil(const std::function<bool()>& pred, double timeout_seconds) {
  const double deadline = common::MonotonicSeconds() + timeout_seconds;
  while (common::MonotonicSeconds() < deadline) {
    if (pred()) return true;
  }
  return pred();
}

TEST(SegmentedCompactionTest, CompactOnceMergesSmallSegmentsIntoOne) {
  const std::string dir = ScratchDir("compact_basic");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  ASSERT_EQ(index.value()->segment_count(), 4u);

  const auto stats = index.value()->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().compacted);
  EXPECT_EQ(stats.value().inputs.size(), 4u);
  EXPECT_EQ(stats.value().records, 8u);
  EXPECT_GT(stats.value().bytes_rewritten, 0u);
  EXPECT_EQ(stats.value().gc_failed, 0u);
  EXPECT_EQ(index.value()->segment_count(), 1u);
  EXPECT_EQ(index.value()->size(), 8u);

  // The merged index answers exactly what the fan-out answered.
  const auto result = index.value()->SearchTopK(Vec(3), 8);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().partial);
  ExpectMatchesReference(result.value(), Vec(3), 8, 8);

  // Quiescent: a second pass has nothing to merge.
  const auto idle = index.value()->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.value().compacted);

  // The inputs and the superseded manifest are gone from disk.
  for (const std::string& input : stats.value().inputs) {
    EXPECT_FALSE(common::FileExists(dir + "/" + input)) << input;
  }
  EXPECT_TRUE(common::FileExists(dir + "/" + stats.value().output));
}

TEST(SegmentedCompactionTest, CompactionSurvivesReopenBitExact) {
  const std::string dir = ScratchDir("compact_reopen");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
    const auto stats = index.value()->CompactOnce(MergeAllPolicy());
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(stats.value().compacted);
  }
  RecoveryReport report;
  auto reopened =
      SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2), &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(report.segments_loaded, 1u);
  EXPECT_EQ(report.gc_failed, 0u);
  EXPECT_TRUE(report.quarantined.empty());
  EXPECT_EQ(reopened.value()->size(), 10u);
  const auto result = reopened.value()->SearchTopK(Vec(3), 10);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(3), 10, 10);
}

TEST(SegmentedCompactionTest, SearchIsBitwiseIdenticalToUncompactedTwin) {
  // The acceptance bar: compaction is a storage detail, never a semantic
  // one — same ids, same float bits, at every thread count.
  const std::string compacted_dir = ScratchDir("compact_twin_a");
  const std::string plain_dir = ScratchDir("compact_twin_b");
  constexpr uint64_t kN = 24;
  for (const std::string& dir : {compacted_dir, plain_dir}) {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/4));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  for (const int parallelism : {1, 4}) {
    SegmentedIndexOptions options = SmallOptions(/*capacity=*/4);
    options.max_parallelism = parallelism;
    auto compacted = SegmentedIndex::Open(compacted_dir, options);
    auto plain = SegmentedIndex::Open(plain_dir, options);
    ASSERT_TRUE(compacted.ok());
    ASSERT_TRUE(plain.ok());
    const auto stats = compacted.value()->CompactOnce(MergeAllPolicy());
    ASSERT_TRUE(stats.ok());
    for (const uint64_t q : {uint64_t{0}, uint64_t{7}, uint64_t{19}}) {
      const auto a = compacted.value()->SearchTopK(Vec(q), 10);
      const auto b = plain.value()->SearchTopK(Vec(q), 10);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value().ids, b.value().ids) << "parallelism " << parallelism;
      ASSERT_EQ(a.value().distances.size(), b.value().distances.size());
      for (size_t i = 0; i < a.value().distances.size(); ++i) {
        // Bitwise, not approximate: merging rewrites bytes, not values.
        EXPECT_EQ(a.value().distances[i], b.value().distances[i]);
      }
    }
    compacted.value().reset();
    plain.value().reset();
  }
}

TEST(SegmentedCompactionTest, QuarantinedSegmentsAreNeverSelected) {
  const std::string dir = ScratchDir("compact_quarantine");
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  FlipByte(dir + "/seg-1.tmns", 40);
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(index.value()->quarantined().size(), 1u);
  ASSERT_EQ(index.value()->segment_count(), 3u);

  const auto stats = index.value()->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().compacted);
  // Only the three live segments merged; the quarantined one was not an
  // input, its file is untouched on disk, and it survives the swap.
  EXPECT_EQ(stats.value().inputs.size(), 3u);
  for (const std::string& input : stats.value().inputs) {
    EXPECT_NE(input, "seg-1.tmns");
  }
  EXPECT_TRUE(common::FileExists(dir + "/seg-1.tmns"));
  EXPECT_EQ(index.value()->quarantined().size(), 1u);
  EXPECT_EQ(index.value()->segment_count(), 1u);
  const auto result = index.value()->SearchTopK(Vec(3), 8);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().partial);  // The quarantined data is missing.

  // The quarantined name survives in the published manifest: a reopen
  // still quarantines (not silently forgets) the damaged segment.
  index.value().reset();
  auto reopened = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->quarantined().size(), 1u);
  EXPECT_EQ(reopened.value()->segment_count(), 1u);
}

TEST(SegmentedCompactionTest, ConcurrentAppendsDuringCompactionAreKept) {
  // The swap only replaces its pinned inputs: records sealed while the
  // merge ran (and records still in the memtable) are untouched.
  const std::string dir = ScratchDir("compact_concurrent_append");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  const auto stats = index.value()->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats.value().compacted);
  for (uint64_t i = 6; i < 9; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  EXPECT_EQ(index.value()->size(), 9u);
  const auto result = index.value()->SearchTopK(Vec(3), 9);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(3), 9, 9);
}

// ---------------------------------------------------------------------
// Compactor: the background daemon.

CompactorOptions FastCompactor() {
  CompactorOptions options;
  options.policy = MergeAllPolicy();
  options.backoff.initial_seconds = 0.0005;
  options.backoff.max_seconds = 0.005;
  return options;
}

TEST(SegmentedCompactorTest, DaemonConvergesTheIndexToOneSegment) {
  const std::string dir = ScratchDir("daemon_converge");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
  }
  ASSERT_EQ(index.value()->segment_count(), 8u);

  Compactor compactor(index.value().get(), FastCompactor());
  compactor.Start();
  EXPECT_TRUE(WaitUntil(
      [&] { return index.value()->segment_count() == 1; }, 30.0));
  compactor.Stop();

  EXPECT_GE(compactor.passes(), 1u);
  const auto reports = compactor.reports();
  ASSERT_FALSE(reports.empty());
  uint64_t merged = 0;
  for (const CompactionReport& report : reports) {
    EXPECT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_EQ(report.retry, 0u);
    EXPECT_GE(report.backoff_seconds, 0.0);
    if (report.stats.compacted) merged += report.stats.inputs.size();
  }
  EXPECT_GE(merged, 8u);  // Every original segment was rewritten.

  EXPECT_EQ(index.value()->size(), 16u);
  const auto result = index.value()->SearchTopK(Vec(3), 16);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(3), 16, 16);
}

TEST(SegmentedCompactorTest, LifecycleEdgesAreSafe) {
  const std::string dir = ScratchDir("daemon_lifecycle");
  auto index = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/2));
  ASSERT_TRUE(index.ok());
  {
    // Stop before Start: nothing to join, and Start afterwards stays down
    // (one-shot contract).
    Compactor compactor(index.value().get(), FastCompactor());
    compactor.Stop();
    compactor.Start();
    compactor.Stop();  // Double Stop.
    EXPECT_EQ(compactor.passes(), 0u);
  }
  {
    // Destruction without an explicit Stop joins the worker.
    Compactor compactor(index.value().get(), FastCompactor());
    compactor.Start();
  }
  {
    // Double Start spawns exactly one worker.
    Compactor compactor(index.value().get(), FastCompactor());
    compactor.Start();
    compactor.Start();
    compactor.Stop();
  }
}

TEST(SegmentedCompactorTest, ConcurrentIngestSearchCompactSoakIsConsistent) {
  // The TSan target: appends, searches, and the daemon all live on
  // different threads against one index. Correctness bar afterwards: the
  // fully-compacted index is bitwise identical to a never-compacted twin.
  const std::string dir = ScratchDir("daemon_soak");
  const std::string twin_dir = ScratchDir("daemon_soak_twin");
  constexpr uint64_t kPreload = 32;
  constexpr uint64_t kTotal = 160;
  auto opened = SegmentedIndex::Open(dir, SmallOptions(/*capacity=*/8));
  ASSERT_TRUE(opened.ok());
  SegmentedIndex* index = opened.value().get();
  for (uint64_t i = 0; i < kPreload; ++i) {
    ASSERT_TRUE(index->Append(i, Vec(i)).ok());
  }

  Compactor compactor(index, FastCompactor());
  compactor.Start();
  std::atomic<int> failures{0};
  std::atomic<bool> ingest_done{false};
  common::ParallelFor(
      0, 3,
      [&](size_t lane) {
        if (lane == 0) {
          for (uint64_t i = kPreload; i < kTotal; ++i) {
            if (!index->Append(i, Vec(i)).ok()) ++failures;
          }
          ingest_done = true;
        } else {
          // Searchers: every snapshot must be internally consistent —
          // sorted by (distance, id) with no duplicate ids — whatever
          // mix of memtable, fan-out, and merged segments it pinned.
          uint64_t query = lane;
          do {
            const auto result = index->SearchTopK(Vec(query % 23), 10);
            if (!result.ok()) {
              ++failures;
              continue;
            }
            const auto& ids = result.value().ids;
            const auto& distances = result.value().distances;
            for (size_t i = 1; i < ids.size(); ++i) {
              const bool ordered =
                  distances[i - 1] < distances[i] ||
                  (distances[i - 1] == distances[i] && ids[i - 1] < ids[i]);
              if (!ordered) ++failures;
            }
            ++query;
          } while (!ingest_done.load());
        }
      },
      /*max_parallelism=*/3);
  // Drain compaction, then verify against the never-compacted twin.
  EXPECT_TRUE(WaitUntil(
      [&] { return index->segment_count() <= 1 && index->memtable_size() == 0;
      }, 30.0));
  compactor.Stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index->size(), kTotal);

  auto twin = SegmentedIndex::Open(twin_dir, SmallOptions(/*capacity=*/8));
  ASSERT_TRUE(twin.ok());
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(twin.value()->Append(i, Vec(i)).ok());
  }
  for (const uint64_t q : {uint64_t{3}, uint64_t{11}, uint64_t{20}}) {
    const auto a = index->SearchTopK(Vec(q), 12);
    const auto b = twin.value()->SearchTopK(Vec(q), 12);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().ids, b.value().ids);
    ASSERT_EQ(a.value().distances.size(), b.value().distances.size());
    for (size_t i = 0; i < a.value().distances.size(); ++i) {
      EXPECT_EQ(a.value().distances[i], b.value().distances[i]);
    }
  }
}

// ---------------------------------------------------------------------
// Compaction failpoints: every phase fails clean and retries.

class SegmentedCompactionFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!common::FailpointsEnabled()) {
      GTEST_SKIP() << "library built without failpoint sites";
    }
  }
  void TearDown() override { common::DeactivateAllFailpoints(); }

  // Eight records in four segments, ready to compact.
  std::unique_ptr<SegmentedIndex> BuildFanout(const char* name) {
    dir_ = ScratchDir(name);
    auto index = SegmentedIndex::Open(dir_, SmallOptions(/*capacity=*/2));
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    for (uint64_t i = 0; i < 8; ++i) {
      EXPECT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
    EXPECT_EQ(index.value()->segment_count(), 4u);
    return std::move(index.value());
  }

  std::string dir_;
};

TEST_F(SegmentedCompactionFailpointTest, SelectFailureLeavesStateUntouched) {
  auto index = BuildFanout("fp_compact_select");
  common::ActivateFailpoint("index.segmented.compact.select", 1);
  EXPECT_FALSE(index->CompactOnce(MergeAllPolicy()).ok());
  EXPECT_EQ(index->segment_count(), 4u);
  EXPECT_EQ(index->size(), 8u);
  // One-shot site: the retry goes through.
  const auto retry = index->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry.value().compacted);
  EXPECT_EQ(index->segment_count(), 1u);
}

TEST_F(SegmentedCompactionFailpointTest, WriteFailureLeavesStateUntouched) {
  auto index = BuildFanout("fp_compact_write");
  common::ActivateFailpoint("index.segmented.compact.write", 1);
  EXPECT_FALSE(index->CompactOnce(MergeAllPolicy()).ok());
  EXPECT_EQ(index->segment_count(), 4u);
  // The failed pass reserved seq 5 but wrote nothing.
  EXPECT_FALSE(common::FileExists(dir_ + "/seg-5.tmns"));
  const auto retry = index->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().compacted);
  EXPECT_EQ(index->segment_count(), 1u);
  const auto result = index->SearchTopK(Vec(3), 8);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(3), 8, 8);
}

TEST_F(SegmentedCompactionFailpointTest, PublishFailureCleansUpItsOutput) {
  auto index = BuildFanout("fp_compact_publish");
  common::ActivateFailpoint("index.segmented.compact.publish", 1);
  EXPECT_FALSE(index->CompactOnce(MergeAllPolicy()).ok());
  // The aborted pass removed its own (unreferenced) output; the manifest
  // still lists the four inputs.
  EXPECT_FALSE(common::FileExists(dir_ + "/seg-5.tmns"));
  EXPECT_EQ(index->segment_count(), 4u);
  const auto retry = index->CompactOnce(MergeAllPolicy());
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().compacted);
  EXPECT_EQ(index->segment_count(), 1u);
}

TEST_F(SegmentedCompactionFailpointTest, GcFailureIsDeferredNotFatal) {
  auto index = BuildFanout("fp_compact_gc");
  common::ActivateFailpoint("index.segmented.compact.gc", 1);
  const auto stats = index->CompactOnce(MergeAllPolicy());
  // The swap committed — GC failure after the commit point never fails
  // the pass, it just leaves the inputs for the next Open to collect.
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats.value().compacted);
  EXPECT_EQ(stats.value().gc_failed, stats.value().inputs.size());
  EXPECT_EQ(index->segment_count(), 1u);
  for (const std::string& input : stats.value().inputs) {
    EXPECT_TRUE(common::FileExists(dir_ + "/" + input)) << input;
  }
  index.reset();

  common::DeactivateAllFailpoints();
  RecoveryReport report;
  auto reopened =
      SegmentedIndex::Open(dir_, SmallOptions(/*capacity=*/2), &report);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(report.segments_loaded, 1u);
  EXPECT_EQ(reopened.value()->size(), 8u);
  for (const std::string& input : stats.value().inputs) {
    EXPECT_FALSE(common::FileExists(dir_ + "/" + input)) << input;
  }
}

TEST_F(SegmentedCompactionFailpointTest, DaemonRetriesAfterAFailedPass) {
  auto index = BuildFanout("fp_compact_daemon");
  common::ActivateFailpoint("index.segmented.compact.write", 1);
  Compactor compactor(index.get(), FastCompactor());
  compactor.Start();
  EXPECT_TRUE(WaitUntil(
      [&] { return index->segment_count() == 1; }, 30.0));
  compactor.Stop();
  // The audit trail shows the injected failure and the recovery.
  const auto reports = compactor.reports();
  bool saw_failure = false;
  bool saw_retry_success = false;
  for (const CompactionReport& report : reports) {
    if (!report.status.ok()) saw_failure = true;
    if (report.status.ok() && report.stats.compacted && report.retry > 0) {
      saw_retry_success = true;
    }
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_retry_success);
  const auto result = index->SearchTopK(Vec(3), 8);
  ASSERT_TRUE(result.ok());
  ExpectMatchesReference(result.value(), Vec(3), 8, 8);
}

// ---------------------------------------------------------------------
// WAL bit-rot fuzz: deterministic byte flips across a recorded WAL.
// Replay must never crash, never surface an unacked or damaged record,
// and always land on a clean truncate outcome — the survivors are an
// exact prefix of the acked sequence and the file is cut back to it.

TEST(SegmentedWalFuzzTest, RandomByteFlipsAlwaysRecoverToAnAckedPrefix) {
  const std::string dir = ScratchDir("wal_fuzz");
  constexpr uint64_t kRecords = 12;
  {
    auto index = SegmentedIndex::Open(dir, SmallOptions());
    ASSERT_TRUE(index.ok());
    for (uint64_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(index.value()->Append(i, Vec(i)).ok());
    }
  }
  const std::string wal_path = dir + "/wal-1.log";
  const auto pristine = common::ReadFileToString(wal_path);
  ASSERT_TRUE(pristine.ok());
  ASSERT_EQ(pristine.value().size(), kRecords * kFrameBytes);

  bool any_truncation = false;
  for (uint64_t trial = 0; trial < 64; ++trial) {
    nn::Rng rng(1000 + trial);
    std::string damaged = pristine.value();
    const uint64_t flips = 1 + rng.UniformInt(4);
    for (uint64_t f = 0; f < flips; ++f) {
      const size_t offset = rng.UniformInt(damaged.size());
      const char mask = static_cast<char>(1 + rng.UniformInt(255));
      damaged[offset] = static_cast<char>(damaged[offset] ^ mask);
    }
    ASSERT_TRUE(common::AtomicWriteFile(wal_path, damaged).ok());

    RecoveryReport report;
    auto index = SegmentedIndex::Open(dir, SmallOptions(), &report);
    ASSERT_TRUE(index.ok())
        << "trial " << trial << ": " << index.status().ToString();
    const uint64_t replayed = report.wal_records_replayed;
    ASSERT_LE(replayed, kRecords) << "trial " << trial;
    EXPECT_EQ(index.value()->size(), replayed);
    if (replayed < kRecords) {
      any_truncation = true;
      // Damage was detected, reported, and cut away — never acked over.
      EXPECT_GT(report.wal_bytes_truncated, 0u) << "trial " << trial;
    }
    // Survivors are the exact acked prefix, bit for bit.
    if (replayed > 0) {
      const auto result =
          index.value()->SearchTopK(Vec(3), static_cast<size_t>(replayed));
      ASSERT_TRUE(result.ok()) << "trial " << trial;
      EXPECT_FALSE(result.value().partial);
      ExpectMatchesReference(result.value(), Vec(3), replayed,
                             static_cast<size_t>(replayed));
    }
    // Clean truncate outcome: the file is cut back to whole acked frames,
    // and a second open replays the same prefix with no further damage.
    index.value().reset();
    EXPECT_EQ(std::filesystem::file_size(wal_path), replayed * kFrameBytes)
        << "trial " << trial;
    RecoveryReport second;
    auto reopened = SegmentedIndex::Open(dir, SmallOptions(), &second);
    ASSERT_TRUE(reopened.ok()) << "trial " << trial;
    EXPECT_TRUE(second.wal_damage.ok()) << "trial " << trial;
    EXPECT_EQ(second.wal_bytes_truncated, 0u);
    EXPECT_EQ(second.wal_records_replayed, replayed);
    reopened.value().reset();
  }
  // The flip distribution actually exercised the damage path.
  EXPECT_TRUE(any_truncation);
}

// ---------------------------------------------------------------------
// Serve integration: the optional segmented tier.

std::vector<geo::Trajectory> ServeDatabase(int n) {
  data::SyntheticConfig config;
  config.num_trajectories = n;
  config.min_length = 10;
  config.max_length = 16;
  config.seed = 99;
  auto raw = data::GenerateSynthetic(config);
  return geo::NormalizeTrajectories(raw, geo::ComputeNormalization(raw));
}

// Builds a segmented index holding the database's sketch vectors, keyed
// by database position — the contract the serve tier expects. Returned
// non-const so a test can compact it while a server holds the const
// serving handle, which converts.
std::shared_ptr<SegmentedIndex> BuildSketchIndex(
    const std::string& dir, const std::vector<geo::Trajectory>& database,
    size_t sketch_points, size_t capacity) {
  SegmentedIndexOptions options;
  options.dim = 2 * sketch_points;
  options.memtable_capacity = capacity;
  auto index = SegmentedIndex::Open(dir, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  for (size_t i = 0; i < database.size(); ++i) {
    const std::vector<float> sketch =
        serve::SimilarityServer::SketchTrajectory(database[i],
                                                  sketch_points);
    EXPECT_TRUE(index.value()->Append(i, sketch).ok());
  }
  EXPECT_TRUE(index.value()->Flush().ok());
  return std::shared_ptr<SegmentedIndex>(std::move(index.value()));
}

serve::ServerConfig SegmentedOnlyConfig(
    std::shared_ptr<const SegmentedIndex> index) {
  serve::ServerConfig config;
  config.enable_rerank_tier = false;
  config.segmented_index = std::move(index);
  return config;
}

TEST(SegmentedServeTest, SegmentedTierServesExactTopK) {
  const std::string dir = ScratchDir("serve_exact");
  auto database = ServeDatabase(24);
  serve::ServerConfig config = SegmentedOnlyConfig(
      BuildSketchIndex(dir, database, /*sketch_points=*/8, /*capacity=*/8));
  // Pool the whole database so the exact rerank reproduces ground truth.
  config.rerank_candidates = database.size();
  auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  const geo::Trajectory query = database[5];
  std::vector<std::pair<double, size_t>> expected;
  for (size_t i = 0; i < database.size(); ++i) {
    expected.emplace_back(metric->Compute(query, database[i]), i);
  }
  std::sort(expected.begin(), expected.end());

  auto server = serve::SimilarityServer::Create(
      config, database, dist::CreateMetric(dist::MetricType::kDtw), nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(server.value()->segmented_tier_available());

  const auto result = server.value()->TopK(query, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tier, serve::ServeTier::kSegmented);
  EXPECT_FALSE(result.value().partial);
  ASSERT_EQ(result.value().indices.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.value().indices[i], expected[i].second) << "rank " << i;
    EXPECT_EQ(result.value().distances[i], expected[i].first) << "rank " << i;
  }
}

TEST(SegmentedServeTest, QuarantinedSegmentYieldsPartialResponseNotError) {
  const std::string dir = ScratchDir("serve_partial");
  auto database = ServeDatabase(16);
  // Build, then damage one sealed segment and reopen into quarantine.
  { BuildSketchIndex(dir, database, /*sketch_points=*/8, /*capacity=*/4); }
  FlipByte(dir + "/seg-1.tmns", 40);
  SegmentedIndexOptions options;
  options.dim = 16;
  options.memtable_capacity = 4;
  auto reopened = SegmentedIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(reopened.value()->quarantined().size(), 1u);

  serve::ServerConfig config = SegmentedOnlyConfig(
      std::shared_ptr<const SegmentedIndex>(std::move(reopened.value())));
  config.rerank_candidates = database.size();
  auto server = serve::SimilarityServer::Create(
      config, database, dist::CreateMetric(dist::MetricType::kDtw), nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const auto result = server.value()->TopK(database[9], 3);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().tier, serve::ServeTier::kSegmented);
  EXPECT_TRUE(result.value().partial);
  EXPECT_FALSE(result.value().indices.empty());

  // The micro-batched path returns the serial answer bit for bit,
  // `partial` included.
  auto submitted = server.value()->SubmitTopK(database[9], 3);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const auto batched = submitted.value().get();
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(batched.value().tier, serve::ServeTier::kSegmented);
  EXPECT_TRUE(batched.value().partial);
  EXPECT_EQ(batched.value().indices, result.value().indices);
  ASSERT_EQ(batched.value().distances.size(),
            result.value().distances.size());
  for (size_t i = 0; i < result.value().distances.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(batched.value().distances[i]),
              std::bit_cast<uint64_t>(result.value().distances[i]))
        << "rank " << i;
  }
}

TEST(SegmentedServeTest, DimensionMismatchIsRejectedAtCreate) {
  const std::string dir = ScratchDir("serve_dim");
  auto database = ServeDatabase(8);
  serve::ServerConfig config = SegmentedOnlyConfig(
      BuildSketchIndex(dir, database, /*sketch_points=*/8, /*capacity=*/8));
  config.sketch_points = 4;  // Sketch width 8 != index dim 16.
  auto server = serve::SimilarityServer::Create(
      config, database, dist::CreateMetric(dist::MetricType::kDtw), nullptr);
  EXPECT_EQ(server.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SegmentedServeTest, CallerOwnedCompactorKeepsServedAnswersExact) {
  const std::string dir = ScratchDir("serve_compact_daemon");
  auto database = ServeDatabase(24);
  // Capacity 4 -> 6 small segments, all compactable.
  auto index =
      BuildSketchIndex(dir, database, /*sketch_points=*/8, /*capacity=*/4);
  ASSERT_EQ(index->segment_count(), 6u);

  serve::ServerConfig config = SegmentedOnlyConfig(index);
  config.rerank_candidates = database.size();
  auto server = serve::SimilarityServer::Create(
      config, database, dist::CreateMetric(dist::MetricType::kDtw), nullptr);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  const geo::Trajectory query = database[5];
  std::vector<std::pair<double, size_t>> expected;
  for (size_t i = 0; i < database.size(); ++i) {
    expected.emplace_back(metric->Compute(query, database[i]), i);
  }
  std::sort(expected.begin(), expected.end());
  auto expect_exact = [&] {
    const auto result = server.value()->TopK(query, 4);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().tier, serve::ServeTier::kSegmented);
    EXPECT_FALSE(result.value().partial);
    ASSERT_EQ(result.value().indices.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(result.value().indices[i], expected[i].second);
      EXPECT_EQ(result.value().distances[i], expected[i].first);
    }
  };

  // The caller holds the mutable handle, so it runs the compactor beside
  // the server; queries stay exact while segments are rewritten under
  // them.
  CompactorOptions options;
  options.policy.min_inputs = 2;
  options.policy.max_inputs = 8;
  options.backoff.initial_seconds = 0.0005;
  options.backoff.max_seconds = 0.005;
  Compactor compactor(index.get(), options);
  compactor.Start();
  EXPECT_TRUE(WaitUntil(
      [&] {
        expect_exact();
        return HasFailure() || index->segment_count() == 1;
      },
      30.0));
  compactor.Stop();
  EXPECT_EQ(index->segment_count(), 1u);
  expect_exact();
}

}  // namespace
}  // namespace tmn::index
