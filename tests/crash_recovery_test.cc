// Crash-recovery harness: re-executes this binary as a child that runs a
// deterministic workload while a TMN_FAILPOINTS crash site is armed,
// verifies the child dies with the injected exit code, then re-runs it
// without injection and checks the recovered run's output is
// byte-identical to an uninterrupted in-process baseline. Three
// workloads: checkpointed training (TMN_CRASH_CHILD=1), segmented-index
// streaming ingest (TMN_CRASH_CHILD=segindex), and ingest + background-
// style compaction (TMN_CRASH_CHILD=segcompact) — see docs/INDEXING.md.
//
// The child mode is dispatched on the TMN_CRASH_CHILD environment
// variable from a custom main(), so this target links GTest::gtest (not
// gtest_main). All scenarios skip when the library was built without
// failpoint sites (-DTMN_FAILPOINTS=OFF); the failpoints lane runs them
// for real.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/io_util.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/sampler.h"
#include "core/tmn_model.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "distance/distance_matrix.h"
#include "distance/metric.h"
#include "geo/preprocess.h"
#include "index/segmented/segmented_index.h"
#include "nn/serialize.h"

namespace tmn::core {
namespace {

std::string g_self_exe;  // Absolute path of this binary, set in main().

constexpr int kEpochs = 4;

// The deterministic workload both the child processes and the in-process
// baseline run: must be bit-identical across processes (seeded synthetic
// data, single-threaded). Returns the encoded losses + parameter bits.
// With a manager, trains via the fault-tolerant path (resuming whatever
// the store holds); without one, runs the plain uninterrupted loop.
std::string TrainAndEncode(CheckpointManager* manager) {
  auto raw = data::GeneratePortoLike(30, 201);
  const auto trajs =
      geo::NormalizeTrajectories(raw, geo::ComputeNormalization(raw));
  const auto metric = dist::CreateMetric(dist::MetricType::kDtw);
  const DoubleMatrix distances =
      dist::ComputeDistanceMatrix(trajs, *metric, 1);

  TmnModelConfig model_config;
  model_config.hidden_dim = 8;
  model_config.seed = 6;
  TmnModel model(model_config);
  RandomSortSampler sampler(&distances, 6);

  TrainConfig config;
  config.epochs = kEpochs;
  config.lr = 5e-3;
  config.sampling_num = 6;
  config.sub_stride = 10;
  config.alpha = SuggestAlpha(distances);
  config.seed = 3;
  config.num_threads = 1;
  PairTrainer trainer(&model, &trajs, &distances, metric.get(), &sampler,
                      config);
  const std::vector<double> losses =
      manager != nullptr ? trainer.TrainWithCheckpoints(*manager)
                         : trainer.Train();

  common::PayloadWriter w;
  w.PutU64(losses.size());
  for (const double loss : losses) w.PutF64(loss);
  w.PutString(nn::EncodeParameters(model.Parameters()));
  return w.data();
}

// Child mode: train with checkpoints in $TMN_CRASH_DIR/store (any armed
// TMN_FAILPOINTS crash site fires mid-run), then publish the result.
int CrashChildMain() {
  const char* dir = std::getenv("TMN_CRASH_DIR");
  if (dir == nullptr) return 3;
  CheckpointManager manager({std::string(dir) + "/store", 3});
  const std::string result = TrainAndEncode(&manager);
  const common::Status status =
      common::AtomicWriteFile(std::string(dir) + "/result.bin", result);
  if (!status.ok()) {
    std::fprintf(stderr, "child: %s\n", status.ToString().c_str());
    return 4;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Segmented-index workload (TMN_CRASH_CHILD=segindex): stream
// kIngestRecords deterministic vectors into a SegmentedIndex, sealing
// every kIngestCapacity appends. The child resumes idempotently — ids
// are appended in order and an acked append is durable, so size() says
// exactly where to pick up — which is what makes the recovered final
// state comparable bit-for-bit with an uninterrupted run.

constexpr uint64_t kIngestRecords = 10;
constexpr size_t kIngestDim = 4;
constexpr size_t kIngestCapacity = 4;

std::vector<float> IngestVector(uint64_t i) {
  std::vector<float> v(kIngestDim);
  for (size_t d = 0; d < kIngestDim; ++d) {
    v[d] = static_cast<float>((i * 7 + d * 3) % 23) * 0.25f;
  }
  return v;
}

index::SegmentedIndexOptions IngestOptions() {
  index::SegmentedIndexOptions options;
  options.dim = kIngestDim;
  options.memtable_capacity = kIngestCapacity;
  options.max_parallelism = 1;
  return options;
}

// Opens (recovering if needed), appends the records not yet durable, and
// encodes the final state: size, segment count, and the full ranking of
// a fixed query with f32 distance bits.
common::StatusOr<std::string> IngestAndEncode(const std::string& dir) {
  common::StatusOr<std::unique_ptr<index::SegmentedIndex>> index =
      index::SegmentedIndex::Open(dir, IngestOptions());
  if (!index.ok()) return index.status();
  for (uint64_t i = index.value()->size(); i < kIngestRecords; ++i) {
    TMN_RETURN_IF_ERROR(index.value()->Append(i, IngestVector(i)));
  }
  common::StatusOr<index::SegmentedSearchResult> result =
      index.value()->SearchTopK(IngestVector(3), kIngestRecords);
  if (!result.ok()) return result.status();
  common::PayloadWriter w;
  w.PutU64(index.value()->size());
  w.PutU64(index.value()->segment_count());
  w.PutU64(result.value().partial ? 1 : 0);
  w.PutU64(result.value().ids.size());
  for (size_t i = 0; i < result.value().ids.size(); ++i) {
    w.PutU64(result.value().ids[i]);
    w.PutF32(result.value().distances[i]);
  }
  return w.data();
}

// Child mode "segindex": run the ingest workload in $TMN_CRASH_DIR/index
// (any armed crash site fires mid-ingest), then publish the result.
int IndexCrashChildMain() {
  const char* dir = std::getenv("TMN_CRASH_DIR");
  if (dir == nullptr) return 3;
  const common::StatusOr<std::string> result =
      IngestAndEncode(std::string(dir) + "/index");
  if (!result.ok()) {
    std::fprintf(stderr, "segindex child: %s\n",
                 result.status().ToString().c_str());
    return 5;
  }
  const common::Status status = common::AtomicWriteFile(
      std::string(dir) + "/result.bin", result.value());
  if (!status.ok()) {
    std::fprintf(stderr, "segindex child: %s\n", status.ToString().c_str());
    return 4;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Compaction workload (TMN_CRASH_CHILD=segcompact): ingest
// kIngestRecords with a tiny memtable so many small segments pile up,
// then compact until quiescent. The script converges from either crash
// outcome: a crash before the swap-publish leaves the pre-compaction
// segments (the resume re-merges them), a crash after it leaves the
// merged output (the resume finds nothing left to compact) — so the
// final state is comparable bit-for-bit with an uninterrupted run
// either way.

constexpr size_t kCompactCapacity = 2;
// 10 records / capacity 2 = 5 input segments before the compaction pass.
constexpr uint64_t kPreCompactionSegments =
    kIngestRecords / kCompactCapacity;

index::SegmentedIndexOptions CompactIngestOptions() {
  index::SegmentedIndexOptions options;
  options.dim = kIngestDim;
  options.memtable_capacity = kCompactCapacity;
  options.max_parallelism = 1;
  return options;
}

index::CompactionPolicy CompactPolicy() {
  index::CompactionPolicy policy;
  policy.max_input_records = 100;
  policy.min_inputs = 2;
  policy.max_inputs = 8;
  return policy;
}

common::StatusOr<std::string> CompactAndEncode(const std::string& dir) {
  common::StatusOr<std::unique_ptr<index::SegmentedIndex>> index =
      index::SegmentedIndex::Open(dir, CompactIngestOptions());
  if (!index.ok()) return index.status();
  for (uint64_t i = index.value()->size(); i < kIngestRecords; ++i) {
    TMN_RETURN_IF_ERROR(index.value()->Append(i, IngestVector(i)));
  }
  for (;;) {
    common::StatusOr<index::CompactionStats> stats =
        index.value()->CompactOnce(CompactPolicy());
    if (!stats.ok()) return stats.status();
    if (!stats.value().compacted) break;
  }
  common::StatusOr<index::SegmentedSearchResult> result =
      index.value()->SearchTopK(IngestVector(3), kIngestRecords);
  if (!result.ok()) return result.status();
  common::PayloadWriter w;
  w.PutU64(index.value()->size());
  w.PutU64(index.value()->segment_count());
  w.PutU64(result.value().partial ? 1 : 0);
  w.PutU64(result.value().ids.size());
  for (size_t i = 0; i < result.value().ids.size(); ++i) {
    w.PutU64(result.value().ids[i]);
    w.PutF32(result.value().distances[i]);
  }
  return w.data();
}

// Child mode "segcompact": the compaction workload in
// $TMN_CRASH_DIR/index, then publish the result.
int CompactCrashChildMain() {
  const char* dir = std::getenv("TMN_CRASH_DIR");
  if (dir == nullptr) return 3;
  const common::StatusOr<std::string> result =
      CompactAndEncode(std::string(dir) + "/index");
  if (!result.ok()) {
    std::fprintf(stderr, "segcompact child: %s\n",
                 result.status().ToString().c_str());
    return 5;
  }
  const common::Status status = common::AtomicWriteFile(
      std::string(dir) + "/result.bin", result.value());
  if (!status.ok()) {
    std::fprintf(stderr, "segcompact child: %s\n",
                 status.ToString().c_str());
    return 4;
  }
  return 0;
}

std::string ScratchDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/crash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Re-runs this binary in child mode; returns its exit code. Child stderr
// (failpoint firings, resume notices) is appended to <dir>/child.log.
int RunChild(const std::string& dir, const std::string& failpoints,
             const std::string& mode = "1") {
  std::string cmd =
      "TMN_CRASH_CHILD=" + mode + " TMN_CRASH_DIR='" + dir + "'";
  if (!failpoints.empty()) cmd += " TMN_FAILPOINTS='" + failpoints + "'";
  cmd += " '" + g_self_exe + "' >/dev/null 2>>'" + dir + "/child.log'";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void RunScenario(const char* name, const std::string& crash_spec) {
  if (!common::FailpointsEnabled()) {
    GTEST_SKIP() << "library built without failpoint sites";
  }
  const std::string dir = ScratchDir(name);
  ASSERT_TRUE(common::EnsureDirectory(dir).ok());

  // First run: the armed site kills the process mid-training with the
  // dedicated injected-crash exit code — no result was published.
  ASSERT_EQ(RunChild(dir, crash_spec), common::kFailpointCrashExitCode);
  EXPECT_FALSE(common::FileExists(dir + "/result.bin"));

  // The store the crash left behind must still hold a loadable checkpoint.
  CheckpointManager manager({dir + "/store", 3});
  TrainerCheckpoint recovered;
  ASSERT_TRUE(manager.LoadLatestValid(&recovered).ok());
  EXPECT_GE(recovered.epoch, 1u);
  EXPECT_LT(recovered.epoch, static_cast<uint64_t>(kEpochs));

  // Second run: no injection; it resumes from the store and completes.
  ASSERT_EQ(RunChild(dir, ""), 0);
  const auto result = common::ReadFileToString(dir + "/result.bin");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Bit-exact recovery: identical losses and parameter bits to an
  // uninterrupted run.
  EXPECT_EQ(result.value(), TrainAndEncode(nullptr));
}

TEST(CrashRecoveryTest, CrashAfterCheckpointPublishRecoversBitExact) {
  // Dies right after the epoch-2 checkpoint is published: recovery
  // resumes from epoch 2.
  RunScenario("after_publish", "trainer.after_checkpoint@2:crash");
}

TEST(CrashRecoveryTest, CrashMidCheckpointWriteRecoversBitExact) {
  // Dies inside AtomicWriteFile while publishing the epoch-2 checkpoint
  // (rename hit 3 = ckpt-2's own rename; hits 1-2 were ckpt-1 and its
  // manifest): the tmp file is orphaned, the manifest still names only
  // ckpt-1, and recovery resumes from epoch 1.
  RunScenario("mid_write", "io.atomic_write.rename@3:crash");
}

// ---------------------------------------------------------------------
// Segmented-index crash matrix: kill the ingest child at each ordering-
// critical IO site, verify no acked record was lost, then resume and
// compare the final state bit-for-bit with an uninterrupted run.

void RunIndexScenario(const char* name, const std::string& crash_spec,
                      uint64_t min_durable) {
  if (!common::FailpointsEnabled()) {
    GTEST_SKIP() << "library built without failpoint sites";
  }
  const std::string dir = ScratchDir(name);
  ASSERT_TRUE(common::EnsureDirectory(dir).ok());

  ASSERT_EQ(RunChild(dir, crash_spec, "segindex"),
            common::kFailpointCrashExitCode);
  EXPECT_FALSE(common::FileExists(dir + "/result.bin"));

  // Durability floor: every append acked before the crash must survive
  // recovery — ingest is never silently lost past an ack.
  {
    common::StatusOr<std::unique_ptr<index::SegmentedIndex>> recovered =
        index::SegmentedIndex::Open(dir + "/index", IngestOptions());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GE(recovered.value()->size(), min_durable);
    EXPECT_TRUE(recovered.value()->quarantined().empty());
  }

  // Resume without injection; the final state must be bit-exact with an
  // uninterrupted run in a fresh directory.
  ASSERT_EQ(RunChild(dir, "", "segindex"), 0);
  const auto result = common::ReadFileToString(dir + "/result.bin");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string base = ScratchDir((std::string(name) + "_base").c_str());
  const common::StatusOr<std::string> baseline =
      IngestAndEncode(base + "/index");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(result.value(), baseline.value());
}

TEST(CrashRecoveryTest, IndexCrashAfterAckedAppendKeepsEveryAckedRecord) {
  // Dies immediately after the 6th append is acked (records 0-3 already
  // sealed into seg-1, records 4-5 only in the generation-2 WAL): replay
  // must bring all 6 back.
  RunIndexScenario("seg_after_append",
                   "index.segmented.append.acked@6:crash", 6);
}

TEST(CrashRecoveryTest, IndexCrashMidSegmentSealRecoversFromWal) {
  // Dies inside AtomicWriteFile while renaming the first segment bundle
  // into place: no manifest exists yet, the orphaned tmp is GC'd, and the
  // 4 sealed-in-flight records are all still in the live WAL.
  RunIndexScenario("seg_mid_seal", "io.atomic_write.rename@1:crash", 4);
}

TEST(CrashRecoveryTest, IndexCrashMidManifestPublishRecoversFromWal) {
  // Dies renaming the first manifest (rename hit 2; hit 1 was seg-1's
  // bundle): the segment file is durable but unreferenced, so recovery
  // GCs it and rebuilds the same segment from the un-rotated WAL.
  RunIndexScenario("seg_mid_manifest", "io.atomic_write.rename@2:crash", 4);
}

// ---------------------------------------------------------------------
// Compaction crash matrix: kill the compaction child at each ordering-
// critical site of the merge protocol, verify the recovered manifest is
// exactly the pre- or post-compaction state (never a mix, never a lost
// acked record), then resume and compare bit-for-bit with an
// uninterrupted run.

void RunCompactScenario(const char* name, const std::string& crash_spec) {
  if (!common::FailpointsEnabled()) {
    GTEST_SKIP() << "library built without failpoint sites";
  }
  const std::string dir = ScratchDir(name);
  ASSERT_TRUE(common::EnsureDirectory(dir).ok());

  ASSERT_EQ(RunChild(dir, crash_spec, "segcompact"),
            common::kFailpointCrashExitCode);
  EXPECT_FALSE(common::FileExists(dir + "/result.bin"));

  // Every compaction crash scenario fires after the full ingest, so all
  // kIngestRecords acked appends must survive, with no quarantine and a
  // segment count that is exactly the pre-compaction fan-out or the
  // merged output — the commit point is the manifest rename, so nothing
  // in between can be observed.
  {
    common::StatusOr<std::unique_ptr<index::SegmentedIndex>> recovered =
        index::SegmentedIndex::Open(dir + "/index", CompactIngestOptions());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value()->size(), kIngestRecords);
    EXPECT_TRUE(recovered.value()->quarantined().empty());
    const uint64_t segments = recovered.value()->segment_count();
    EXPECT_TRUE(segments == kPreCompactionSegments || segments == 1)
        << "mixed pre/post-compaction state: " << segments << " segments";
  }

  // Resume without injection; the final state must be bit-exact with an
  // uninterrupted ingest+compact run in a fresh directory.
  ASSERT_EQ(RunChild(dir, "", "segcompact"), 0);
  const auto result = common::ReadFileToString(dir + "/result.bin");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string base = ScratchDir((std::string(name) + "_base").c_str());
  const common::StatusOr<std::string> baseline =
      CompactAndEncode(base + "/index");
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(result.value(), baseline.value());
}

TEST(CrashRecoveryTest, IndexCompactionCrashDuringSelectLeavesPreState) {
  // Dies inside phase 1 (input selection under the writer lock): nothing
  // was written, the reserved output seq is just a gap.
  RunCompactScenario("seg_compact_select",
                     "index.segmented.compact.select@1:crash");
}

TEST(CrashRecoveryTest, IndexCompactionCrashBeforeWriteLeavesPreState) {
  // Dies in phase 2 before the merged bundle is written: pre-state on
  // disk is untouched.
  RunCompactScenario("seg_compact_pre_write",
                     "index.segmented.compact.write@1:crash");
}

TEST(CrashRecoveryTest, IndexCompactionCrashMidWriteLeavesPreState) {
  // Dies inside AtomicWriteFile renaming the merged bundle into place
  // (hits 1-10 were the 5 ingest seals x {segment, manifest}): the tmp
  // file is orphaned and GC'd, manifest still lists the 5 inputs.
  RunCompactScenario("seg_compact_mid_write",
                     "io.atomic_write.rename@11:crash");
}

TEST(CrashRecoveryTest, IndexCompactionCrashBeforePublishLeavesPreState) {
  // Dies in phase 3 after the merged bundle is durable but before the
  // manifest swap: the output is unreferenced, recovery GCs it.
  RunCompactScenario("seg_compact_pre_publish",
                     "index.segmented.compact.publish@1:crash");
}

TEST(CrashRecoveryTest, IndexCompactionCrashMidPublishLeavesPreState) {
  // Dies inside AtomicWriteFile renaming the swapped manifest (hit 12 =
  // the compaction publish; hit 11 was the merged bundle): the commit
  // point was never reached, so recovery sees the pre-compaction
  // manifest plus one unreferenced output to GC.
  RunCompactScenario("seg_compact_mid_publish",
                     "io.atomic_write.rename@12:crash");
}

TEST(CrashRecoveryTest, IndexCompactionCrashBeforeGcKeepsPostState) {
  // Dies in phase 4 before input GC: the swapped manifest is already
  // durable, so recovery lands in the post-compaction state and GCs the
  // 5 superseded input bundles itself.
  RunCompactScenario("seg_compact_pre_gc",
                     "index.segmented.compact.gc@1:crash");
}

}  // namespace
}  // namespace tmn::core

int main(int argc, char** argv) {
  if (const char* mode = std::getenv("TMN_CRASH_CHILD"); mode != nullptr) {
    if (std::string(mode) == "segindex") {
      return tmn::core::IndexCrashChildMain();
    }
    if (std::string(mode) == "segcompact") {
      return tmn::core::CompactCrashChildMain();
    }
    return tmn::core::CrashChildMain();
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "cannot resolve /proc/self/exe\n");
    return 1;
  }
  buf[n] = '\0';
  tmn::core::g_self_exe = buf;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
