#!/usr/bin/env bash
# The repository's one-command correctness gate. The stage list lives in
# one place — STAGE_TITLES below — which drives both the "N-stage" prose
# and every numbered banner; the blocks follow in the same order. Two
# stages are optional and skip with a notice when their tool is absent:
# thread-safety (needs clang++ — gcc compiles the annotations away) and
# clang-tidy.
#
# Any finding in any stage exits non-zero; the clang-tidy exit code is
# captured explicitly so a findings-only run cannot be swallowed. Each
# stage's output is mirrored to build/check-logs/<stage>.log (CI uploads
# these as artifacts). See docs/STATIC_ANALYSIS.md.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
LOG_DIR=build/check-logs
mkdir -p "$LOG_DIR"

# The stage table is the single source of truth for the stage count and
# the numbered banners: adding a stage means adding its title here and
# calling `stage` once before its block — the [N/total] prose renumbers
# itself.
STAGE_TITLES=(
  "Standard build (-Werror) + full ctest"
  "Bench gate: bench_micro_nn + bench_micro_distance + bench_micro_serve vs committed baselines"
  "tmn_lint gate"
  "clang thread-safety analysis (-Wthread-safety)"
  "Debug build: TMN_DCHECK invariant layer"
  "UndefinedBehaviorSanitizer: numeric core tests"
  "ThreadSanitizer: concurrency tests"
  "Fault injection: failpoint build + crash recovery"
  "Index recovery: segmented fault matrix + bench baseline gate"
  "clang-tidy (bugprone-*, performance-*, concurrency-*)"
)
STAGE_TOTAL=${#STAGE_TITLES[@]}
STAGE_INDEX=0
stage() {
  STAGE_INDEX=$((STAGE_INDEX + 1))
  echo "== [${STAGE_INDEX}/${STAGE_TOTAL}] ${STAGE_TITLES[$((STAGE_INDEX - 1))]} =="
}

echo "tools/check.sh: ${STAGE_TOTAL}-stage correctness gate"

stage
{
  cmake -B build -S . -DTMN_WERROR=ON >/dev/null
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
} 2>&1 | tee "$LOG_DIR/1-build-ctest.log"

stage
{
  cmake --build build -j "$JOBS" \
      --target bench_micro_nn bench_micro_distance bench_micro_serve \
      bench_compare
  # Stable checksum gauges hard-fail on drift; the timer gauges only warn.
  ./build/bench/bench_micro_nn "$LOG_DIR/BENCH_nn.json" \
      --benchmark_filter=NONE
  ./build/tools/bench_compare bench/baselines/BENCH_nn.json \
      "$LOG_DIR/BENCH_nn.json"
  ./build/bench/bench_micro_distance "$LOG_DIR/BENCH_distance.json" \
      --benchmark_filter=NONE
  ./build/tools/bench_compare bench/baselines/BENCH_distance.json \
      "$LOG_DIR/BENCH_distance.json"
  # The encode path's stable gauges: trajectories encoded, the arena's
  # high-water mark and batched == serial bitwise identity.
  ./build/bench/bench_micro_serve "$LOG_DIR/BENCH_serve.json"
  ./build/tools/bench_compare bench/baselines/BENCH_serve.json \
      "$LOG_DIR/BENCH_serve.json"
} 2>&1 | tee "$LOG_DIR/2-bench.log"

stage
{
  ./build/tools/tmn_lint --report="$LOG_DIR/LINT.json" \
      src tests bench tools examples
  echo "-- lint clean (metrics: $LOG_DIR/LINT.json)"
} 2>&1 | tee "$LOG_DIR/3-lint.log"

stage
if command -v clang++ >/dev/null 2>&1; then
  {
    # Syntax-only pass: proves the TMN_GUARDED_BY / TMN_REQUIRES contract
    # on every library TU without a full clang build. Thread-safety
    # diagnostics are errors; unrelated clang-only warnings are not.
    mapfile -t TS_SOURCES < <(find src -name '*.cc' | sort)
    for f in "${TS_SOURCES[@]}"; do
      clang++ -std=c++20 -fsyntax-only -Isrc \
          -Wthread-safety -Werror=thread-safety "$f"
    done
    echo "-- thread-safety clean over ${#TS_SOURCES[@]} sources"
    # The analysis must actually bite: the deliberately-unlocked fixture
    # has to be rejected.
    if clang++ -std=c++20 -fsyntax-only -Isrc \
        -Wthread-safety -Werror=thread-safety \
        tests/testdata/threadsafety/ts_bad.cc 2>/dev/null; then
      echo "error: ts_bad.cc compiled clean; thread-safety analysis inert" >&2
      exit 1
    fi
    clang++ -std=c++20 -fsyntax-only -Isrc \
        -Wthread-safety -Werror=thread-safety \
        tests/testdata/threadsafety/ts_good.cc
    echo "-- negative fixture rejected, annotated fixture accepted"
  } 2>&1 | tee "$LOG_DIR/4-thread-safety.log"
else
  echo "-- notice: clang++ not installed; skipping thread-safety analysis" \
       "(gcc compiles the annotations away)" \
      | tee "$LOG_DIR/4-thread-safety.log"
fi

stage
{
  cmake -B build-debug -S . -DCMAKE_BUILD_TYPE=Debug -DTMN_WERROR=ON \
      >/dev/null
  cmake --build build-debug -j "$JOBS" --target invariants_test
  # In a Debug build the library-level death tests must RUN (not skip): a
  # malformed op call has to abort via TMN_DCHECK.
  ./build-debug/tests/invariants_test --gtest_filter='InvariantLayer*'
} 2>&1 | tee "$LOG_DIR/5-invariants.log"
if grep -q "SKIPPED" "$LOG_DIR/5-invariants.log"; then
  echo "error: invariant death tests skipped in a Debug build" >&2
  exit 1
fi

stage
UBSAN_TESTS=(tensor_test ops_test autograd_test batched_lstm_test
             kernels_test rnn_test loss_test distance_test sampler_test
             trainer_test eval_test segmented_index_test)
{
  cmake -B build-ubsan -S . -DTMN_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS" --target "${UBSAN_TESTS[@]}"
  # Run binaries directly: ctest registers gtest-discovered case names, so
  # filtering by binary name would match nothing.
  for t in "${UBSAN_TESTS[@]}"; do
    echo "-- UBSan: $t"
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        "./build-ubsan/tests/$t"
  done
} 2>&1 | tee "$LOG_DIR/6-ubsan.log"

stage
TSAN_TESTS=(thread_pool_test kernels_test trainer_test distance_test
            eval_test integration_test serve_batch_test serve_test
            segmented_index_test)
{
  cmake -B build-tsan -S . -DTMN_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    echo "-- TSan: $t"
    TSAN_OPTIONS="halt_on_error=1" "./build-tsan/tests/$t"
  done
} 2>&1 | tee "$LOG_DIR/7-tsan.log"

stage
FAULT_TESTS="Failpoint|CrashRecovery|Checkpoint|Resume|Loader|IoUtil|Bundle|Payload|Crc32|ModelIo|Serve"
{
  cmake -B build-failpoints -S . -DTMN_WERROR=ON -DTMN_FAILPOINTS=ON \
      >/dev/null
  cmake --build build-failpoints -j "$JOBS"
  ctest --test-dir build-failpoints --output-on-failure -j "$JOBS" \
      -R "$FAULT_TESTS"
} 2>&1 | tee "$LOG_DIR/8-fault-injection.log"
# In a failpoint build the injection-gated tests must RUN (not skip).
if grep -q "built without failpoint sites" "$LOG_DIR/8-fault-injection.log"; then
  echo "error: failpoint tests skipped in a failpoint build" >&2
  exit 1
fi

stage
{
  # The segmented-index recovery matrix (docs/INDEXING.md) in the
  # failpoint build from the previous stage: every IO boundary knocked
  # out in turn (including each compaction phase — select, write,
  # publish, GC), the WAL bit-rot fuzz sweep, the re-exec crash sites
  # (ingest and the full compaction matrix) recovered bit-exactly to the
  # pre- or post-compaction manifest, quarantine-degraded queries still
  # answering. Then the ingest/recovery bench against its committed
  # baseline: structural gauges (segments sealed, WAL records replayed,
  # compaction passes/bytes, top-k checksum, 1-vs-4-thread identity)
  # hard-fail on drift; wall clocks only warn.
  ctest --test-dir build-failpoints --output-on-failure -j "$JOBS" \
      -R "Segmented|CrashRecovery"
  cmake --build build -j "$JOBS" --target bench_micro_index bench_compare
  ./build/bench/bench_micro_index "$LOG_DIR/BENCH_index.json"
  ./build/tools/bench_compare bench/baselines/BENCH_index.json \
      "$LOG_DIR/BENCH_index.json"
} 2>&1 | tee "$LOG_DIR/9-index-recovery.log"
if grep -q "built without failpoint sites" "$LOG_DIR/9-index-recovery.log"; then
  echo "error: segmented failpoint tests skipped in a failpoint build" >&2
  exit 1
fi

stage
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is emitted by the standard build in stage 1.
  mapfile -t TIDY_SOURCES < <(find src tools -name '*.cc' | sort)
  TIDY_RC=0
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p build -quiet "${TIDY_SOURCES[@]}" 2>&1 \
        | tee "$LOG_DIR/10-clang-tidy.log" || TIDY_RC=$?
  else
    clang-tidy -p build --quiet "${TIDY_SOURCES[@]}" 2>&1 \
        | tee "$LOG_DIR/10-clang-tidy.log" || TIDY_RC=$?
  fi
  if [ "$TIDY_RC" -ne 0 ]; then
    echo "error: clang-tidy reported findings (exit $TIDY_RC)" >&2
    exit "$TIDY_RC"
  fi
else
  echo "-- notice: clang-tidy not installed; skipping tidy pass" \
       "(install clang-tidy to enable it)" | tee "$LOG_DIR/10-clang-tidy.log"
fi

echo "== All ${STAGE_TOTAL} stages passed =="
