#!/usr/bin/env bash
# The repository's correctness gate: one table of lanes. A lane is a build
# configuration plus what runs in it. Tests join the dcheck, ubsan, tsan
# and failpoints lanes through a ctest label (tmn_add_test's LANES in
# tests/CMakeLists.txt), never through a list here. CI runs one lane per
# matrix entry (.github/workflows/ci.yml), and the ctest entry
# check_sh_lanes_match_ci keeps the two lane lists equal. See
# docs/STATIC_ANALYSIS.md.
#
# Usage: tools/check.sh [lane...]
#
# With no lane, every lane runs in table order, and thread-safety and tidy
# skip with a notice when clang++ or clang-tidy is missing. A lane named
# on the command line fails instead. Each lane's output is mirrored to
# build/check-logs/<lane>.log.
set -euo pipefail
cd "$(dirname "$0")/.."

LANES=(release thread-safety dcheck ubsan tsan failpoints perfbench tidy)

JOBS=$(nproc)
LOG_DIR=build/check-logs

# The tests of <tree>, or those the remaining ctest arguments select.
run_ctest() {
  ctest --test-dir "$1" --output-on-failure -j "$JOBS" "${@:2}" \
      --output-log "$LOG_DIR/$lane.ctest.log"
}

# A lane whose build gives every labelled case what it needs fails when
# one skips anyway. ctest lists skipped tests as "did not run".
no_skips() {
  if grep -q "tests did not run" "$LOG_DIR/$lane.ctest.log"; then
    echo "error: tests skipped in the $lane lane" >&2
    return 1
  fi
}

# Configures <tree> with the remaining flags and builds the lane's tests.
build_lane_tests() {
  cmake -B "$1" -S . "${@:2}" >/dev/null
  cmake --build "$1" -j "$JOBS" --target "${lane}_tests"
}

# A lane named on the command line fails without <tool>; the full run
# skips the lane with a notice.
need() {
  command -v "$1" >/dev/null 2>&1 && return 0
  if (( NAMED )); then
    echo "error: lane $lane needs $1, which is not installed" >&2
    exit 1
  fi
  echo "-- notice: $1 not installed; skipping lane $lane"
  return 1
}

run_lane() {
  case "$lane" in
    release)
      cmake -B build -S . -DTMN_WERROR=ON >/dev/null
      cmake --build build -j "$JOBS"
      # The determinism contract: the portable kernels pass unchanged.
      # They go first, so the reports left in build/ (BENCH_*.json,
      # LINT_first.json) come from the default kernels.
      TMN_KERNELS=scalar run_ctest build
      run_ctest build
      # tmn_lint stays one dependency-free TU.
      c++ -std=c++20 -fsyntax-only tools/tmn_lint.cc
      ;;
    thread-safety)
      # gcc compiles the TMN_GUARDED_BY / TMN_REQUIRES annotations away.
      # A syntax-only clang pass proves the lock contract on every library
      # TU; only thread-safety diagnostics are errors.
      need clang++ || return 0
      local ts=(clang++ -std=c++20 -fsyntax-only -Isrc
                -Wthread-safety -Werror=thread-safety) f
      for f in $(find src -name '*.cc' | sort); do
        "${ts[@]}" "$f"
      done
      # The analysis must bite: the deliberately unlocked fixture fails.
      if "${ts[@]}" tests/testdata/threadsafety/ts_bad.cc 2>/dev/null; then
        echo "error: ts_bad.cc compiled clean; analysis inert" >&2
        return 1
      fi
      "${ts[@]}" tests/testdata/threadsafety/ts_good.cc
      ;;
    dcheck)
      build_lane_tests build-debug -DCMAKE_BUILD_TYPE=Debug -DTMN_WERROR=ON
      run_ctest build-debug -L dcheck
      no_skips
      ;;
    ubsan)
      build_lane_tests build-ubsan -DTMN_WERROR=ON -DTMN_SANITIZE=undefined
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
          run_ctest build-ubsan -L ubsan
      ;;
    tsan)
      build_lane_tests build-tsan -DTMN_SANITIZE=thread
      TSAN_OPTIONS=halt_on_error=1 run_ctest build-tsan -L tsan
      ;;
    failpoints)
      build_lane_tests build-failpoints -DTMN_WERROR=ON -DTMN_FAILPOINTS=ON \
          -DTMN_SANITIZE=address
      run_ctest build-failpoints -L failpoints
      no_skips
      ;;
    perfbench)
      # At corpus scale: SubmitTopK equals TopK bit for bit, and the traced
      # per-layer replay agrees with the server's answers.
      python3 perfbench/run.py --test
      for w in serve_embed serve_exact; do
        python3 perfbench/run.py --workload "$w" --seed 1 --seconds 6 \
            --trace 1
      done
      ;;
    tidy)
      # Reads the release tree's compile_commands.json.
      need clang-tidy || return 0
      cmake -B build -S . -DTMN_WERROR=ON >/dev/null
      local sources
      mapfile -t sources < <(find src tools -name '*.cc' | sort)
      if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -p build -quiet "${sources[@]}"
      else
        clang-tidy -p build --quiet "${sources[@]}"
      fi
      ;;
  esac
}

NAMED=$#
(( NAMED )) || set -- "${LANES[@]}"
for lane in "$@"; do
  if [[ " ${LANES[*]} " != *" $lane "* ]]; then
    echo "error: unknown lane '$lane' (lanes: ${LANES[*]})" >&2
    exit 2
  fi
done

mkdir -p "$LOG_DIR"
for lane in "$@"; do
  echo "== lane $lane =="
  start=$SECONDS
  run_lane 2>&1 | tee "$LOG_DIR/$lane.log"
  echo "-- lane $lane done in $((SECONDS - start)) s"
done
echo "== no lane failed: $* =="
