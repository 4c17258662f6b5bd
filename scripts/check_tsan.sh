#!/bin/sh
# Build the tree under ThreadSanitizer and run the parallel-engine
# tests. Guards the ParallelRunner / ResultStore / prefix-sharing
# concurrency against data races; a clean pass prints TSAN_CLEAN.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
#
# Registered with ctest as the opt-in "tsan" label. The full
# instrumented build + run takes many minutes, so it only executes
# when HS_TSAN=1 is set (HS_TSAN=1 ctest -L tsan); otherwise it exits
# 77 (ctest SKIP).
set -e
cd "$(dirname "$0")/.."
BUILD="${1:-build-tsan}"

if [ "${HS_TSAN:-0}" != "1" ]; then
    echo "HS_TSAN not set; skipping the ThreadSanitizer gate" \
        "(run with HS_TSAN=1 to enable)."
    exit 77
fi

cmake -B "$BUILD" -S . -DHS_SANITIZE=thread >/dev/null
cmake --build "$BUILD" -j"$(nproc)" --target hs_tests
# Remote* exercises the coordinator/worker threads, Fault*/Chaos* the
# fault-injection layer under concurrent firing (a small seed sweep —
# the full 100-seed sweep belongs to the uninstrumented suite), and
# StatusEndpoint*/CellTally*/RunHealth* the cell tally, which worker
# lanes write while the status and watchdog threads read it.
HS_CHAOS_SEEDS=8 TSAN_OPTIONS="halt_on_error=1" \
    "$BUILD/tests/hs_tests" \
    --gtest_filter='Runner*:RunSpec*:RunnerDeathTest*:Snapshot*:Remote*:Fault*:Chaos*:Campaign*:StatusEndpoint*:CellTally*:RunHealth*-Snapshot.EveryFamilyBitIdenticalAtJobs1'
echo TSAN_CLEAN
