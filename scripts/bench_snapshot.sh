#!/bin/sh
# Emit results/BENCH_PR8.json: a machine-readable snapshot of the
# throughput surfaces this repo cares about.
#
#  - "hotpath_mcps": per-cost-centre throughput rows from
#    bench_hotpath (tick / thermal / stalled / matrix_cold /
#    matrix_prefix / matrix_store_warm, Mcycles of simulated time per
#    host second)
#  - "stepbatch_mups": the multi-RHS thermal kernel at lane widths
#    2/8/32 (millions of node-lane updates per host second)
#  - "matrix": cells/sec for every experiment-engine bench that has a
#    results/<bench>.txt transcript, parsed from the "[engine] N runs
#    ... in S s" summary each bench prints
#
# Usage: scripts/bench_snapshot.sh
#
# Environment:
#   HS_SCALE  time scale for the bench_hotpath smoke run (default 200)
#
# Called at the end of run_benches.sh and scripts/check_perf.sh so a
# fresh snapshot rides along with every bench sweep; safe to run on
# its own at any time. Numbers are machine-specific — the snapshot is
# for tracking trends on one box, not for cross-machine comparison.

set -e
cd "$(dirname "$0")/.."

SCALE="${HS_SCALE:-200}"
OUT="results/BENCH_PR8.json"
mkdir -p results

if [ ! -d build ]; then
    cmake -S . -B build -DCMAKE_BUILD_TYPE=Release > /dev/null
fi
cmake --build build --target bench_hotpath -j"$(nproc)" > /dev/null

echo "bench_snapshot: running bench_hotpath at HS_SCALE=$SCALE..."
ROWS="$(HS_SCALE=$SCALE HS_JOBS=1 ./build/bench/bench_hotpath \
    2>/dev/null | grep '^\[hotpath\]' || true)"
HOTPATH="$(printf '%s\n' "$ROWS" | grep 'mcps=' || true)"
STEPBATCH="$(printf '%s\n' "$ROWS" | grep 'mups=' || true)"
[ -n "$HOTPATH" ] || {
    echo "bench_snapshot: no [hotpath] rows in bench output" >&2
    exit 1
}

{
    echo "{"
    echo "  \"hs_scale\": $SCALE,"
    echo "  \"hotpath_mcps\": {"
    printf '%s\n' "$HOTPATH" | awk '
        { for (i = 1; i <= NF; ++i) {
              if ($i ~ /^label=/) { sub(/^label=/, "", $i); l = $i }
              if ($i ~ /^mcps=/)  { sub(/^mcps=/, "", $i);  m = $i }
          }
          rows[++n] = "    \"" l "\": " m }
        END { for (i = 1; i <= n; ++i)
                  print rows[i] (i < n ? "," : "") }'
    echo "  },"
    echo "  \"stepbatch_mups\": {"
    printf '%s\n' "$STEPBATCH" | awk '
        { for (i = 1; i <= NF; ++i) {
              if ($i ~ /^label=/) { sub(/^label=/, "", $i); l = $i }
              if ($i ~ /^mups=/)  { sub(/^mups=/, "", $i);  m = $i }
          }
          rows[++n] = "    \"" l "\": " m }
        END { for (i = 1; i <= n; ++i)
                  print rows[i] (i < n ? "," : "") }'
    echo "  },"
    echo "  \"matrix\": {"
    # One entry per bench transcript that logged an engine summary;
    # the last [engine] line of a transcript describes its full matrix.
    first=1
    for f in results/bench_*.txt; do
        [ -f "$f" ] || continue
        LINE="$(grep '^\[engine\] ' "$f" | tail -1 || true)"
        [ -n "$LINE" ] || continue
        NAME="$(basename "$f" .txt)"
        ROW="$(printf '%s\n' "$LINE" | awk -v name="$NAME" '
            { runs = $2
              cached = $4; gsub(/\(/, "", cached)
              workers = $7
              secs = $10
              cps = secs > 0 ? runs / secs : 0
              printf "    \"%s\": {\"runs\": %s, \"cached\": %s, " \
                     "\"workers\": %s, \"seconds\": %s, " \
                     "\"cells_per_sec\": %.4g}", \
                     name, runs, cached, workers, secs, cps }')"
        [ "$first" = "1" ] || echo ","
        printf '%s' "$ROW"
        first=0
    done
    [ "$first" = "1" ] || echo ""
    echo "  }"
    echo "}"
} > "$OUT"
echo "bench_snapshot: wrote $OUT"
