#!/bin/sh
# Performance regression gate for the simulation hot path.
#
# Builds Release, runs bench_hotpath at a smoke time scale, and fails
# if any row's throughput (Mcycles of simulated time per host second)
# regresses more than 20% below the checked-in baseline in
# scripts/perf_baseline.json.
#
# Usage: scripts/check_perf.sh
#
# Environment:
#   HS_SCALE         time scale for the smoke run (default 200: ~2.5 M
#                    cycles per quantum, a few seconds total)
#   HS_PERF_REFRESH  set to 1 to rewrite perf_baseline.json with the
#                    current machine's numbers instead of gating. Do
#                    this once per machine (or after an intentional
#                    perf change) — baselines are machine-specific.
#
# The gate compares each labelled row (tick / thermal / stalled /
# matrix_cold / matrix_prefix / matrix_store_warm) independently so a
# regression can be attributed to the pipeline, the thermal kernels,
# the stalled fast-forward path, or the experiment engine's prefix
# sharing / persistent store.
#
# Registered with ctest as the opt-in "perf" label (ctest -L perf);
# exits 77 (ctest SKIP) when no baseline exists on this machine.

set -e
cd "$(dirname "$0")/.."

SCALE="${HS_SCALE:-200}"
BASELINE="scripts/perf_baseline.json"
THRESHOLD_PCT=20

# Baselines are machine-specific and not checked in: without one there
# is nothing to gate against, so skip (ctest SKIP_RETURN_CODE) before
# paying for the build and the bench run.
if [ "${HS_PERF_REFRESH:-0}" != "1" ] && [ ! -f "$BASELINE" ]; then
    echo "$BASELINE missing; run HS_PERF_REFRESH=1 $0 once on this" \
        "machine to create it — skipping the gate."
    exit 77
fi

if [ ! -d build ]; then
    cmake -S . -B build -DCMAKE_BUILD_TYPE=Release > /dev/null
fi
cmake --build build --target bench_hotpath -j"$(nproc)" > /dev/null

echo "running bench_hotpath at HS_SCALE=$SCALE (HS_JOBS=1)..."
OUT="$(HS_SCALE=$SCALE HS_JOBS=1 ./build/bench/bench_hotpath 2>/dev/null)"
# Throughput rows only (the matrix_speedup line carries no mcps).
LINES="$(printf '%s\n' "$OUT" | grep '^\[hotpath\].*mcps=')"
[ -n "$LINES" ] || { echo "no [hotpath] lines in bench output" >&2; exit 1; }

if [ "${HS_PERF_REFRESH:-0}" = "1" ]; then
    {
        echo "{"
        echo "  \"hs_scale\": $SCALE,"
        echo "  \"threshold_pct\": $THRESHOLD_PCT,"
        printf '%s\n' "$LINES" | awk '
            { for (i = 1; i <= NF; ++i) {
                  if ($i ~ /^label=/) { sub(/^label=/, "", $i); l = $i }
                  if ($i ~ /^mcps=/)  { sub(/^mcps=/, "", $i);  m = $i }
              }
              rows[++n] = "  \"" l "\": " m }
            END { for (i = 1; i <= n; ++i)
                      print rows[i] (i < n ? "," : "") }'
        echo "}"
    } > "$BASELINE"
    echo "baseline refreshed:"
    cat "$BASELINE"
    exit 0
fi

FAIL=0
for LABEL in tick thermal stalled matrix_cold matrix_prefix \
             matrix_store_warm; do
    NOW="$(printf '%s\n' "$LINES" |
        awk -v l="$LABEL" '
            { for (i = 1; i <= NF; ++i) {
                  if ($i == "label=" l) found = 1
                  if ($i ~ /^mcps=/) m = substr($i, 6)
              }
              if (found) { print m; exit } found = 0 }')"
    BASE="$(awk -v l="\"$LABEL\":" '$1 == l { gsub(/,/, "", $2); print $2 }' \
        "$BASELINE")"
    if [ -z "$NOW" ] || [ -z "$BASE" ]; then
        echo "FAIL  $LABEL: missing measurement or baseline" >&2
        FAIL=1
        continue
    fi
    OK="$(awk -v now="$NOW" -v base="$BASE" -v pct="$THRESHOLD_PCT" \
        'BEGIN { print (now >= base * (100 - pct) / 100) ? 1 : 0 }')"
    PCT="$(awk -v now="$NOW" -v base="$BASE" \
        'BEGIN { printf "%+.1f", (now / base - 1) * 100 }')"
    if [ "$OK" = "1" ]; then
        echo "OK    $LABEL: $NOW Mc/s vs baseline $BASE ($PCT%)"
    else
        echo "FAIL  $LABEL: $NOW Mc/s vs baseline $BASE ($PCT%," \
            "gate -$THRESHOLD_PCT%)" >&2
        FAIL=1
    fi
done

if [ "$FAIL" != "0" ]; then
    echo "hot-path throughput regressed; if intentional, refresh with" \
        "HS_PERF_REFRESH=1 $0" >&2
    exit 1
fi
echo "hot-path throughput within $THRESHOLD_PCT% of baseline."

# Refresh the machine-readable snapshot alongside a passing gate run
# (best effort — the gate verdict above is what matters).
sh scripts/bench_snapshot.sh || echo "bench snapshot failed" >&2
