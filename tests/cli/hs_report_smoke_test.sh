#!/bin/sh
# Smoke test for the hs_report HTML dashboard.
#
# Drives the real pipeline end to end: one tiny traced hs_run produces
# the matrix JSON and JSONL event trace, hs_report renders them, and
# the output must be a well-formed self-contained HTML document with
# the heatmap, temperature, Gantt and IPC sections present. The report
# must also be byte-identical when regenerated from the same inputs
# (no timestamps, no randomness).
#
# usage: hs_report_smoke_test.sh <path-to-hs_run> <path-to-hs_report>

set -u

RUN=$1
REPORT=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fails=0
fail()
{
    echo "FAIL: $1" >&2
    fails=$((fails + 1))
}

# A large time scale keeps the simulated quantum tiny (25 K cycles);
# sedation DTM produces per-thread spans for the Gantt strip.
"$RUN" --spec gcc --variant 2 --scale 2000 --dtm sedation \
    --json "$TMP/run.json" --trace "$TMP/run.jsonl" \
    >"$TMP/run.out" 2>&1 || fail "hs_run traced run failed"
[ -s "$TMP/run.json" ] || fail "matrix JSON missing"
[ -s "$TMP/run.jsonl" ] || fail "JSONL trace missing"

# A second run records the campaign timeline for the fleet view.
"$RUN" --spec gcc --spec mcf --scale 20000 --each --jobs 2 \
    --log-json "$TMP/fleet.jsonl" >"$TMP/fleet.out" 2>&1 ||
    fail "hs_run events run failed"
[ -s "$TMP/fleet.jsonl" ] || fail "campaign timeline missing"

# --- argument contract -------------------------------------------------

"$REPORT" >/dev/null 2>"$TMP/err"
[ $? -eq 2 ] || fail "no inputs: expected exit 2"
grep -q "usage:" "$TMP/err" || fail "no inputs: no usage text"

"$REPORT" --frobnicate >/dev/null 2>"$TMP/err"
[ $? -eq 2 ] || fail "unknown option: expected exit 2"

"$REPORT" --json >/dev/null 2>"$TMP/err"
[ $? -eq 2 ] || fail "missing value: expected exit 2"

# --- report generation -------------------------------------------------

"$REPORT" --json "$TMP/run.json" --trace "$TMP/run.jsonl" \
    --out "$TMP/report.html" >"$TMP/report.out" 2>&1 ||
    fail "hs_report failed"
[ -s "$TMP/report.html" ] || fail "report HTML missing"

html="$TMP/report.html"
grep -q "<!DOCTYPE html>" "$html" || fail "missing doctype"
grep -q "</html>" "$html" || fail "unterminated document"
grep -q "floorplan heatmap" "$html" || fail "missing heatmap section"
grep -q "temperature time series" "$html" ||
    fail "missing temperature section"
grep -q "DTM activity gantt" "$html" || fail "missing Gantt section"
grep -q "per-thread IPC bars" "$html" || fail "missing IPC section"
grep -q "Duty cycle" "$html" || fail "missing duty-cycle table"
grep -q "Run-health metrics" "$html" || fail "missing metrics table"
grep -q "IntReg" "$html" || fail "heatmap lacks the IntReg hot spot"
grep -qi "emergency 358" "$html" || fail "missing threshold label"

# Self-contained: no external scripts, stylesheets or images.
grep -Eq "src=\"http|href=\"http|<script" "$html" &&
    fail "report references external assets"

# Deterministic bytes for identical inputs.
"$REPORT" --json "$TMP/run.json" --trace "$TMP/run.jsonl" \
    --out "$TMP/report2.html" >/dev/null 2>&1 ||
    fail "second hs_report run failed"
cmp -s "$html" "$TMP/report2.html" ||
    fail "report not byte-identical across regenerations"

# stdout mode writes the document, not the "wrote" banner.
"$REPORT" --json "$TMP/run.json" --out - >"$TMP/stdout.html" 2>&1 ||
    fail "stdout mode failed"
grep -q "<!DOCTYPE html>" "$TMP/stdout.html" ||
    fail "stdout mode did not emit HTML"

# --- fleet view --------------------------------------------------------

"$REPORT" --json "$TMP/run.json" --events "$TMP/fleet.jsonl" \
    --out "$TMP/fleet.html" >/dev/null 2>&1 ||
    fail "hs_report fleet run failed"
grep -q "Fleet timeline" "$TMP/fleet.html" ||
    fail "missing fleet timeline section"
grep -q "Lane utilization" "$TMP/fleet.html" ||
    fail "missing lane utilization table"
grep -q "Cell sources" "$TMP/fleet.html" ||
    fail "missing cell-source breakdown"

# Events alone are enough to render a report.
"$REPORT" --events "$TMP/fleet.jsonl" --out - >"$TMP/fleet2.html" 2>&1 ||
    fail "events-only report failed"
grep -q "Fleet timeline" "$TMP/fleet2.html" ||
    fail "events-only report lacks the fleet timeline"

# Fleet reports are deterministic too.
"$REPORT" --json "$TMP/run.json" --events "$TMP/fleet.jsonl" \
    --out "$TMP/fleet3.html" >/dev/null 2>&1 ||
    fail "second fleet report run failed"
cmp -s "$TMP/fleet.html" "$TMP/fleet3.html" ||
    fail "fleet report not byte-identical across regenerations"

if [ "$fails" -ne 0 ]; then
    echo "$fails report smoke check(s) failed" >&2
    exit 1
fi
echo "all report smoke checks passed"
exit 0
