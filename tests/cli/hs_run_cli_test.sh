#!/bin/sh
# CLI contract test for hs_run.
#
# The driver's argument parser is strict: unknown options, missing or
# malformed values, and trailing garbage must all print the usage text
# to stderr and exit 2, while well-formed invocations exit 0 and
# produce the files they promised. ctest runs this via the hs_run_cli
# test; it needs no fixtures beyond the built binary and the repo's
# attacks/ directory.
#
# usage: hs_run_cli_test.sh <path-to-hs_run> <repo-root>

set -u

BIN=$1
ROOT=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# A large time scale keeps every simulated quantum tiny (25 K cycles).
FAST="--scale 20000"
fails=0

fail()
{
    echo "FAIL: $1" >&2
    fails=$((fails + 1))
}

# expect_usage DESC ARGS... : must exit 2 and print the usage text.
expect_usage()
{
    desc=$1
    shift
    "$BIN" "$@" >"$TMP/out" 2>"$TMP/err"
    rc=$?
    [ "$rc" -eq 2 ] || fail "$desc: expected exit 2, got $rc"
    grep -q "usage:" "$TMP/err" || fail "$desc: no usage text on stderr"
}

# expect_ok DESC ARGS... : must exit 0.
expect_ok()
{
    desc=$1
    shift
    "$BIN" "$@" >"$TMP/out" 2>"$TMP/err"
    rc=$?
    [ "$rc" -eq 0 ] || fail "$desc: expected exit 0, got $rc"
}

# --- malformed command lines must all die through usage() --------------

expect_usage "no workloads"
expect_usage "unknown option" --frobnicate
expect_usage "trailing garbage" --spec gcc $FAST garbage
expect_usage "stray positional" gcc
expect_usage "missing value" --spec gcc $FAST --jobs
expect_usage "non-numeric scale" --spec gcc --scale banana
expect_usage "partial numeric scale" --spec gcc --scale 400x
expect_usage "negative scale" --spec gcc --scale -1
expect_usage "zero jobs" --spec gcc $FAST --jobs 0
expect_usage "variant out of range" --variant 9 $FAST
expect_usage "non-integer variant" --variant two $FAST
expect_usage "unknown dtm" --spec gcc $FAST --dtm nothing
expect_usage "unknown sink" --spec gcc $FAST --sink water
expect_usage "negative noise" --spec gcc $FAST --noise -0.5
expect_usage "value on flag" --spec gcc $FAST --stats=yes
expect_usage "filter without trace" --spec gcc $FAST --trace-filter dtm
expect_usage "unknown trace category" \
    --spec gcc $FAST --trace "$TMP/t.jsonl" --trace-filter dtm,bogus
expect_usage "each with stats" --spec gcc --spec mcf $FAST --each --stats
expect_usage "value on progress" --spec gcc $FAST --progress=yes
expect_usage "progress with stats" --spec gcc $FAST --progress --stats
expect_usage "progress with profile" --spec gcc $FAST --progress --profile
expect_usage "zero cores" --spec gcc $FAST --cores 0
expect_usage "negative cores" --spec gcc $FAST --cores -2
expect_usage "non-integer cores" --spec gcc $FAST --cores two
expect_usage "partial numeric cores" --spec gcc $FAST --cores 2x
expect_usage "non-integer place" --spec gcc --variant 2 $FAST \
    --cores 2 --place 0,x
expect_usage "empty place entry" --spec gcc --variant 2 $FAST \
    --cores 2 --place "0,,1"
expect_usage "place entry out of range" --spec gcc --variant 2 $FAST \
    --cores 2 --place 0,2
expect_usage "negative place entry" --spec gcc --variant 2 $FAST \
    --cores 2 --place 0,-1
expect_usage "place length mismatch" --spec gcc --variant 2 $FAST \
    --cores 2 --place 0
expect_usage "place with each" --spec gcc --spec mcf $FAST --each \
    --place 0,0
expect_usage "value on help" --help=yes
expect_usage "missing store value" --spec gcc $FAST --store
expect_usage "empty store value" --spec gcc $FAST --store ""
expect_usage "zero serve port" --serve 0
expect_usage "negative serve port" --serve -1
expect_usage "serve port out of range" --serve 65536
expect_usage "non-integer serve port" --serve http
expect_usage "serve with workload" --spec gcc $FAST --serve 7471
expect_usage "serve with workers" --serve 7471 --workers 127.0.0.1:7472
expect_usage "serve with output" --serve 7471 --json "$TMP/x.json"
expect_usage "workers without port" --spec gcc $FAST --workers 127.0.0.1
expect_usage "workers bad port" --spec gcc $FAST --workers host:0
expect_usage "workers empty entry" --spec gcc $FAST --workers "a:1,,b:2"
expect_usage "workers with stats" --spec gcc $FAST \
    --workers 127.0.0.1:1 --stats
expect_usage "store with profile" --spec gcc $FAST \
    --store "$TMP/store" --profile
expect_usage "missing log-json value" --spec gcc $FAST --log-json
expect_usage "empty log-json value" --spec gcc $FAST --log-json ""
expect_usage "zero status port" --spec gcc $FAST --status-port 0
expect_usage "negative status port" --spec gcc $FAST --status-port -1
expect_usage "status port out of range" --spec gcc $FAST \
    --status-port 65536
expect_usage "non-integer status port" --spec gcc $FAST \
    --status-port banana
expect_usage "serve with status port" --serve 7471 --status-port 7999
expect_usage "status port with profile" --spec gcc $FAST \
    --status-port 7999 --profile

# A --serve worker takes every run setting from its coordinator, so
# each option it would ignore is refused (--log-json stays legal).
expect_usage "serve with jobs" --serve 7471 --jobs 4
expect_usage "serve with store" --serve 7471 --store "$TMP/store"
expect_usage "serve with cores" --serve 7471 --cores 3
expect_usage "serve with place" --serve 7471 --place 0
expect_usage "serve with dtm" --serve 7471 --dtm none
expect_usage "serve with sink" --serve 7471 --sink ideal
expect_usage "serve with scale" --serve 7471 --scale 7
expect_usage "serve with conv" --serve 7471 --conv 0.7
expect_usage "serve with upper" --serve 7471 --upper 357
expect_usage "serve with lower" --serve 7471 --lower 354
expect_usage "serve with noise" --serve 7471 --noise 0.5
expect_usage "serve with deschedule" --serve 7471 --deschedule 3
expect_usage "serve with trace filter" --serve 7471 --trace-filter dtm

# --- well-formed invocations -------------------------------------------

# Asking for help is not an error: the usage text goes to stdout and
# the exit status is 0.
for h in --help -h; do
    expect_ok "help $h" $h
    grep -q "usage:" "$TMP/out" || fail "help $h: no usage text on stdout"
    [ -s "$TMP/err" ] && fail "help $h: unexpected stderr output"
done

# The docs point at --help for the knob list, so every HS_* name they
# mention must be in it. Build- and test-only variables are exempt.
"$BIN" --help >"$TMP/help"
for name in $(grep -ohE 'HS_[A-Z][A-Z_]*' "$ROOT/README.md" \
        "$ROOT"/docs/*.md | sort -u); do
    case $name in
        HS_SANITIZE | HS_TSAN | HS_REGOLDEN | HS_SOURCE_DIR | \
            HS_CHAOS_* | HS_PERF_REFRESH) continue ;;
    esac
    grep -qw "$name" "$TMP/help" ||
        fail "docs name $name, which hs_run --help does not list"
done

# Progress output goes to stderr; when stderr is not a TTY (as here)
# it must degrade to plain periodic lines: no ANSI escapes, no
# carriage-return redraws, and a final completion summary.
expect_ok "progress matrix" --spec gcc --spec mcf $FAST --each \
    --jobs 2 --progress
grep -q "\[progress\] 2/2 cells" "$TMP/err" ||
    fail "progress: no completion line on stderr"
grep -q "$(printf '\033')" "$TMP/err" &&
    fail "progress: ANSI escape in non-TTY output"
grep -q "$(printf '\r')" "$TMP/err" &&
    fail "progress: carriage return in non-TTY output"

# expect_bad_env DESC VAR=VALUE ARGS... : a malformed HS_* knob must
# exit 1 at start-up and name the knob, whichever path would read it.
# The timeout bounds a --serve case that wrongly starts serving.
expect_bad_env()
{
    desc=$1
    setting=$2
    shift 2
    env "$setting" timeout 60 "$BIN" "$@" >"$TMP/out" 2>"$TMP/err"
    rc=$?
    [ "$rc" -eq 1 ] || fail "$desc: expected exit 1, got $rc"
    grep -q "${setting%%=*}" "$TMP/err" ||
        fail "$desc: error does not name ${setting%%=*}"
}

expect_bad_env "bad HS_STATUS_PORT" HS_STATUS_PORT=banana --spec gcc $FAST
expect_bad_env "bad HS_JOBS under --jobs" HS_JOBS=abc --spec gcc $FAST \
    --jobs 1
expect_bad_env "HS_STATUS_PORT out of range under --stats" \
    HS_STATUS_PORT=99999 --spec gcc $FAST --stats
expect_bad_env "bad HS_REMOTE_TIMEOUT_MS" HS_REMOTE_TIMEOUT_MS=abc \
    --spec gcc $FAST
expect_bad_env "bad HS_HEARTBEAT_MS under --serve" HS_HEARTBEAT_MS=abc \
    --serve 47999
expect_bad_env "bad HS_SCALE" HS_SCALE=50x --spec gcc
expect_bad_env "bad HS_FAULTS" HS_FAULTS=garbage --spec gcc $FAST

HS_LOG_JSON="$TMP/no-such-dir/log.jsonl" "$BIN" --spec gcc $FAST \
    >"$TMP/out" 2>"$TMP/err"
[ $? -eq 1 ] || fail "log: unwritable HS_LOG_JSON not rejected"
grep -q "HS_LOG_JSON" "$TMP/err" ||
    fail "log: HS_LOG_JSON error message missing"

# A happy-path fleet run: the structured log is the timeline, and it
# carries every cell lifecycle event.
expect_ok "events timeline" --spec gcc --spec mcf $FAST --each \
    --jobs 2 --log-json "$TMP/fleet.jsonl"
grep -q '"event":"queued"' "$TMP/fleet.jsonl" ||
    fail "events: no queued event in timeline"
grep -q '"event":"finished"' "$TMP/fleet.jsonl" ||
    fail "events: no finished event in timeline"
grep -q '"event":"matrix_done"' "$TMP/fleet.jsonl" ||
    fail "events: no matrix_done event in timeline"

# With a store and no --log-json / HS_LOG_JSON, the store keeps the log.
expect_ok "store keeps the timeline" --spec gcc $FAST \
    --store "$TMP/logstore"
grep -q '"event":"matrix_done"' "$TMP/logstore/events.jsonl" ||
    fail "events: store run left no events.jsonl"

HS_LOG_JSON="$TMP/envlog.jsonl" "$BIN" --spec gcc $FAST \
    >"$TMP/out" 2>"$TMP/err"
[ $? -eq 0 ] || fail "log: HS_LOG_JSON run failed"
[ -s "$TMP/envlog.jsonl" ] || fail "log: HS_LOG_JSON produced no log"

expect_ok "plain run" --spec gcc $FAST
expect_ok "inline values" --spec=gcc --scale=20000 --dtm=sedation
expect_ok "attack mix" --spec gcc \
    --asm "$ROOT/attacks/figure1_hammer.s" $FAST --dtm sedation

expect_ok "jsonl event trace" --spec gcc $FAST --dtm sedation \
    --trace "$TMP/events.jsonl" --trace-filter dtm,thermal,episode
[ -f "$TMP/events.jsonl" ] || fail "jsonl trace file missing"

expect_ok "chrome event trace" --spec gcc $FAST --dtm sedation \
    --trace "$TMP/events.json"
grep -q '"traceEvents"' "$TMP/events.json" ||
    fail "chrome trace lacks traceEvents"

expect_ok "json with metrics" --spec gcc $FAST --json "$TMP/run.json"
grep -q '"metrics"' "$TMP/run.json" || fail "json lacks metrics object"
grep -q '"hs_run.sim_cycles"' "$TMP/run.json" ||
    fail "json lacks hs_run.sim_cycles counter"

# Single mode runs one cell outside the engine: --stats and --profile
# print from the live simulator, and its metrics carry no engine.* key.
expect_ok "single-mode stats and profile" --spec gcc --variant 2 $FAST \
    --dtm sedation --stats --profile --json "$TMP/single.json"
grep -q "== sim ==" "$TMP/out" || fail "stats: no sim section"
grep -q "dtm.sedation.events" "$TMP/out" ||
    fail "stats: no dtm.sedation.events line"
grep -q "cost centre" "$TMP/out" || fail "profile: no cost centre table"
grep -q '"hs_run.sim_cycles"' "$TMP/single.json" ||
    fail "single mode: json lacks hs_run.sim_cycles counter"
grep -q '"engine\.' "$TMP/single.json" &&
    fail "single mode: json has an engine metric"

expect_ok "each matrix" --spec gcc --spec mcf $FAST --each \
    --csv "$TMP/each.csv"
[ -s "$TMP/each.csv" ] || fail "csv output missing"

# Multi-core topology: a 2-core split run must report per-core tables
# on stdout, tag threads and events with their core in the JSON/JSONL
# artifacts, and stay deterministic. This one runs a longer quantum
# (250 K cycles) than $FAST: the attacker tile needs time to produce
# core-1 trace events on a properly-sized package.
expect_ok "two-core split run" --spec gcc --variant 2 --scale 2000 \
    --cores 2 --place 0,1 --json "$TMP/mc.json" \
    --trace "$TMP/mc.jsonl"
grep -q "core" "$TMP/out" || fail "two-core: no per-core table"
grep -q '"cores"' "$TMP/mc.json" ||
    fail "two-core: json lacks per-core result array"
grep -q '"core": 1' "$TMP/mc.json" ||
    fail "two-core: json threads lack core tags"
grep -q '"core": 1' "$TMP/mc.jsonl" ||
    fail "two-core: jsonl events lack core stamps"

# --each runs each workload alone on the same (multi-core) die.
expect_ok "two-core each matrix" --spec gcc --spec mcf $FAST --each \
    --cores 2 --csv "$TMP/mc_each.csv"
[ -s "$TMP/mc_each.csv" ] || fail "two-core each: csv missing"

# Single-core artifacts must carry none of the multi-core keys.
expect_ok "single-core json" --spec gcc $FAST --json "$TMP/sc.json"
grep -q '"cores"' "$TMP/sc.json" &&
    fail "single-core: json grew a cores array"
grep -q '"core"' "$TMP/sc.json" &&
    fail "single-core: json threads grew core tags"

if [ "$fails" -ne 0 ]; then
    echo "$fails CLI contract check(s) failed" >&2
    exit 1
fi
echo "all CLI contract checks passed"
exit 0
