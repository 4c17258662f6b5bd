#!/bin/sh
# Contract test for `hs_store prune`, the store GC subcommand.
#
# Fills a store through hs_run, then exercises retention (--older-than,
# via touch-backdated mtimes), --dry-run accounting, --sweep-corrupt,
# the refusal to delete anything that is not a visible *.hsr record
# (the store's events.jsonl in particular), strict command-line parsing,
# and finally that a pruned store still serves a correct campaign —
# pruned cells recompute, surviving cells serve from disk.
#
# usage: hs_store_cli_test.sh <path-to-hs_store> <path-to-hs_run>

set -u

STORE_BIN=$1
RUN_BIN=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

MATRIX="--spec gcc --spec mcf --spec mesa --spec vpr --each \
        --scale 20000"
STORE="$TMP/store"
fails=0

fail()
{
    echo "FAIL: $1" >&2
    fails=$((fails + 1))
}

norm_csv()
{
    sed 's/,[^,]*,[^,]*$//' "$1"
}

records()
{
    find "$STORE" -name '*.hsr' ! -name '.*' | wc -l
}

# --- populate the store ------------------------------------------------

# shellcheck disable=SC2086
"$RUN_BIN" $MATRIX --jobs 1 --store "$STORE" --csv "$TMP/ref.csv" \
    >/dev/null 2>&1 || fail "populate: hs_run failed"
[ "$(records)" -eq 4 ] || fail "populate: expected 4 records"

# --- strict command line -----------------------------------------------

"$STORE_BIN" >/dev/null 2>&1 && fail "no args: expected exit 2"
"$STORE_BIN" frobnicate >/dev/null 2>&1 &&
    fail "unknown subcommand: expected exit 2"
"$STORE_BIN" prune >/dev/null 2>&1 && fail "no dir: expected exit 2"
"$STORE_BIN" prune "$STORE" >/dev/null 2>&1 &&
    fail "no rule: expected exit 2 (prune that can delete nothing)"
"$STORE_BIN" prune "$STORE" --older-than >/dev/null 2>&1 &&
    fail "missing days: expected exit 2"
"$STORE_BIN" prune "$STORE" --older-than x >/dev/null 2>&1 &&
    fail "bad days: expected exit 2"
"$STORE_BIN" prune "$STORE" --older-than -1 >/dev/null 2>&1 &&
    fail "negative days: expected exit 2"
"$STORE_BIN" prune "$STORE" --bogus >/dev/null 2>&1 &&
    fail "unknown option: expected exit 2"
"$STORE_BIN" prune "$TMP/nonexistent" --older-than 1 >/dev/null 2>&1 &&
    fail "missing store: expected failure"

# --- retention with --dry-run then for real ----------------------------

# Backdate two records past a 5-day retention window.
aged=0
for f in "$STORE"/*/*.hsr; do
    [ "$aged" -ge 2 ] && break
    touch -d '10 days ago' "$f" || fail "cannot backdate $f"
    aged=$((aged + 1))
done

"$STORE_BIN" prune "$STORE" --older-than 5 --dry-run \
    >"$TMP/dry.out" 2>&1 || fail "dry run: non-zero exit"
grep -q "2 would be pruned" "$TMP/dry.out" ||
    fail "dry run: expected '2 would be pruned'"
[ "$(records)" -eq 4 ] || fail "dry run deleted records"

"$STORE_BIN" prune "$STORE" --older-than 5 >"$TMP/prune.out" 2>&1 ||
    fail "prune: non-zero exit"
grep -q "2 pruned" "$TMP/prune.out" || fail "prune: expected '2 pruned'"
[ "$(records)" -eq 2 ] || fail "prune: expected 2 survivors"

# --- corrupt sweep and non-record refusal ------------------------------

first=$(find "$STORE" -name '*.hsr' ! -name '.*' | head -1)
printf 'garbage' >"$first"
echo "user notes" >"$STORE/README"
bucket=$(dirname "$first")
echo "torn temp" >"$bucket/.tmp.999.dead.hsr"

"$STORE_BIN" prune "$STORE" --sweep-corrupt >"$TMP/sweep.out" 2>&1 ||
    fail "sweep: non-zero exit"
grep -q "1 pruned (1 corrupt" "$TMP/sweep.out" ||
    fail "sweep: expected 1 corrupt record pruned"
[ "$(records)" -eq 1 ] || fail "sweep: expected 1 survivor"
[ -f "$STORE/events.jsonl" ] || fail "sweep deleted events.jsonl"
[ -f "$STORE/README" ] || fail "sweep deleted a user file"
[ -f "$bucket/.tmp.999.dead.hsr" ] || fail "sweep deleted a temp file"

# --- a pruned store still serves a correct campaign --------------------

# shellcheck disable=SC2086
"$RUN_BIN" $MATRIX --jobs 1 --store "$STORE" --csv "$TMP/after.csv" \
    >"$TMP/after.out" 2>/dev/null ||
    fail "post-prune campaign: non-zero exit"
grep -Eq "store .*: 1 disk hit\(s\), 3 write\(s\), 0 corrupt" \
    "$TMP/after.out" ||
    fail "post-prune campaign: expected 1 disk hit and 3 recomputes"
norm_csv "$TMP/ref.csv" >"$TMP/ref.csv.norm"
norm_csv "$TMP/after.csv" >"$TMP/after.csv.norm"
cmp -s "$TMP/ref.csv.norm" "$TMP/after.csv.norm" ||
    fail "post-prune campaign: csv differs from the original run"
[ "$(records)" -eq 4 ] || fail "post-prune campaign: store not refilled"

if [ "$fails" -ne 0 ]; then
    echo "$fails store GC contract check(s) failed" >&2
    cat "$TMP"/*.out >&2 2>/dev/null
    exit 1
fi
echo "all store GC contract checks passed"
exit 0
