#!/bin/sh
# Resumable-campaign contract test.
#
# Starts a 4-cell campaign against a fresh store with
# HS_FAULTS=1:store_crash=2 — the coordinator _Exit(9)s immediately
# after publishing its second record, the deterministic stand-in for a
# coordinator killed mid-sweep. The restart, fault-free and with the
# identical command line, must report the campaign as resuming, serve
# the two stored cells from disk, simulate exactly the two missing
# ones, and emit artifacts matching an uninterrupted run (host fields
# stripped; the disk-served cells re-emit the first run's host
# numbers). The stored records are the only resume state: the store
# root holds no campaign file, and a different matrix sharing cells
# with the stored ones reports its own overlap.
#
# usage: hs_resume_test.sh <path-to-hs_run>

set -u

BIN=$1
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

norm_json()
{
    python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for run in doc["runs"]:
    run["result"].pop("host_seconds", None)
    run["result"].pop("sim_cycles_per_host_sec", None)
doc.pop("metrics", None)
print(json.dumps(doc, sort_keys=True))
EOF
}

# --- uninterrupted reference -------------------------------------------

# shellcheck disable=SC2086
"$BIN" $MATRIX --jobs 1 --json "$TMP/ref.json" --csv "$TMP/ref.csv" \
    >"$TMP/ref.out" 2>"$TMP/ref.err" ||
    fail "reference run: non-zero exit"

# --- interrupted campaign ----------------------------------------------

# shellcheck disable=SC2086
HS_FAULTS="1:store_crash=2" "$BIN" $MATRIX --jobs 1 --store "$STORE" \
    --json "$TMP/int.json" --csv "$TMP/int.csv" \
    >"$TMP/int.out" 2>"$TMP/int.err"
rc=$?
[ "$rc" -eq 9 ] || fail "interrupted run: expected exit 9, got $rc"

records=$(find "$STORE" -name '*.hsr' | wc -l)
[ "$records" -eq 2 ] ||
    fail "interrupted run: expected 2 stored records, found $records"
[ -e "$STORE/manifest.hsm" ] &&
    fail "interrupted run: a manifest.hsm was written"

# --- restart with the identical command line ---------------------------

# shellcheck disable=SC2086
"$BIN" $MATRIX --jobs 1 --store "$STORE" \
    --json "$TMP/res.json" --csv "$TMP/res.csv" \
    >"$TMP/res.out" 2>"$TMP/res.err" ||
    fail "resumed run: non-zero exit"

grep -q "\[campaign\] resuming: 2 of 4 cells already stored" \
    "$TMP/res.err" ||
    fail "resumed run: no resume report on stderr"
grep -Eq "store .*: 2 disk hit\(s\), 2 write\(s\), 0 corrupt" \
    "$TMP/res.out" ||
    fail "resumed run: expected exactly 2 disk hits and 2 writes"

norm_csv "$TMP/ref.csv" >"$TMP/ref.csv.norm"
norm_csv "$TMP/res.csv" >"$TMP/res.csv.norm"
cmp -s "$TMP/ref.csv.norm" "$TMP/res.csv.norm" ||
    fail "resumed run: csv differs from the uninterrupted run"
norm_json "$TMP/ref.json" >"$TMP/ref.json.norm" ||
    fail "reference: unparsable json"
norm_json "$TMP/res.json" >"$TMP/res.json.norm" ||
    fail "resumed run: unparsable json"
cmp -s "$TMP/ref.json.norm" "$TMP/res.json.norm" ||
    fail "resumed run: json differs from the uninterrupted run"

records=$(find "$STORE" -name '*.hsr' | wc -l)
[ "$records" -eq 4 ] ||
    fail "resumed run: expected 4 stored records, found $records"

# --- a second restart is a pure warm pass ------------------------------

# shellcheck disable=SC2086
"$BIN" $MATRIX --jobs 1 --store "$STORE" \
    --json "$TMP/warm.json" --csv "$TMP/warm.csv" \
    >"$TMP/warm.out" 2>"$TMP/warm.err" ||
    fail "warm restart: non-zero exit"
grep -q "\[campaign\] resuming: 4 of 4 cells already stored" \
    "$TMP/warm.err" ||
    fail "warm restart: no resume report"
grep -Eq "store .*: 4 disk hit\(s\), 0 write\(s\)" "$TMP/warm.out" ||
    fail "warm restart: cells simulated on a complete store"
extra=$(ls -A "$STORE" | grep -Ev '^([0-9a-f]{2}|events\.jsonl)$')
[ -z "$extra" ] ||
    fail "store root holds more than buckets and events.jsonl: $extra"

# --- an overlapping matrix counts only its own stored cells ------------

# gcc is stored, gzip is not.
"$BIN" --spec gcc --spec gzip --each --scale 20000 --jobs 1 \
    --store "$STORE" >"$TMP/overlap.out" 2>"$TMP/overlap.err" ||
    fail "overlapping matrix: non-zero exit"
grep -q "\[campaign\] resuming: 1 of 2 cells already stored" \
    "$TMP/overlap.err" ||
    fail "overlapping matrix: expected 'resuming: 1 of 2'"
grep -Eq "store .*: 1 disk hit\(s\), 1 write\(s\)" "$TMP/overlap.out" ||
    fail "overlapping matrix: expected 1 disk hit and 1 write"

if [ "$fails" -ne 0 ]; then
    echo "$fails resume contract check(s) failed" >&2
    for f in "$TMP"/*.err "$TMP"/*.out; do
        echo "--- $f"
        cat "$f"
    done >&2
    exit 1
fi
echo "all resume contract checks passed"
exit 0
