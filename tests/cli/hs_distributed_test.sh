#!/bin/sh
# End-to-end contract test for the distributed experiment service.
#
# Runs the same fig5-style --each matrix four ways — solo --jobs 1,
# local --jobs 4, coordinator + 2 localhost workers, and coordinator +
# workers sharing a --store — and requires the JSON runs array and the
# CSV table to be identical across all of them once the host-throughput
# fields (wall-clock measurements, inherently machine-dependent) are
# stripped. Then reruns the matrix against the warm store and requires
# every cell to be a disk hit: zero simulation, byte-identical CSV
# including the cold run's host columns. Last, a campaign on workers
# with fast heartbeats must end without a warning in their logs.
#
# usage: hs_distributed_test.sh <path-to-hs_run>

set -u

BIN=$1
TMP=$(mktemp -d)
W1=
W2=
cleanup()
{
    [ -n "$W1" ] && kill "$W1" 2>/dev/null
    [ -n "$W2" ] && kill "$W2" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

# A large time scale keeps every simulated quantum tiny (25 K cycles).
MATRIX="--spec gcc --spec mcf --spec mesa --spec vpr --each \
        --scale 20000"
STORE="$TMP/store"
fails=0

fail()
{
    echo "FAIL: $1" >&2
    fails=$((fails + 1))
}

# Strip the machine-dependent fields before comparing artifacts from
# different execution configurations: the trailing host_seconds and
# sim_cycles_per_host_sec CSV columns, the same keys in each JSON run,
# and every "host" metric.
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

# wait_port PORT: block until a worker is accepting connections.
wait_port()
{
    python3 - "$1" <<'EOF'
import socket, sys, time
port = int(sys.argv[1])
for _ in range(200):
    try:
        socket.create_connection(("127.0.0.1", port), 1).close()
        sys.exit(0)
    except OSError:
        time.sleep(0.05)
sys.exit(1)
EOF
}

# run DESC OUT-PREFIX ARGS... : run the matrix, keep json/csv/stderr.
run()
{
    desc=$1
    out=$2
    shift 2
    # shellcheck disable=SC2086
    "$BIN" $MATRIX --json "$TMP/$out.json" --csv "$TMP/$out.csv" "$@" \
        >"$TMP/$out.out" 2>"$TMP/$out.err"
    [ $? -eq 0 ] || fail "$desc: non-zero exit"
    norm_csv "$TMP/$out.csv" >"$TMP/$out.csv.norm"
    norm_json "$TMP/$out.json" >"$TMP/$out.json.norm" ||
        fail "$desc: unparsable json"
}

# same DESC A B: normalised artifacts of runs A and B must match.
same()
{
    cmp -s "$TMP/$2.csv.norm" "$TMP/$3.csv.norm" ||
        fail "$1: csv differs"
    cmp -s "$TMP/$2.json.norm" "$TMP/$3.json.norm" ||
        fail "$1: json runs differ"
}

# --- reference runs: solo and local-parallel ---------------------------

run "solo" solo --jobs 1
run "jobs4" jobs4 --jobs 4
same "jobs 4 vs solo" solo jobs4

# --- coordinator + 2 localhost workers ---------------------------------

# Ephemeral-ish ports derived from the PID to dodge parallel ctest runs.
P1=$((20000 + $$ % 20000))
P2=$((P1 + 1))
"$BIN" --serve "$P1" >"$TMP/w1.log" 2>&1 &
W1=$!
"$BIN" --serve "$P2" >"$TMP/w2.log" 2>&1 &
W2=$!
wait_port "$P1" || fail "worker 1 never came up"
wait_port "$P2" || fail "worker 2 never came up"

run "distributed" dist --jobs 1 --workers "127.0.0.1:$P1,127.0.0.1:$P2"
same "distributed vs solo" solo dist
grep -q "remote: 2/2 worker(s) connected" "$TMP/dist.out" ||
    fail "distributed: not all workers connected"

# --- distributed with a shared store (cold) ----------------------------

run "distributed+store" dist_store --jobs 1 \
    --workers "127.0.0.1:$P1,127.0.0.1:$P2" --store "$STORE"
same "distributed+store vs solo" solo dist_store
grep -q "0 corrupt" "$TMP/dist_store.out" ||
    fail "distributed+store: corrupt records on a fresh store"

# --- warm rerun: every cell from disk, nothing simulated ---------------

run "warm store" warm --jobs 4 --store "$STORE" --progress
same "warm vs solo" solo warm
grep -q "4 disk hit(s)" "$TMP/warm.out" ||
    fail "warm: expected 4 disk hits"
grep -Eq "store .*: 4 disk hit\(s\), 0 write\(s\)" "$TMP/warm.out" ||
    fail "warm: store summary reports simulation"
grep -q "4 disk hit" "$TMP/warm.err" ||
    fail "warm: --progress does not report disk hits"
# Disk-served cells re-emit the cold run's host columns, so the warm
# CSV must be byte-identical to its own source run without stripping.
cmp -s "$TMP/dist_store.csv" "$TMP/warm.csv" ||
    fail "warm: csv not byte-identical to the run that filled the store"

kill "$W1" "$W2" 2>/dev/null
wait "$W1" "$W2" 2>/dev/null
W1=
W2=

# --- a good campaign ends quietly on the workers -----------------------

# Workers beating every 5 ms have heartbeats queued when the coordinator
# hangs up; the end of a good campaign must still reach them as an
# orderly disconnect, not a broken connection. The port probe that
# awaits them must not read as a refused coordinator either.
P3=$((P2 + 1))
P4=$((P2 + 2))
HS_HEARTBEAT_MS=5 "$BIN" --serve "$P3" >"$TMP/w3.log" 2>&1 &
W1=$!
HS_HEARTBEAT_MS=5 "$BIN" --serve "$P4" >"$TMP/w4.log" 2>&1 &
W2=$!
wait_port "$P3" || fail "worker 3 never came up"
wait_port "$P4" || fail "worker 4 never came up"
run "beating workers" beat --jobs 1 --workers "127.0.0.1:$P3,127.0.0.1:$P4"
same "beating workers vs solo" solo beat
kill "$W1" "$W2" 2>/dev/null
wait "$W1" "$W2" 2>/dev/null
W1=
W2=
for w in w3 w4; do
    grep -q "coordinator disconnected" "$TMP/$w.log" ||
        fail "$w: no orderly disconnect"
    if grep -q "^warn" "$TMP/$w.log"; then
        fail "$w: warned at the end of a good campaign"
    fi
done

if [ "$fails" -ne 0 ]; then
    echo "$fails distributed contract check(s) failed" >&2
    for f in "$TMP"/*.err "$TMP"/*.log; do
        echo "--- $f"
        cat "$f"
    done >&2
    exit 1
fi
echo "all distributed contract checks passed"
exit 0
