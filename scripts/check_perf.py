#!/usr/bin/env python3
"""Performance regression gate: the repository benchmark against a
machine-local baseline.

usage: python3 scripts/check_perf.py

For every workload BENCHMARK.json declares, runs

    python3 perfbench/run.py --workload W --seed 1 --seconds <run_seconds> --trace 0

three times, interleaved across workloads, reads the JSON result on
each run's last stdout line, and takes each metric's median over the
three. The gate fails when a run is not correct, counts failed
operations or lacks an end-to-end metric, or when a median is worse
than the baseline by more than that metric's bound in the direction of
its `better`. Prints one line per workload and metric; exits 0 when
every check passes, 1 otherwise.

Baselines are machine-specific and not checked in. HS_PERF_REFRESH=1
records this machine's results in .bench_build/perf_baseline.json
instead of gating. Without a baseline the gate exits 77 (a ctest skip)
before running anything.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, ".bench_build", "perf_baseline.json")
# Back-to-back single runs on an unchanged tree differed by up to 31%
# on one metric, past the 25% bounds; a median of three absorbs one
# outlying run.
RUNS = 3


def compare(end_to_end, base, result):
    """Checks one workload's result against its baseline metrics.

    end_to_end is BENCHMARK.json's list of end-to-end metric specs,
    base maps a metric name to its baseline value, and result is the
    benchmark's parsed result line. Returns one (ok, text) pair per
    check; the workload passes when every ok is true."""
    checks = []
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        checks.append((False, "outputs: correct=%s, %s of %s operations "
                       "failed" % (result.get("correct"), result.get("failed"),
                                   result.get("attempted"))))
    metrics = result.get("metrics", {})
    for m in end_to_end:
        name = m["name"]
        if name not in metrics or name not in base:
            checks.append((False, "%s: missing %s" % (
                name, "baseline" if name in metrics else "measurement")))
            continue
        now, was = metrics[name]["value"], base[name]
        change = (now - was) / was
        worse = change if m["better"] == "lower" else -change
        checks.append((worse <= m["bound"],
                       "%s: %.4g %s vs baseline %.4g (%+.1f%%, bound %g%%)"
                       % (name, now, m["unit"], was, 100 * change,
                          100 * m["bound"])))
    return checks


def merge(runs):
    """Folds repeated runs of one workload into one result: correct
    only if every run printed a correct result, failures summed, and
    each metric the median of the runs that reported it. A run that
    printed no result is None."""
    done = [r for r in runs if r is not None]
    values = {}
    for r in done:
        for name, m in r.get("metrics", {}).items():
            values.setdefault(name, []).append(m)
    return {
        "correct": len(done) == len(runs)
                   and all(r.get("correct") is True for r in done),
        "attempted": sum(r.get("attempted", 0) for r in done),
        "failed": sum(r.get("failed", 1) for r in done),
        "metrics": {name: sorted(ms, key=lambda m: m["value"])[len(ms) // 2]
                    for name, ms in values.items()},
    }


def run_workload(name, seconds):
    """Runs one workload untraced; returns its parsed result line, or
    None when the benchmark printed none."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", name, "--seed", "1", "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr)
        return None


def main():
    refresh = os.environ.get("HS_PERF_REFRESH") == "1"
    if not refresh and not os.path.exists(BASELINE):
        print("%s missing; run HS_PERF_REFRESH=1 %s once on this machine "
              "to create it. Skipping the gate." % (BASELINE, sys.argv[0]))
        return 77
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = {}
    if not refresh:
        with open(BASELINE) as f:
            base = json.load(f)

    workloads = [x["name"] for x in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for _ in range(RUNS):
        for w in workloads:
            runs[w].append(run_workload(w, spec["run_seconds"]))

    ok, recorded = True, {}
    for w in workloads:
        result = merge(runs[w])
        recorded[w] = {k: v["value"] for k, v in result["metrics"].items()}
        # A refresh records the medians as their own baseline, so it
        # still checks correctness and completeness.
        for check_ok, text in compare(
                spec["end_to_end"],
                recorded[w] if refresh else base.get(w, {}), result):
            print("%-4s  %s %s" % ("OK" if check_ok else "FAIL", w, text))
            ok = ok and check_ok

    if refresh:
        if not ok:
            print("not recording a baseline from a failing run")
            return 1
        with open(BASELINE, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")
        print("baseline recorded in %s" % BASELINE)
        return 0
    if not ok:
        print("performance regressed past BENCHMARK.json's bounds; if "
              "intended, refresh with HS_PERF_REFRESH=1 %s" % sys.argv[0])
        return 1
    print("every end-to-end metric within its bound of the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
