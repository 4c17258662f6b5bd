#!/usr/bin/env python3
"""Smoke test of the repository benchmark at a tiny scale.

usage: python3 perfbench/smoke_test.py     (from the repository root)

Builds the benchmark, runs every workload untraced and traced at
HS_SCALE 5000 (100 K cycles per cell) for half a second each, and
checks that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  - every metric BENCHMARK.json names is emitted with its unit, and
    nothing else;
  - the op tail percentile has at least 10 samples beyond it;
  - an injected reference mismatch is counted as failed and makes the
    command exit non-zero.
Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (after the bytecode switch)

SCALE = "5000"
SECONDS = "0.5"


def bench(exe, workload, trace, *extra):
    cmd = [exe, "--workload", workload, "--seed", "7", "--seconds", SECONDS,
           "--trace", trace, "--scale", SCALE,
           "--work-dir", os.path.join(run.BUILD, "smoke")] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                       timeout=180)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prov = [json.loads(l[len("provenance "):]) for l in lines
            if l.startswith("provenance ")]
    return p.returncode, result, prov[0] if prov else None


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = run.build()
    errors = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            errors.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, res, prov = bench(exe, w, trace)
            tag = "%s trace=%s" % (w, trace)
            check(rc == 0, tag + ": exit 0")
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  tag + ": result keys")
            check(res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1, tag + ": outputs correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, tag + ": every %s metric with its unit" % key)
            check(all(isinstance(v["value"], (int, float))
                      for v in res["metrics"].values()),
                  tag + ": numeric values")
            check(prov is not None and prov["seed"] == 7, tag + ": provenance")
            if trace == "0":
                check(prov["op_tail_samples_beyond"] >= 10,
                      tag + ": op tail p%d has %d samples beyond it"
                      % (prov["op_tail_percentile"],
                         prov["op_tail_samples_beyond"]))

    for w in ("attack_matrix", "store_warm"):
        rc, res, _ = bench(exe, w, "0", "--inject-mismatch")
        check(rc != 0, w + " with an injected mismatch: exit non-zero")
        check(res["correct"] is False and res["failed"] > 0,
              w + " with an injected mismatch: counted as failed (%d of %d)"
              % (res["failed"], res["attempted"]))

    print("smoke test: %s" % ("PASS" if not errors else
                              "%d check(s) failed" % len(errors)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
