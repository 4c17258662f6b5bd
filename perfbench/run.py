#!/usr/bin/env python3
"""Build and run the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries, the hs_run worker and the
hs_perfbench driver) into .bench_build/perfbench; later calls only
rebuild what changed. The driver's output passes through unchanged:
its last stdout line is the JSON result. Build logs go to stderr.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Sources the benchmark builds; without them there is nothing to measure.
REQUIRED = ["src/CMakeLists.txt", "src/sim/runner.hh", "tools/hs_run.cc"]


def source_digest():
    """SHA-1 over the program sources, standing in for a git revision
    when the tree is not a git checkout."""
    h = hashlib.sha1()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    """Configure (once) and build; returns the driver's path."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "hs_perfbench")


def main(argv):
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        sys.stderr.write("perfbench: program sources missing (%s); run from "
                         "a full checkout\n" % ", ".join(missing))
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 2
    # Measure the engine knobs a user gets by default: no HS_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HS_")}
    cmd = [exe] + argv + [
        "--work-dir", os.path.join(BUILD, "work"),
        "--git-rev", git_rev(),
        "--src-digest", source_digest(),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
