#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark job.

    python3 perfbench/run.py --workload fleet_steady --seed 3 --seconds 20 --trace 0

Run from anywhere; the build tree is `.bench_build/perfbench` under the
checkout root (the parent of this directory). The first run configures and
compiles the libraries (about a minute on 4 cores); later runs only
re-check the build.
The stats-helper test runs before every job. The binary's last stdout line
is the JSON result; everything else it prints is commentary.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JOB_TIMEOUT_S = 170


def build():
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                  "perfbench", "perfbench_stats_test"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-40:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                return False
    return True


def main(argv):
    if not build():
        return 1
    test = subprocess.run([str(BUILD / "perfbench_stats_test")],
                          stdout=subprocess.DEVNULL, timeout=60)
    if test.returncode != 0:
        sys.stderr.write("perfbench: stats helper test failed\n")
        return 1
    cmd = [str(BUILD / "perfbench"), *argv, "--out", str(BUILD)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=JOB_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: job exceeded %d s\n" % JOB_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
