#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 servebench/run.py --workload watdiv_read --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --quick        # every workload, small, all checks

Run from the repository root.  The benchmark is compiled from the sources in
the checkout into .bench_build/servebench (or $CARGO_TARGET_DIR/servebench
when that is set); an up-to-date build costs about a second.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["watdiv_read", "dbpedia_burst", "publish_churn"]
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "servebench")


def build():
    """Configures and builds; returns the binary path or None."""
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cfg = ["cmake", "-S", HERE, "-B", out] + gen
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    cmd = ["cmake", "--build", out, "--target", "servebench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(out, "servebench")


def run(binary, args, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("servebench: run exceeded %d s" % timeout, file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="every workload at small size, every check")
    a = ap.parse_args()
    if not a.quick and a.workload is None:
        ap.error("--workload is required unless --quick is given")

    binary = build()
    if binary is None:
        print("servebench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(build_dir(), "out")

    if not a.quick:
        code, lines = run(binary, ["--workload", a.workload,
                                   "--seed", str(a.seed),
                                   "--seconds", str(a.seconds),
                                   "--trace", str(a.trace),
                                   "--out", out_dir])
        for line in lines:
            print(line)
        return code if lines else 1

    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(binary, ["--workload", w, "--seed", str(a.seed),
                                       "--seconds", "2", "--trace",
                                       str(trace), "--quick",
                                       "--out", out_dir])
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1]) if code == 0 and lines else None
            good = (result is not None and result["correct"]
                    and result["failed"] == 0)
            ok = ok and good
            print("quick %-14s trace=%d %s" % (w, trace,
                                              "ok" if good else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
