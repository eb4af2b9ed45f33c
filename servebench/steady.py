#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs each workload repeatedly as two sets (or one), each run with its own
seed, and prints per metric and set the median, the quartiles and the
spread (distance between the quartiles as a share of the median).  It then
reports whether the sets agree with the bounds in BENCHMARK.json:

  * every end-to-end spread, setup_s included, is within its bound;
  * the second set's median is not worse than the first's by more than the
    bound, for every metric;
  * the share of failed operations is the same in both sets.

    python3 servebench/steady.py                         # 2 sets x 10 runs
    python3 servebench/steady.py --sets 1 --runs 5 --workloads publish_churn

Run from the repository root.  Exit code 0 when everything agrees.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2, choices=[1, 2])
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--json", help="also write every run's result here")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = a.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    binary = bench.build()
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(bench.build_dir(), "out")

    results = {}
    ok = True
    seed = a.first_seed
    for w in workloads:
        sets = []
        for s in range(a.sets):
            runs = []
            for _ in range(a.runs):
                code, lines = bench.run(binary, [
                    "--workload", w, "--seed", str(seed), "--seconds",
                    str(seconds), "--trace", "0", "--out", out_dir])
                seed += 1
                if code != 0 or not lines:
                    print("%s: run failed (exit %d)" % (w, code))
                    ok = False
                    continue
                r = json.loads(lines[-1])
                if not r["correct"]:
                    print("%s seed %d: INCORRECT" % (w, seed - 1))
                    ok = False
                runs.append(r)
                steal = [ln.split("steal ")[1].split()[0] for ln in lines
                         if ln.startswith("servebench: host steal ")]
                print("%s set %d seed %d: %s steal=%s" % (
                    w, s + 1, seed - 1, " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in r["metrics"].items()),
                    steal[0] if steal else "?"), flush=True)
            sets.append(runs)
        results[w] = sets

        print("\n%s" % w)
        print("  %-16s %5s %12s %12s %12s %8s %8s" % (
            "metric", "set", "q1", "median", "q3", "spread", "bound"))
        for name, m in bounds.items():
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs]
                if len(vals) < 2:
                    continue
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                flag = ""
                if spread > m["bound"]:
                    flag = " SPREAD>BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    flag = " (above a third of the bound)"
                print("  %-16s %5d %12.5g %12.5g %12.5g %7.1f%% %7.0f%%%s" % (
                    name, s + 1, q1, med, q3, 100 * spread,
                    100 * m["bound"], flag))
            if len(meds) == 2:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                if worse > m["bound"]:
                    ok = False
                print("  %-16s second median %+.1f%% worse: %s" % (
                    name, 100 * worse, verdict))
        shares = []
        for runs in sets:
            att = sum(r["attempted"] for r in runs)
            fail = sum(r["failed"] for r in runs)
            shares.append(fail / att if att else 0)
        print("  failed share per set: %s" % ", ".join(
            "%.6f" % x for x in shares))
        if len(set(shares)) > 1:
            ok = False

    if a.json:
        with open(a.json, "w") as f:
            json.dump(results, f, indent=1)
    print("\nsteady: %s" % ("AGREE" if ok else "DISAGREE"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
