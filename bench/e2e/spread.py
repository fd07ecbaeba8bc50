#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 bench/e2e/spread.py --seeds 1-10 [--workloads run-rmat18,...]
        [--trace 0] [--seconds N] [--out spread.json]

For every workload and end-to-end metric it prints the median of the
per-seed values and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json. Runs go through run.py,
one after another. With --trace 1 it reports the per-layer medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the raw values here as JSON")
    args = parser.parse_args()

    defs = spec["per_layer" if args.trace else "end_to_end"]
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in defs}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                sys.exit("%s seed %d: run.py exited %d" %
                         (workload, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print("%s seed %d: correct=%s failed=%d of %d" % (
                    workload, seed, result["correct"], result["failed"],
                    result["attempted"]))
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        raw[workload] = values
        print("%s (%d seeds)" % (workload, len(args.seeds)))
        for m in defs:
            vals = values[m["name"]]
            med = statistics.median(vals)
            line = "  %-28s median %-12.6g" % (m["name"], med)
            if "bound" in m and len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
                line += " spread %.4f  bound %.2f%s" % (spread, m["bound"],
                                                      flag)
            print(line)
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
