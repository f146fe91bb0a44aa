#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload flt-armg --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of that median, next to the metric's bound in BENCHMARK.json. Each run's
result line is appended to --out when given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, bad = {}, 0
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        line = proc.stdout.strip().splitlines()[-1]
        res = json.loads(line)
        bad += proc.returncode != 0 or not res["correct"]
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"seed": seed, **res}) + "\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:<28} median {med:<12.5g} spread {spread:.3f} "
              f"bound {bounds.get(name)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
