#!/usr/bin/env python3
"""The repository benchmark: end-to-end learn and score on layer-skewed
workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flt-armg --seed 1 --seconds 50 --trace 0

It builds perfbench/perfbench.exe with dune, runs one job per process, one
job at a time (closed loop, one client), checks every job's output, and
prints the metrics as the last line of stdout:

    {"correct": true, "attempted": 11, "failed": 0, "metrics": {...}}

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a traced job. Progress and the self-time table go to stderr. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# name -> FLT scale, pooled, datasets learned per pass (a pass fills most
# of a 50 s run on a 2-core host), and the layer the workload was chosen
# for: the largest row of its traced self-time table.
WORKLOADS = {
    "flt-armg": {"scale": 0.5, "pool": 0, "datasets": 16, "layer": "armg"},
    "flt-pool": {"scale": 3.0, "pool": 1, "datasets": 6, "layer": "ground_bc"},
}

# A run must end within this many seconds after the build.
RUN_LIMIT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metric names and units, as BENCHMARK.json declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _bench = json.load(f)
UNITS = {m["name"]: m["unit"]
         for m in _bench["end_to_end"] + _bench["per_layer"]}
PER_LAYER = [m["name"] for m in _bench["per_layer"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        cmd + ["build", "--root", ".", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, env=env)
    return proc.returncode == 0


class Runner:
    def __init__(self, workload):
        self.w = WORKLOADS[workload]
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def call(self, mode, seed, trace=False):
        """One perfbench.exe process; its JSON object, or None on failure."""
        w = self.w
        cmd = [EXE, mode, "--scale", str(w["scale"]), "--pool", str(w["pool"]),
               "--seed", str(seed)]
        if trace:
            cmd += ["--trace", "1"]
        left = self.deadline - time.monotonic()
        if left <= 1:
            log(f"perfbench: no time left for {mode} on seed {seed}")
            return None
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            log(f"perfbench: {mode} on seed {seed} timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            if proc.returncode == 0 and lines:
                return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
        log(f"perfbench: {mode} on seed {seed} exited {proc.returncode} "
            "without a result")
        return None


def job_failures(job, reference, sequential):
    """Why a job's output is wrong; empty when it is right. The reference is
    the learn_once result, or the first pass's job, on the same dataset; on
    a sequential workload the job must also do the same learner work (its
    counters), while pooled counters may race (see README.md)."""
    if job is None:
        return ["the job did not finish"]
    why = []
    if job["status"] != "completed":
        why.append(f"status {job['status']}")
    if job["learn.clauses"] == 0:
        why.append("learned no clause")
    if not job["f1_exact"] > 0:
        why.append("the exact oracle finds no positive covered")
    if reference is None:
        return why
    if job["definition"] != reference["definition"]:
        why.append("definition differs from the reference:\n"
                   f"  {job['definition']}\n"
                   f"  reference: {reference['definition']}")
    if sequential and job["counters"] != reference["counters"]:
        why.append(f"learner counters differ from the reference:\n"
                   f"  {job['counters']}\n  reference: {reference['counters']}")
    return why


def result(correct, attempted, failed, metrics):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS[name]}
                    for name, v in metrics.items()}}))


def run_untraced(runner, seed, seconds):
    """learn_once on the first dataset (its reference), then passes over the
    run's datasets while the next pass still fits in `seconds`."""
    seeds = [seed * 1000 + i for i in range(runner.w["datasets"])]
    sequential = not runner.w["pool"]
    ref = runner.call("reference", seeds[0])
    references = {seeds[0]: ref} if ref else {}
    attempted, failed = 1, (0 if ref else 1)
    jobs = {s: [] for s in seeds}
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for s in seeds:
            job = runner.call("job", s)
            attempted += 1
            why = job_failures(job, references.get(s), sequential)
            if why:
                failed += 1
                for w in why:
                    log(f"perfbench: job on dataset seed {s} failed: {w}")
            if job is not None:
                references.setdefault(s, job)
                jobs[s].append(job)
                log(f"  seed {s}: learn {job['learn_s']:.3f}s score "
                    f"{job['score_s']:.3f}s heap {job['peak_heap_mb']:.0f}MB "
                    f"F1 {job['f1_exact']:.3f}")
        last_pass, t1 = time.monotonic() - t0, time.monotonic()
        if t1 - start + last_pass > seconds or t1 + last_pass > runner.deadline:
            break
    done = [js for js in jobs.values() if js]
    if not done:
        result(False, attempted, failed, {})
        return

    def per_dataset(key):
        # each dataset's median over its passes, averaged over the datasets
        return statistics.fmean(statistics.median(j[key] for j in js)
                                for js in done)

    setups = [t for js in done for j in js for t in j["setup_s"]]
    result(failed == 0, attempted, failed, {
        "learn_s": per_dataset("learn_s"),
        "score_s": per_dataset("score_s"),
        "setup_s": statistics.median(setups),
        "peak_heap_mb": per_dataset("peak_heap_mb"),
        "f1_exact": per_dataset("f1_exact"),
    })


def run_traced(runner, workload, seed):
    """learn_once, the same job untraced (the overhead baseline) and traced;
    the per-layer metrics come from the traced job."""
    s = seed * 1000
    ref = runner.call("reference", s)
    base = runner.call("job", s)
    traced = runner.call("job", s, trace=True)
    sequential = not runner.w["pool"]
    why = [] if ref else ["learn_once did not finish"]
    why += (job_failures(base, ref, sequential)
            + job_failures(traced, ref, sequential))
    if base is None or traced is None:
        for w in why:
            log(f"perfbench: traced run on dataset seed {s} failed: {w}")
        result(False, 3, 1, {})
        return
    layers, wall = traced["trace.layers"], traced["trace.wall_s"]
    log(f"self time of the traced {workload} job (dataset seed {s}), "
        f"wall {wall:.3f}s:")
    for name, t in layers.items():
        log(f"  {name:<18} {t:8.3f}s {100 * t / wall:5.1f}%")
    log(f"  {'sum':<18} {sum(layers.values()):8.3f}s")
    largest = max(layers, key=layers.get)
    if largest != runner.w["layer"]:
        why.append(f"the largest layer is {largest}, not {runner.w['layer']}")
    unattributed = layers["unattributed"] / wall
    if unattributed > 0.05:
        why.append(f"unattributed is {100 * unattributed:.1f}% of the wall")
    if traced["trace.dropped"] > 0:
        why.append(f"the trace ring dropped {traced['trace.dropped']} spans")
    if (traced["pool.tasks_run"] > 0) != bool(runner.w["pool"]):
        why.append(f"the pool ran {traced['pool.tasks_run']} tasks")
    for w in why:
        log(f"perfbench: traced run on dataset seed {s} failed: {w}")
    values = dict(traced)
    values["trace.beam_step_self_s"] = layers["armg"]
    values["trace.ground_bc_s"] = layers["ground_bc"]
    values["trace.evaluate_candidate_s"] = layers["evaluation"]
    values["trace.unattributed_share"] = unattributed
    values["trace.overhead_ratio"] = traced["learn_s"] / base["learn_s"]
    result(not why, 3, 1 if why else 0,
           {name: values[name] for name in PER_LAYER})


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log(f"perfbench: {ROOT} holds no autobias source tree to build")
        return 2
    if not build():
        log("perfbench: the build failed")
        return 1
    runner = Runner(args.workload)
    if args.trace:
        run_traced(runner, args.workload, args.seed)
    else:
        run_untraced(runner, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
