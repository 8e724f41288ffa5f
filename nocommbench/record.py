#!/usr/bin/env python3
"""Runs every nocommbench workload and records a baseline.

From the repository root:

    python3 nocommbench/record.py                       # 10 seeds per workload + traced runs
    python3 nocommbench/record.py --sets 2              # the same twice, medians compared
    python3 nocommbench/record.py --seeds 1 --no-trace  # one quick pass
    python3 nocommbench/record.py --workload hot-eval   # one workload only

Each run's metric lines (name, value, unit, sample count) are echoed. For
every end-to-end metric and set it prints the median and the spread
(distance between the first and third quartile over the median) across
seeds, and flags a spread above a third of the metric's bound. With two or
more sets it also flags a set whose median is worse than the first set's
by more than the bound. With --out it writes the machine description,
every run's result line and clock lines, the traced runs' per-layer
metrics and their span dumps into that directory.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload, seed, seconds, trace):
    """Returns the run's result object and its cpu-clock and wall-clock lines."""
    cmd = ["bash", "nocommbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    for line in lines[:-1]:
        print("   ", line)
    for line in p.stderr.strip().splitlines():
        print("    stderr:", line)
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}")
    info = [l for l in lines if l.startswith(("cpu clock", "wall clock"))]
    return json.loads(lines[-1]), info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10, help="seeds per workload and set (1..n)")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs per workload")
    ap.add_argument("--workload", action="append", help="record only this workload (repeatable)")
    ap.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    ap.add_argument("--out", default="", help="directory for the recorded baseline")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"] if not args.workload or w["name"] in args.workload]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.seeds + 1))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "machine.json"), "w") as f:
            json.dump({"cpu": cpu_model(), "nproc": os.cpu_count(), "seeds": seeds,
                       "run_seconds": seconds, "go": subprocess.run(["go", "version"], capture_output=True,
                                                                    text=True).stdout.strip()}, f, indent=2)
            f.write("\n")

    steady = True
    for w in workloads:
        medians = {}  # metric -> median of the first set
        for k in range(args.sets):
            results = []
            for s in seeds:
                print(f"== {w} set {k + 1} seed {s} trace 0", flush=True)
                r, info = run(w, s, seconds, 0)
                results.append({"set": k + 1, "seed": s, "result": r, "info": info})
                print(f"   correct={r['correct']} attempted={r['attempted']} failed={r['failed']}", flush=True)
                if not r["correct"]:
                    steady = False
            if args.out:
                with open(os.path.join(args.out, f"e2e-{w}.jsonl"), "a" if k else "w") as f:
                    for r in results:
                        f.write(json.dumps(r) + "\n")
            if len(results) < 2:
                continue
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                xs = [r["result"]["metrics"][name]["value"] for r in results]
                q = statistics.quantiles(xs, n=4)
                med = statistics.median(xs)
                spread = (q[2] - q[0]) / med
                flag = ""
                if spread > bound / 3:
                    flag += "  <-- spread above a third of the bound"
                    steady = False
                if k == 0:
                    medians[name] = med
                else:
                    first = medians[name]
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                    flag += f"  vs set 1 {worse:+.4f}"
                    if worse > bound:
                        flag += "  <-- worse than set 1 by more than the bound"
                        steady = False
                print(f"SPREAD {w:12s} set {k + 1} {name:20s} median {med:12.6g}  iqr/median {spread:.4f}  bound {bound}{flag}")
        if not args.no_trace:
            s = seeds[0]
            print(f"== {w} seed {s} trace 1", flush=True)
            r, _ = run(w, s, seconds, 1)
            if args.out:
                with open(os.path.join(args.out, f"trace-{w}.json"), "w") as f:
                    json.dump({"seed": s, "result": r}, f, indent=1, sort_keys=True)
                    f.write("\n")
                spans = os.path.join(".bench_build", "nocommbench", f"spans-{w}-seed{s}.jsonl")
                shutil.copy(spans, os.path.join(args.out, os.path.basename(spans)))
    print("steady" if steady else "NOT steady: see the flagged lines above")


if __name__ == "__main__":
    main()
