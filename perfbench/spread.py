#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's median,
quartiles and spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workloads backbone,attack-mix --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/set-a.json

Quartiles are Python's statistics.quantiles(values, n=4).  Runs are made
one at a time, from the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, bound=None):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("inf")
    row = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
           "values": values}
    if bound is not None:
        row["bound"] = bound
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    worst = 0.0
    for w in workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: FAILED (exit {proc.returncode})",
                      file=sys.stderr)
                sys.exit(1)
            runs.append(result["metrics"])
            print(f"{w} seed {seed}: ok", file=sys.stderr, flush=True)
        summary[w] = {}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            row = summarize(values, bounds.get(name))
            row["unit"] = runs[0][name]["unit"]
            summary[w][name] = row
            flag = ""
            if row.get("bound"):
                ratio = row["spread"] / row["bound"]
                if name != "setup_s":
                    worst = max(worst, ratio)
                flag = "  <-- over a third of its bound" if ratio > 1 / 3 else ""
            print(f"{w:13s} {name:28s} median {row['median']:14.4f} "
                  f"q1 {row['q1']:14.4f} q3 {row['q3']:14.4f} "
                  f"spread {row['spread']:.4f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                       "workloads": summary}, f, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
