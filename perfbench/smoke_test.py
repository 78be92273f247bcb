#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few minutes).

    python3 perfbench/smoke_test.py

Runs every workload at reduced size, untraced and traced, and checks the
printed lines and the final JSON object against BENCHMARK.json.  Negative
cases: a corrupted result must be reported as a failure (exit 1,
"correct": false), and a directory holding only BENCHMARK.json and the
benchmark's files must fail without printing a result.  Exits 0 when every
check holds.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"
SCALE = "0.1"

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload, trace, *extra, cwd=ROOT, seed="1"):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", seed, "--seconds", SECONDS,
           "--trace", str(trace), "--scale", SCALE, *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.rstrip("\n").split("\n")


def parse_result(lines, label):
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        expect(False, f"{label}: last line is not a JSON object")
        return None
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(isinstance(result.get("attempted"), int)
           and result["attempted"] >= 1, f"{label}: attempted")
    expect(isinstance(result.get("failed"), int), f"{label}: failed")
    return result


def check_shape(result, lines, specs, label, nonzero):
    metrics = result["metrics"]
    expect(set(metrics) == {m["name"] for m in specs},
           f"{label}: metric names differ from BENCHMARK.json")
    for m in specs:
        got = metrics.get(m["name"])
        if got is None:
            continue
        expect(set(got) == {"value", "unit"}, f"{label}: {m['name']} keys")
        expect(got.get("unit") == m["unit"], f"{label}: {m['name']} unit")
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {m['name']} is not a finite number")
        if nonzero:
            expect(value != 0, f"{label}: {m['name']} is 0")
        # The human-readable line names the metric and its unit.
        expect(any(l.split()[:1] == [m["name"]] and m["unit"] in l.split()
                   for l in lines[:-1]),
               f"{label}: no printed line for {m['name']} [{m['unit']}]")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # tenant-churn is runnable but not in BENCHMARK.json (README.md).
    for w in [x["name"] for x in bench["workloads"]] + ["tenant-churn"]:
        code, lines = run(w, 0)
        label = f"{w} trace 0"
        result = parse_result(lines, label)
        expect(code == 0, f"{label}: exit {code}")
        if result:
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: not correct: "
                   + "; ".join(l for l in lines if "CHECK FAILED" in l))
            check_shape(result, lines, bench["end_to_end"], label, True)
            expect(any(l.startswith("error_rate") for l in lines),
                   f"{label}: no error_rate line")

        code, lines = run(w, 1)
        label = f"{w} trace 1"
        result = parse_result(lines, label)
        expect(code == 0, f"{label}: exit {code}")
        if result:
            expect(result["correct"] is True, f"{label}: not correct")
            check_shape(result, lines, bench["per_layer"], label, False)

        # Negative case: a corrupted result must fail the run.
        code, lines = run(w, 0, "--corrupt")
        label = f"{w} corrupted"
        result = parse_result(lines, label)
        expect(code == 1, f"{label}: exit {code}, expected 1")
        if result:
            expect(result["correct"] is False and result["failed"] >= 1,
                   f"{label}: corruption was reported as a pass")
        expect(any("CHECK FAILED" in l for l in lines),
               f"{label}: no CHECK FAILED line")
        print(f"{w}: done", flush=True)

    # The store-rule transition log repeats byte for byte for one seed.
    shas = []
    for _ in range(2):
        _, lines = run("attack-mix", 0, seed="7")
        shas.append([l for l in lines if l.startswith("note: log_sha")])
    expect(shas[0] and shas[0] == shas[1],
           f"attack-mix transition log differs across runs: {shas}")

    # Without the library sources the benchmark fails without a result.
    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "backbone",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=180)
        expect(proc.returncode != 0, "bare directory: exit 0")
        expect('"correct"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
